"""Wild-bootstrap critical values: plug-in, one-step, and step-down.

One run draws a single multiplier panel eps[i, b] ~ N(0, 1) from a
counter-based generator and reuses it across all three critical values, so
the subset structure S_sd within S_os within S_n transfers to the draws and
the ordering c_sd <= c_os <= c_pi holds on every run, not just on average.

The draws are t*_b(s) = sum_i (w_i(s) / sqrt(V(s))) * sigma_i * eps[i, b];
the plug-in critical value is an upper quantile of their per-draw maxima
over all active scales, while the one-step and step-down values first
discard scales whose observed studentized value lies far below zero, which
sharpens power without giving up size control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scales import ScaleSet
from .statistic import Sample, StudentizedField, _sigma_values, evaluate_field
from .sigma import SigmaEstimate

__all__ = [
    "BootConfig",
    "BootRun",
    "TestReport",
    "quantile_upper",
    "p_value",
    "bootstrap_run",
    "run_report",
]

# critical-value methods, in report and Monte Carlo table order
CV_METHODS = ("pi", "os", "sd")


@dataclass(frozen=True)
class BootConfig:
    """Levels, draw count, seed, and critical-value method for one run."""

    alpha: float = 0.1
    gamma: float = 0.01
    B: int = 500
    seed: int = 0
    method: str = "sd"

    def __post_init__(self):
        object.__setattr__(self, "method", str(self.method).lower())
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.gamma < self.alpha:
            raise ValueError(f"gamma must lie in (0, alpha), got {self.gamma!r}")
        if int(self.B) < 1:
            raise ValueError("B must be >= 1")
        object.__setattr__(self, "B", int(self.B))
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)
        if self.method not in CV_METHODS:
            raise ValueError(f"method must be one of {CV_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class BootRun:
    """Everything one wild-bootstrap pass produces, on a single shared panel.

    ``draws`` holds t*_b(s): one row per draw, one column per scale id, and
    -inf in the columns of scales outside ``field.active_ids``.
    ``pi_maxima``, ``os_maxima`` and ``sd_maxima`` are its per-draw maxima
    over each method's selected set.
    """

    field: StudentizedField
    draws: np.ndarray
    c_pi: float
    c_pi_gamma: float
    os_ids: np.ndarray
    c_os: float
    c_os_gamma: float
    sd_ids: np.ndarray
    c_sd: float
    stepdown_iterations: int
    warnings: tuple[str, ...]
    pi_maxima: np.ndarray
    os_maxima: np.ndarray
    sd_maxima: np.ndarray

    def maxima(self, method: str) -> np.ndarray:
        """Per-draw maxima over the selected set of the given method."""
        return getattr(self, f"{method}_maxima")

    def critical_value(self, method: str) -> float:
        return getattr(self, f"c_{method}")


@dataclass(frozen=True)
class TestReport:
    """Statistic, critical values, p-value, and diagnostics of one test run."""

    T: float
    method: str
    critical_value: float
    p_value: float
    c_pi: float
    c_os: float
    c_sd: float
    selected_sizes: tuple[int, int, int]
    stepdown_iterations: int
    A_n: float
    alpha: float
    gamma: float
    B: int
    seed: int
    n: int
    sigma_method: str
    model: str
    warnings: tuple[str, ...]

    @property
    def reject(self) -> bool:
        return self.T > self.critical_value


def quantile_upper(values, level: float) -> float:
    """The ceil(level * B)-th order statistic (ascending); level 1 is the maximum."""
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level!r}")
    # the 1e-9 guard keeps e.g. ceil(0.9 * 500) at 450 despite 450.00000000000006
    k = math.ceil(level * v.size - 1e-9)
    k = min(max(k, 1), v.size)
    return float(np.partition(v, k - 1)[k - 1])


def p_value(T: float, boot_maxima) -> float:
    """Add-one bootstrap p-value (1 + #{draws >= T}) / (B + 1); never exactly zero."""
    m = np.asarray(boot_maxima, dtype=float).reshape(-1)
    return float((1 + np.count_nonzero(m >= T)) / (m.size + 1))


def _multipliers(gen, sig: np.ndarray, B: int) -> np.ndarray:
    """The n x B panel sigma_i * eps[i, b], scaled in place.

    Passed as a temporary, so evaluate_field holds its only reference.
    """
    eps = gen.standard_normal((sig.size, B))
    eps *= sig[:, None]
    return eps


def _pick_fallback(gen, candidates: np.ndarray) -> np.ndarray:
    idx = int(gen.integers(candidates.size))
    return candidates[idx : idx + 1]


def _max_over(draws: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-draw maxima over the given scale ids, without copying their columns out."""
    keep = np.zeros(draws.shape[1], dtype=bool)
    keep[ids] = True
    return draws.max(axis=1, initial=-np.inf, where=keep)


def bootstrap_run(sample: Sample, sigma: SigmaEstimate, set_: ScaleSet, cfg: BootConfig) -> BootRun:
    """Run the full critical-value ladder on one shared multiplier panel.

    Computes the studentized field, the plug-in quantiles, the one-step
    selection S_os = {s : t(s) > -2 c_pi(1 - gamma)}, and the step-down
    fixed point obtained by repeatedly discarding scales with
    t(s) <= -c_pi(1 - gamma) - c_l.  If a selection empties out, a single
    scale is drawn from its predecessor set using the run's seeded stream,
    which keeps the nesting intact.
    """
    sig = _sigma_values(sigma, sample.n)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    field = evaluate_field(sample, set_, sig, _multipliers(gen, sig, cfg.B))
    draws = field.draws.T  # (B, p), -inf off the active scales

    full_max = draws.max(axis=1)
    c_pi = quantile_upper(full_max, 1.0 - cfg.alpha)
    c_pi_gamma = quantile_upper(full_max, 1.0 - cfg.gamma)

    # t is NaN off the active scales, so each selection is a level set of t
    t = field.t
    warnings: list[str] = []

    # one-step selection
    os_ids = np.flatnonzero(t > -2.0 * c_pi_gamma)
    if not os_ids.size:
        os_ids = _pick_fallback(gen, field.active_ids)
        warnings.append("one-step selection was empty; kept a single fallback scale")
    os_max = _max_over(draws, os_ids)
    c_os = quantile_upper(os_max, 1.0 - cfg.alpha)
    c_os_gamma = quantile_upper(os_max, 1.0 - cfg.gamma)

    # step-down iteration to a fixed point, thresholds at the gamma level
    cur_ids = os_ids
    sd_max = os_max
    c_cur = c_os_gamma
    iterations = 0
    while True:
        iterations += 1
        keep = t[cur_ids] > (-c_pi_gamma - c_cur)
        if not keep.any():
            cur_ids = _pick_fallback(gen, cur_ids)
            sd_max = _max_over(draws, cur_ids)
            warnings.append("step-down selection emptied; kept a single fallback scale")
            break
        nxt = cur_ids[keep]
        if nxt.size == cur_ids.size:
            break
        cur_ids = nxt
        sd_max = _max_over(draws, cur_ids)
        c_cur = quantile_upper(sd_max, 1.0 - cfg.gamma)
    c_sd = quantile_upper(sd_max, 1.0 - cfg.alpha)

    return BootRun(
        field=field,
        draws=draws,
        c_pi=c_pi,
        c_pi_gamma=c_pi_gamma,
        os_ids=os_ids,
        c_os=c_os,
        c_os_gamma=c_os_gamma,
        sd_ids=cur_ids,
        c_sd=c_sd,
        stepdown_iterations=iterations,
        warnings=tuple(warnings),
        pi_maxima=full_max,
        os_maxima=os_max,
        sd_maxima=sd_max,
    )


def run_report(
    sample: Sample,
    sigma: SigmaEstimate,
    set_: ScaleSet,
    cfg: BootConfig,
    model: str = "simple",
) -> TestReport:
    """Assemble a full test report for the configured critical-value method."""
    run = bootstrap_run(sample, sigma, set_, cfg)
    warnings = list(run.warnings)
    inactive = set_.p - run.field.active_ids.size
    if inactive:
        warnings.append(f"{inactive} of {set_.p} scales inactive (numerically zero variance)")
    T = run.field.T
    return TestReport(
        T=T,
        method=cfg.method,
        critical_value=run.critical_value(cfg.method),
        p_value=p_value(T, run.maxima(cfg.method)),
        c_pi=run.c_pi,
        c_os=run.c_os,
        c_sd=run.c_sd,
        selected_sizes=(set_.p, int(run.os_ids.size), int(run.sd_ids.size)),
        stepdown_iterations=run.stepdown_iterations,
        A_n=run.field.A_n,
        alpha=cfg.alpha,
        gamma=cfg.gamma,
        B=cfg.B,
        seed=cfg.seed,
        n=sample.n,
        sigma_method=getattr(sigma, "method", "external"),
        model=model,
        warnings=tuple(warnings),
    )
