"""Wild-bootstrap critical values: plug-in, one-step, and step-down.

One run draws a single multiplier panel eps[i, b] ~ N(0, 1) from a
counter-based generator and reuses it across all three critical values, so
the subset structure S_sd within S_os within S_n transfers to the draws and
the ordering c_sd <= c_os <= c_pi holds on every run, not just on average.

The draws are t*_b(s) = scale_weight * sum_i (w_i(s) / sqrt(V(s))) * sigma_i
* eps[i, b]; the plug-in critical value is an upper quantile of their
per-draw maxima over all active scales, while the one-step and step-down
values first discard scales whose observed studentized value lies far below
zero, which sharpens power without giving up size control.
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
    fallback: str = "random"

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
        if self.fallback not in ("random", "argmax"):
            raise ValueError(f"fallback must be 'random' or 'argmax', got {self.fallback!r}")


@dataclass(frozen=True)
class BootRun:
    """Everything one wild-bootstrap pass produces, on a single shared panel.

    ``draws`` holds t*_b(s): one row per draw, one column per active scale,
    in the order of ``field.active_ids``.
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

    def maxima(self, method: str) -> np.ndarray:
        """Per-draw maxima over the selected set of the given method."""
        ids = {"pi": self.field.active_ids, "os": self.os_ids, "sd": self.sd_ids}[method]
        cols = np.searchsorted(self.field.active_ids, ids)
        return self.draws[:, cols].max(axis=1)

    def critical_value(self, method: str) -> float:
        return {"pi": self.c_pi, "os": self.c_os, "sd": self.c_sd}[method]


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


def _pick_fallback(gen, candidates: np.ndarray, t_active: np.ndarray, how: str) -> np.ndarray:
    if how == "argmax":
        idx = int(np.argmax(t_active[candidates]))
    else:
        idx = int(gen.integers(candidates.size))
    return candidates[idx : idx + 1]


def bootstrap_run(sample: Sample, sigma: SigmaEstimate, set_: ScaleSet, cfg: BootConfig) -> BootRun:
    """Run the full critical-value ladder on one shared multiplier panel.

    Computes the studentized field, the plug-in quantiles, the one-step
    selection S_os = {s : t(s) > -2 c_pi(1 - gamma)}, and the step-down
    fixed point obtained by repeatedly discarding scales with
    t(s) <= -c_pi(1 - gamma) - c_l.  If a selection empties out, a single
    scale is drawn from its predecessor set using the run's seeded stream
    (or by argmax of t when cfg.fallback == 'argmax'), which keeps the
    nesting intact.
    """
    field = evaluate_field(sample, set_, sigma)
    n = sample.n
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    eps = gen.standard_normal((n, cfg.B))
    sig = _sigma_values(sigma)
    draws = (field.a_matrix @ (sig[:, None] * eps)).T  # (B, active)

    full_max = draws.max(axis=1)
    c_pi = quantile_upper(full_max, 1.0 - cfg.alpha)
    c_pi_gamma = quantile_upper(full_max, 1.0 - cfg.gamma)

    active = field.active_ids
    t_active = field.t[active]
    warnings: list[str] = []

    # one-step selection, on active column positions
    all_cols = np.arange(active.size)
    os_mask = t_active > -2.0 * c_pi_gamma
    if os_mask.any():
        os_cols = np.flatnonzero(os_mask)
    else:
        os_cols = _pick_fallback(gen, all_cols, t_active, cfg.fallback)
        warnings.append("one-step selection was empty; kept a single fallback scale")
    os_max = draws[:, os_cols].max(axis=1)
    c_os = quantile_upper(os_max, 1.0 - cfg.alpha)
    c_os_gamma = quantile_upper(os_max, 1.0 - cfg.gamma)

    # step-down iteration to a fixed point, thresholds at the gamma level
    cur_cols = os_cols
    c_cur = c_os_gamma
    iterations = 0
    while True:
        iterations += 1
        keep = t_active[cur_cols] > (-c_pi_gamma - c_cur)
        if not keep.any():
            cur_cols = _pick_fallback(gen, cur_cols, t_active, cfg.fallback)
            warnings.append("step-down selection emptied; kept a single fallback scale")
            break
        nxt = cur_cols[keep]
        if nxt.size == cur_cols.size:
            break
        cur_cols = nxt
        c_cur = quantile_upper(draws[:, cur_cols].max(axis=1), 1.0 - cfg.gamma)
    c_sd = quantile_upper(draws[:, cur_cols].max(axis=1), 1.0 - cfg.alpha)

    return BootRun(
        field=field,
        draws=draws,
        c_pi=c_pi,
        c_pi_gamma=c_pi_gamma,
        os_ids=active[os_cols],
        c_os=c_os,
        c_os_gamma=c_os_gamma,
        sd_ids=active[cur_cols],
        c_sd=c_sd,
        stepdown_iterations=iterations,
        warnings=tuple(warnings),
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
