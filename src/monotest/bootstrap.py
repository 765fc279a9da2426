"""Wild-bootstrap critical values: plug-in, one-step, and step-down.

One run draws a single multiplier panel eps[i, b] ~ N(0, 1) from a
counter-based generator and reuses it across all three critical values, so
the subset structure S_sd within S_os within S_n transfers to the draws and
the ordering c_sd <= c_os <= c_pi holds on every run, not just on average.

The draws are t*_b(s) = sum_i (w_i(s) / sqrt(V(s))) * sigma_i * eps[i, b];
each critical value is an upper quantile of their per-draw maxima over a
set of scales.  The three sets come from one rule: with c(1 - gamma) the
quantile over the current set, a step keeps the scales with
t(s) > -c_pi(1 - gamma) - c(1 - gamma).  The plug-in set is every active
scale, one step from it gives the one-step set {t(s) > -2 c_pi(1 - gamma)},
and the step-down set is where repeated steps stop dropping scales.
Discarding scales whose observed studentized value lies far below zero
sharpens power without giving up size control.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .scales import ScaleSet
from .statistic import KeptDraws, Sample, StudentizedField, _sigma_values, evaluate_field
from .sigma import SigmaEstimate

__all__ = [
    "BootConfig",
    "BootRun",
    "Rung",
    "TestReport",
    "quantile_upper",
    "p_value",
    "bootstrap_run",
    "run_report",
]

# critical-value methods, in report and Monte Carlo table order
CV_METHODS = ("pi", "os", "sd")

# the note an emptied selection leaves: one-step, then step-down
_FALLBACK_WARNINGS = (
    "one-step selection was empty; kept a single fallback scale",
    "step-down selection emptied; kept a single fallback scale",
)


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
class Rung:
    """One selected set of the critical-value ladder.

    ``ids`` are ascending scale ids, ``maxima`` the per-draw maxima of the
    draws over them, and ``c`` and ``c_gamma`` the upper 1 - alpha and
    1 - gamma quantiles of those maxima.
    """

    ids: np.ndarray
    maxima: np.ndarray
    c: float
    c_gamma: float


@dataclass(frozen=True)
class BootRun:
    """Everything one wild-bootstrap pass produces, on a single shared panel.

    ``field.draws`` is the ``KeptDraws`` of t*_b(s): it gives the per-draw
    maxima over any set of active scales, and holds the draws of the scales
    with the highest t.  ``ladder`` holds the selected sets in step order:
    the plug-in set, the one-step set, then every set the step-down passes
    move to.
    """

    field: StudentizedField
    ladder: tuple[Rung, ...]
    stepdown_iterations: int
    warnings: tuple[str, ...]

    def rung(self, method: str) -> Rung:
        """The rung whose critical value the method reports: PI first, OS second, SD last."""
        return self.ladder[{"pi": 0, "os": 1, "sd": -1}[method]]


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


def _rung(ids: np.ndarray, draws: KeptDraws, cfg: BootConfig) -> Rung:
    maxima = draws.maxima(ids)
    c = quantile_upper(maxima, 1.0 - cfg.alpha)
    return Rung(ids, maxima, c, quantile_upper(maxima, 1.0 - cfg.gamma))


def _pick_fallback(gen, candidates: np.ndarray) -> np.ndarray:
    idx = int(gen.integers(candidates.size))
    return candidates[idx : idx + 1]


def bootstrap_run(sample: Sample, sigma: SigmaEstimate, set_: ScaleSet, cfg: BootConfig) -> BootRun:
    """Run the full critical-value ladder on one shared multiplier panel.

    Computes the studentized field and climbs the ladder with one rule.  Its
    first rung is the plug-in set, every active scale.  Each step keeps the
    scales of the last rung with t(s) > -c_pi(1 - gamma) - c(1 - gamma),
    where c is the last rung's quantile: the first step gives the one-step
    set {t(s) > -2 c_pi(1 - gamma)}, and the later steps are the step-down
    passes.  The climb stops when a pass drops nothing or empties its set.
    An emptied set keeps a single scale drawn from its predecessor with the
    run's seeded stream, which keeps the nesting intact.
    """
    sig = _sigma_values(sigma, sample.n)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    field = evaluate_field(sample, set_, sig, _multipliers(gen, sig, cfg.B))

    ladder = [_rung(field.active_ids, field.draws, cfg)]
    warnings: list[str] = []
    # step 0 is the one-step selection, step k >= 1 the k-th step-down pass
    for step in itertools.count():
        last = ladder[-1]
        ids = last.ids[field.t[last.ids] > -ladder[0].c_gamma - last.c_gamma]
        if step and ids.size == last.ids.size:
            break
        emptied = not ids.size
        if emptied:
            ids = _pick_fallback(gen, last.ids)
            warnings.append(_FALLBACK_WARNINGS[min(step, 1)])
        ladder.append(_rung(ids, field.draws, cfg))
        if step and emptied:
            break
    return BootRun(field, tuple(ladder), step, tuple(warnings))


def run_report(
    sample: Sample,
    sigma: SigmaEstimate,
    set_: ScaleSet,
    cfg: BootConfig,
    model: str = "simple",
) -> TestReport:
    """Assemble a full test report for the configured critical-value method."""
    run = bootstrap_run(sample, sigma, set_, cfg)
    chosen = run.rung(cfg.method)
    warnings = list(run.warnings)
    inactive = set_.p - run.field.active_ids.size
    if inactive:
        warnings.append(f"{inactive} of {set_.p} scales inactive (numerically zero variance)")
    T = run.field.T
    return TestReport(
        T=T,
        method=cfg.method,
        critical_value=chosen.c,
        p_value=p_value(T, chosen.maxima),
        c_pi=run.rung("pi").c,
        c_os=run.rung("os").c,
        c_sd=run.rung("sd").c,
        selected_sizes=(set_.p, int(run.rung("os").ids.size), int(run.rung("sd").ids.size)),
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
