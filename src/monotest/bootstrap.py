"""Wild-bootstrap critical values: plug-in, one-step, and step-down.

One run draws a single multiplier panel eps[i, b] ~ N(0, 1) from a
counter-based generator and reuses it across all three critical values, so
the subset structure S_sd within S_os within S_n transfers to the draws and
the ordering c_sd <= c_os <= c_pi holds on every run, not just on average.

The draws are t*_b(s) = sum_i (w_i(s) / sqrt(V(s))) * sigma_i * eps[i, b];
each critical value is an upper quantile of their per-draw maxima over a
set of scales.  The three sets come from one rule: with c(1 - gamma) the
quantile over the current set, a step keeps the scales with
t(s) > -c_pi(1 - gamma) - c(1 - gamma), or those that attain T if none
clears it, so every set is an upper set of t.  The plug-in set is every
active scale, one step gives the one-step set {t(s) > -2 c_pi(1 - gamma)},
and the step-down set is where repeated steps stop dropping scales.
Dropping scales far below zero buys power without losing size control.
``CV_RUNGS`` names each method's rung, ``run_report`` the monotest/1 record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scales import ScaleSet
from .statistic import (
    CHUNK_ROWS,
    KeptDraws,
    Sample,
    StudentizedField,
    _sigma_values,
    evaluate_field,
)
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

# critical-value method -> the ladder rung it reads, in report and Monte Carlo table order
CV_RUNGS = {"pi": 0, "os": 1, "sd": -1}
CV_METHODS = tuple(CV_RUNGS)

# the note an emptied selection leaves, one-step or step-down; a run leaves at most one
_FALLBACK_WARNINGS = (
    "one-step selection was empty; kept the scales that attain T",
    "step-down selection emptied; kept the scales that attain T",
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
    maxima over any set of active scales.  It holds the pass's draws when
    they fit in KEEP_BYTES, and else keeps each partly read block's maximum
    over the rows read, so a rung that reads the same rows of a block as an
    earlier rung does not rebuild it.  ``ladder`` holds the selected sets in
    step order: the plug-in set, the one-step set, then every set the
    step-down passes move to; the last pass, counted in
    ``stepdown_iterations``, moves nowhere.
    """

    field: StudentizedField
    ladder: tuple[Rung, ...]
    warnings: tuple[str, ...]

    @property
    def stepdown_iterations(self) -> int:
        return len(self.ladder) - 1

    def rung(self, method: str) -> Rung:
        """The rung whose critical value the method reports: PI first, OS second, SD last."""
        return self.ladder[CV_RUNGS[method]]


@dataclass(frozen=True)
class TestReport:
    """One test run as its monotest/1 report: the fields are the report's keys in order.

    The last, ``critical_values``, is not in the report: c of each of CV_METHODS, in order.
    """

    T: float
    method: str
    critical_value: float
    p_value: float
    alpha: float
    gamma: float
    B: int
    seed: int
    n: int
    p_scales: int
    selected_os: int
    selected_sd: int
    stepdown_iterations: int
    A_n: float
    sigma_method: str
    model: str
    warnings: tuple[str, ...]
    critical_values: tuple[float, ...]

    @property
    def selected_sizes(self) -> tuple[int, int, int]:
        return self.p_scales, self.selected_os, self.selected_sd


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


def _multipliers(seed: int, sig: np.ndarray, B: int):
    """The panel sigma_i * eps[i, b], eps from the seed's Philox stream, in chunks of rows.

    Yields ``CHUNK_ROWS`` x B chunks (the last may be shorter), each drawn
    and scaled in place as it is asked for.  Successive row chunks of a
    Philox stream are the bits of one (n, B) call, so the chunks in order
    are that panel, and no n x B array is ever made here.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    for i in range(0, sig.size, CHUNK_ROWS):
        scale = sig[i : i + CHUNK_ROWS, None]
        eps = gen.standard_normal((scale.size, B))
        eps *= scale
        yield eps


def _rung(ids: np.ndarray, draws: KeptDraws, cfg: BootConfig) -> Rung:
    maxima = draws.maxima(ids)
    c = quantile_upper(maxima, 1.0 - cfg.alpha)
    return Rung(ids, maxima, c, quantile_upper(maxima, 1.0 - cfg.gamma))


def bootstrap_run(sample: Sample, sigma: SigmaEstimate, set_: ScaleSet, cfg: BootConfig) -> BootRun:
    """Run the full critical-value ladder on one shared multiplier panel.

    Computes the studentized field and climbs the ladder with one rule.  Its
    first rung is the plug-in set, every active scale.  Each step keeps the
    scales of the last rung with t(s) > -c_pi(1 - gamma) - c(1 - gamma),
    where c is the last rung's quantile: the first step gives the one-step
    set {t(s) > -2 c_pi(1 - gamma)}, and the later steps are the step-down
    passes.  A step that keeps no scale keeps the scales of the last rung
    whose t equals T instead: every rung is an upper set of t, so each holds
    them.  The climb stops at the first step-down pass that drops nothing.
    """
    sig = _sigma_values(sigma, sample.n)
    field = evaluate_field(sample, set_, sig, _multipliers(cfg.seed, sig, cfg.B))

    ladder = [_rung(field.active_ids, field.draws, cfg)]
    warnings: list[str] = []
    while True:
        last = ladder[-1]
        t = field.t[last.ids]
        ids = last.ids[t > -ladder[0].c_gamma - last.c_gamma]
        emptied = not ids.size
        if emptied:
            ids = last.ids[t == field.T]
        if len(ladder) > 1 and ids.size == last.ids.size:
            break
        if emptied:
            warnings.append(_FALLBACK_WARNINGS[len(ladder) > 1])
        ladder.append(_rung(ids, field.draws, cfg))
    return BootRun(field, tuple(ladder), tuple(warnings))


def run_report(
    sample: Sample,
    sigma: SigmaEstimate,
    set_: ScaleSet,
    cfg: BootConfig,
    model: str = "simple",
    warnings=(),
) -> TestReport:
    """The report for the configured critical-value method; ``warnings`` lead its list."""
    run = bootstrap_run(sample, sigma, set_, cfg)
    chosen = run.rung(cfg.method)
    notes = [*warnings, *run.warnings]
    inactive = set_.p - run.field.active_ids.size
    if inactive:
        notes.append(f"{inactive} of {set_.p} scales inactive (numerically zero variance)")
    T = run.field.T
    return TestReport(
        T=T,
        method=cfg.method,
        critical_value=chosen.c,
        p_value=p_value(T, chosen.maxima),
        alpha=cfg.alpha,
        gamma=cfg.gamma,
        B=cfg.B,
        seed=cfg.seed,
        n=sample.n,
        p_scales=set_.p,
        selected_os=int(run.rung("os").ids.size),
        selected_sd=int(run.rung("sd").ids.size),
        stepdown_iterations=run.stepdown_iterations,
        A_n=run.field.A_n,
        sigma_method=getattr(sigma, "method", "external"),
        model=model,
        warnings=tuple(notes),
        critical_values=tuple(run.rung(m).c for m in CV_METHODS),
    )
