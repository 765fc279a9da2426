"""Monte Carlo harness for size and power of the monotonicity tests.

Generates the four reference designs (uniform x on [-1, 1], regression
function c1 * x - c2 * phi(c3 * x) with phi the standard normal density),
runs the full test pipeline per replication, and tabulates rejection
proportions per (sigma method, critical-value method) cell.  Every
replication derives its data and bootstrap seeds from the master seed, the
cell identity, and the replication index, so results do not depend on how
replications are scheduled across workers.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import CV_METHODS, BootConfig, run_report
from .errors import DataError, DegenerateVarianceError
from .scales import build_basic_set
from .sigma import SIGMA_METHODS, estimate_sigma
from .statistic import Sample

__all__ = [
    "CASES",
    "McDesign",
    "McResult",
    "regression_f",
    "gen_design",
    "run_mc",
    "results_to_csv",
    "results_to_text",
]

# case -> (c1, c2, c3, noise sd): 1 flat, 2 strictly increasing,
# 3 a mild dip at small scale, 4 a pronounced dip with louder noise
CASES = {
    1: (0.0, 0.0, 0.0, 0.05),
    2: (1.0, 4.0, 1.0, 0.05),
    3: (1.0, 1.2, 5.0, 0.05),
    4: (1.0, 1.5, 4.0, 0.1),
}

# a noise's index here is part of every replication seed: append only
NOISES = ("normal", "uniform")

# read by OpenBLAS and OpenMP when the library loads, not afterwards
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class McDesign:
    """One simulation cell: design case, sample size, and noise family."""

    case: int
    n: int
    noise: str = "normal"

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"case must be one of {sorted(CASES)}, got {self.case!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.noise not in NOISES:
            raise ValueError(f"noise must be one of {NOISES}, got {self.noise!r}")

    @property
    def params(self) -> tuple[float, float, float, float]:
        return CASES[self.case]


@dataclass(frozen=True)
class McResult:
    """Rejection proportion of one (design, sigma method, cv method) cell."""

    noise: str
    case: int
    n: int
    sigma_method: str
    cv_method: str
    proportion: float
    reps: int
    B: int
    seed: int
    failures: int

    @property
    def method(self) -> str:
        return f"{self.sigma_method}-{self.cv_method.upper()}"


def _npdf(t):
    return np.exp(-0.5 * np.asarray(t, dtype=float) ** 2) / math.sqrt(2.0 * math.pi)


def regression_f(case: int, x):
    """The design regression function c1 * x - c2 * phi(c3 * x)."""
    c1, c2, c3, _ = CASES[case]
    return c1 * np.asarray(x, dtype=float) - c2 * _npdf(c3 * np.asarray(x, dtype=float))


def gen_design(design: McDesign, seed: int) -> Sample:
    """Draw one dataset: x uniform on [-1, 1], additive noise of sd sigma.

    Uniform noise is drawn on [-sigma * sqrt(3), sigma * sqrt(3)] so its
    standard deviation matches the normal case.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    _, _, _, sd = design.params
    x = gen.uniform(-1.0, 1.0, design.n)
    if design.noise == "normal":
        noise = sd * gen.standard_normal(design.n)
    else:
        half = sd * math.sqrt(3.0)
        noise = gen.uniform(-half, half, design.n)
    return Sample(x, regression_f(design.case, x) + noise)


def _rep_seeds(master_seed: int, design: McDesign, sigma_method: str, rep: int):
    ids = (NOISES.index(design.noise), SIGMA_METHODS.index(sigma_method))
    ss = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=(design.case, design.n, *ids, rep)
    )
    data_seed, boot_seed = (int(v) for v in ss.generate_state(2, dtype=np.uint64))
    return data_seed, boot_seed


def _mc_rep(args):
    design, sigma_method, cfg, master_seed, rep = args
    data_seed, boot_seed = _rep_seeds(master_seed, design, sigma_method, rep)
    try:
        sample = gen_design(design, data_seed)
        sig = estimate_sigma(sample, sigma_method)
        set_ = build_basic_set(sample.x)
        report = run_report(sample, sig, set_, replace(cfg, seed=boot_seed))
    except (DataError, DegenerateVarianceError, np.linalg.LinAlgError):
        return (False,) * (1 + len(CV_METHODS))
    return (True, *(report.T > c for c in report.critical_values))


def _usable_cpus() -> int:
    """The CPUs this process may run on, under any cpuset or affinity mask; cpu_count counts all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_pool(workers: int):
    """A process pool whose workers run BLAS on one thread each.

    A worker already fills a core, so more BLAS threads would only compete
    with the other workers.  BLAS reads its thread count when numpy loads,
    so the variables are 1 only while the forkserver starts and imports
    this module; the workers are forks of that server.  This process then
    gets its own values back, or their absence.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import forkserver

    ctx = multiprocessing.get_context("forkserver")
    # not the default ["__main__"]: the server would run an unguarded caller's script
    ctx.set_forkserver_preload([__name__])
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        forkserver.ensure_running()
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def run_mc(
    designs,
    sigma_methods,
    cv_methods=CV_METHODS,
    reps: int = 1000,
    B: int = 500,
    alpha: float = 0.1,
    gamma: float = 0.01,
    seed: int = 0,
    parallelism: int = 1,
) -> list[McResult]:
    """Estimate rejection proportions for every (design, sigma, cv) cell.

    A repeated design, sigma method or cv method counts once, in the order
    first seen.  Replications are independent tasks; with parallelism > 1
    they are run in one process pool of at most min(parallelism, reps,
    usable CPUs) workers, the usable CPUs being this process's affinity set
    where the OS keeps one; per-replication seeding makes the proportions
    identical to a serial run.  The workers run BLAS on one thread each,
    and this process on its default; a rejection decided within rounding
    of its critical value could therefore differ from a serial run.  A
    cell fails only if more than 1 percent of its replications raise.

    The workers start the calling script again as ``__mp_main__``, so a
    script that calls this with parallelism > 1 must do so under
    ``if __name__ == "__main__":``; an unguarded one fails with
    ``BrokenProcessPool``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    cfg = BootConfig(alpha=alpha, gamma=gamma, B=B)
    designs, sigma_methods, cv_methods = (
        list(dict.fromkeys(v)) for v in (designs, sigma_methods, cv_methods)
    )
    # a worker beyond the replications or the cores would only wait
    workers = min(parallelism, reps, _usable_cpus())
    for cv in cv_methods:
        if cv not in CV_METHODS:
            raise ValueError(f"unknown critical-value method {cv!r}")
    for sigma_method in sigma_methods:
        if sigma_method not in SIGMA_METHODS:
            raise ValueError(f"unknown sigma method {sigma_method!r}")
    results: list[McResult] = []
    with _worker_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for design, sigma_method in itertools.product(designs, sigma_methods):
            args = [(design, sigma_method, cfg, seed, rep) for rep in range(reps)]
            if pool is None:
                rows = [_mc_rep(a) for a in args]
            else:
                chunk = max(1, reps // (8 * workers))
                rows = list(pool.map(_mc_rep, args, chunksize=chunk))

            ok = np.array([r[0] for r in rows], dtype=bool)
            failures = int((~ok).sum())
            if failures > 0.01 * reps:
                raise DataError(
                    f"{failures}/{reps} replications failed in cell "
                    f"(case={design.case}, n={design.n}, noise={design.noise}, sigma={sigma_method})"
                )
            denom = max(int(ok.sum()), 1)
            # columns 1.. of a row are the rejections in CV_METHODS order
            by_cv = dict(zip(CV_METHODS, np.array([r[1:] for r in rows], dtype=bool).T))
            for cv in cv_methods:
                results.append(
                    McResult(
                        noise=design.noise,
                        case=design.case,
                        n=design.n,
                        sigma_method=sigma_method,
                        cv_method=cv,
                        proportion=float(by_cv[cv][ok].sum() / denom),
                        reps=reps,
                        B=B,
                        seed=seed,
                        failures=failures,
                    )
                )
    return results


def _sort_key(r: McResult):
    ids = (SIGMA_METHODS.index(r.sigma_method), CV_METHODS.index(r.cv_method))
    return (r.noise, r.case, r.n, *ids)


def results_to_csv(results) -> str:
    """Fixed-column CSV; deterministic for a given result list."""
    lines = ["noise,case,n,method,proportion,reps,B,seed"]
    for r in sorted(results, key=_sort_key):
        lines.append(
            f"{r.noise},{r.case},{r.n},{r.method},{r.proportion!r},{r.reps},{r.B},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def results_to_text(results) -> str:
    """Rejection proportions pivoted into a per-noise, per-case table."""
    results = sorted(results, key=_sort_key)
    ns = sorted({r.n for r in results})
    out = []
    header = f"{'case':>4}  {'method':<18}" + "".join(f"{f'n={n}':>9}" for n in ns)
    for noise in sorted({r.noise for r in results}):
        sub = [r for r in results if r.noise == noise]
        meta = sub[0]
        out.append(f"noise={noise}  reps={meta.reps}  B={meta.B}  seed={meta.seed}")
        out.append(header)
        seen: dict[tuple[int, str], dict[int, float]] = {}
        for r in sub:
            seen.setdefault((r.case, r.method), {})[r.n] = r.proportion
        for (case, method), by_n in seen.items():
            cells = "".join(
                f"{by_n[n]:>9.3f}" if n in by_n else f"{'-':>9}" for n in ns
            )
            out.append(f"{case:>4}  {method:<18}{cells}")
        out.append("")
    return "\n".join(out)
