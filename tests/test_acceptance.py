"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE k: PASS/FAIL - detail`` line with the
measured numbers (written to the real stdout so it survives capture), then
asserts.  Criteria 1-4 are Monte Carlo cells with 500 replications of 250
bootstrap draws under a fixed master seed; the rest are exact or
high-precision properties and adapter recovery checks.

Criterion 2 compares measured rejection proportions against external
reference values for the selective methods.  The ordering component holds
by construction; the reference bands for the one-step and step-down
proportions are not reproduced by this implementation, so that test is
expected to fail and reports the measured values.
"""

import os
import time

import numpy as np
from oracles import dense_w, kernel_Q, naive_w_b

from monotest import (
    BootConfig,
    EPANECHNIKOV,
    McDesign,
    Sample,
    ScaleSet,
    SigmaEstimate,
    UNIFORM,
    bootstrap_run,
    build_basic_set,
    endogenous_adjust,
    estimate_sigma,
    evaluate_field,
    partial_linear_adjust,
    results_to_csv,
    run_mc,
)
from monotest.cli import main as cli_main

REPS = 500
DRAWS = 250
MASTER_SEED = 7
WORKERS = min(4, os.cpu_count() or 1)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _mc_cell(case: int, n: int, sigma: str) -> dict:
    results = run_mc(
        [McDesign(case, n, "normal")],
        [sigma],
        ("pi", "os", "sd"),
        reps=REPS,
        B=DRAWS,
        seed=MASTER_SEED,
        parallelism=WORKERS,
    )
    return {r.cv_method: r for r in results}


# ------------------------------------------------- 1-4: Monte Carlo cells


def test_acceptance_1_size_least_favorable(capsys):
    start = time.perf_counter()
    cell = _mc_cell(1, 100, "rice")
    wall = time.perf_counter() - start
    r = cell["pi"]
    in_band = 0.08 <= r.proportion <= 0.18
    in_time = wall <= 600.0
    _verdict(
        capsys,
        1,
        in_band and in_time,
        f"case 1, n=100, rice plug-in: rejection {r.proportion:.3f} "
        f"(band [0.08, 0.18]), {wall:.0f}s with {WORKERS} worker(s)",
    )


def test_acceptance_2_power_with_selection(capsys):
    cell = _mc_cell(3, 200, "rice")
    pi = cell["pi"].proportion
    os_ = cell["os"].proportion
    sd = cell["sd"].proportion
    ordering = pi < os_ <= sd
    targets = (("PI", pi, 0.665), ("OS", os_, 0.855), ("SD", sd, 0.861))
    bands = all(abs(p - t) <= 0.07 for _, p, t in targets)
    detail = ", ".join(f"{m} {p:.3f} vs {t:.3f}" for m, p, t in targets)
    _verdict(
        capsys,
        2,
        ordering and bands,
        f"case 3, n=200, rice: {detail} (band +/-0.07); "
        f"ordering PI < OS <= SD {'holds' if ordering else 'violated'}",
    )


def test_acceptance_3_monotone_null_stepdown(capsys):
    cell = _mc_cell(2, 200, "rice")
    r = cell["sd"]
    _verdict(
        capsys,
        3,
        r.proportion <= 0.04,
        f"case 2, n=200, rice step-down: rejection {r.proportion:.3f} (limit 0.04)",
    )


def test_acceptance_4_residual_sigma_power(capsys):
    cell = _mc_cell(3, 500, "residual")
    r = cell["sd"]
    _verdict(
        capsys,
        4,
        r.proportion >= 0.95,
        f"case 3, n=500, residual step-down: rejection {r.proportion:.3f} (floor 0.95)",
    )


# ------------------------------------------------- 5: exact invariants


def _monotone_noiseless(rng, n):
    # random nonnegative mixture of nondecreasing pieces
    x = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(0.0, 2.0, 4)
    step = rng.uniform(-0.5, 0.5)
    y = c[0] * x + c[1] * x**3 + c[2] * np.tanh(3.0 * x) + c[3] * (x >= step)
    return Sample(x, y + rng.uniform(-1.0, 1.0))


def test_acceptance_5_exact_invariants(capsys):
    rng = np.random.default_rng(505)
    failures = []

    # Q symmetry and nonnegativity, 1e4 random triples, exact
    for _ in range(10_000):
        x1, x2 = rng.uniform(-2.0, 2.0, 2)
        s = (rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.5), float(rng.integers(0, 3)))
        q, q_flip = kernel_Q(x1, x2, *s), kernel_Q(x2, x1, *s)
        if not (q == q_flip and q >= 0.0):
            failures.append("Q symmetry/nonnegativity")
            break

    # location and scale invariance of T, bitwise on lattice data
    # (lattice y and dyadic shifts keep every difference y_i - y_j exact)
    for _ in range(20):
        x = np.sort(rng.uniform(-1.0, 1.0, 60))
        y = rng.integers(-64, 65, 60) / 64.0
        set_ = build_basic_set(x)
        T0 = evaluate_field(Sample(x, y), set_, estimate_sigma(Sample(x, y), "rice")).T
        for c in (1.0, -17.25, 1024.0):
            shifted = Sample(x, y + c)
            if evaluate_field(shifted, set_, estimate_sigma(shifted, "rice")).T != T0:
                failures.append(f"location invariance (c={c})")
        for c in (4.0, 0.25, 1024.0):  # powers of two scale exactly
            scaled = Sample(x, c * y)
            if evaluate_field(scaled, set_, estimate_sigma(scaled, "rice")).T != T0:
                failures.append(f"scale invariance (c={c})")
        if failures:
            break

    # selection nesting and critical-value ordering, 100 random datasets
    for i in range(100):
        n = int(rng.integers(30, 70))
        x = rng.uniform(-1.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0) * x + 0.3 * rng.standard_normal(n)
        sample = Sample(x, y)
        run = bootstrap_run(
            sample,
            estimate_sigma(sample, "rice"),
            build_basic_set(sample.x),
            BootConfig(B=100, seed=1000 + i),
        )
        pi, os_, sd = (run.rung(m) for m in ("pi", "os", "sd"))
        nested = set(sd.ids) <= set(os_.ids) <= set(run.field.active_ids)
        ordered = sd.c <= os_.c <= pi.c
        if not (nested and ordered):
            failures.append(f"nesting/ordering (dataset {i})")
            break

    # sign property b(s) <= 0 on 100 noiseless monotone datasets
    for i in range(100):
        sample = _monotone_noiseless(rng, int(rng.integers(30, 80)))
        set_ = build_basic_set(sample.x)
        ones = SigmaEstimate(np.ones(sample.n), "constant", {})
        field = evaluate_field(sample, set_, ones)
        if field.b.max() > 0.0:
            failures.append(f"monotone sign property (dataset {i}, max b {field.b.max():.3e})")
            break

    _verdict(capsys, 5, not failures, "exact invariant suite" + (f"; failed: {failures}" if failures else ""))


# ------------------------------------------------- 6: fast vs naive oracle


def test_acceptance_6_fast_matches_naive(capsys):
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        x = rng.uniform(-2.0, 2.0, n)
        if rng.random() < 0.3:  # inject ties
            x[rng.integers(0, n, n // 5)] = rng.choice(x, n // 5)
        y = rng.standard_normal(n)
        sigma = np.abs(rng.standard_normal(n)) + 0.1
        kernel = EPANECHNIKOV if rng.random() < 0.7 else UNIFORM
        k = float(rng.choice([0.0, 1.0, 2.0, 1.7]))
        set_ = ScaleSet([rng.uniform(-2.0, 2.0)], [rng.uniform(0.2, 2.5)], k, kernel)
        sample = Sample(x, y)

        W, b = dense_w(sample, set_)
        w_naive, b_naive = naive_w_b(sample, set_, 0)[:2]
        ref = max(np.abs(w_naive).max(), 1e-300)
        worst = max(worst, np.abs(W[0] - w_naive).max() / ref)

        v_fast = evaluate_field(sample, set_, sigma).v_hat[0]
        v_naive = float(np.sum(sigma * sigma * w_naive * w_naive))
        worst = max(worst, abs(v_fast - v_naive) / max(v_naive, 1e-300))

        worst = max(worst, abs(b[0] - b_naive) / max(abs(b_naive), 1e-300))

    _verdict(capsys, 6, worst <= 1e-10, f"50 random configs, worst relative deviation {worst:.2e}")


# ------------------------------------------------- 7: local-linear slope link


def test_acceptance_7_slope_equivalence(capsys):
    # with k=1 and the unit-height uniform kernel, b on a window equals
    # -n_w * sum_(i in window) (x_i - mean) y_i for every y, so the
    # studentized statistic points opposite the local least-squares slope
    rng = np.random.default_rng(707)
    worst = 0.0
    signs_ok = True
    done = 0
    while done < 20:
        n = int(rng.integers(25, 61))
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        set_ = ScaleSet([rng.uniform(-0.6, 0.6)], [rng.uniform(0.3, 0.8)], 1.0, UNIFORM)
        mask = np.abs(x - set_.x[0]) < set_.h[0]
        n_w = int(mask.sum())
        if n_w < 3 or np.ptp(x[mask]) == 0.0:
            continue
        centered = np.where(mask, x - x[mask].mean(), 0.0)

        ratios = []
        for _ in range(3):
            y = rng.standard_normal(n)
            numerator = float(centered @ y)
            if abs(numerator) < 1e-8:
                continue
            field = evaluate_field(
                Sample(x, y), set_, SigmaEstimate(np.ones(n), "constant", {})
            )
            ratios.append(field.b[0] / numerator)
            if np.sign(field.t[0]) != -np.sign(numerator):
                signs_ok = False
        if len(ratios) < 2:
            continue
        expected = float(-n_w)
        spread = max(abs(r - expected) for r in ratios) / abs(expected)
        worst = max(worst, spread)
        done += 1

    _verdict(
        capsys,
        7,
        worst <= 1e-8 and signs_ok,
        f"20 windows: worst ratio deviation {worst:.2e}, "
        f"sign agreement {'holds' if signs_ok else 'violated'}",
    )


# ------------------------------------------------- 8: determinism


def test_acceptance_8_byte_identical_reports(tmp_path, capsys):
    rng = np.random.default_rng(808)
    x = np.sort(rng.uniform(-1.0, 1.0, 50))
    y = 0.4 * x + 0.2 * rng.standard_normal(50)
    data = tmp_path / "d.csv"
    data.write_text(
        "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)),
        encoding="utf-8",
    )
    outs = []
    for run in range(3):
        out = tmp_path / f"r{run}.json"
        rc = cli_main(["test", str(data), "--boot", "80", "--seed", "5", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    reports_ok = outs[0] == outs[1] == outs[2]

    tables = [
        results_to_csv(
            run_mc([McDesign(1, 50, "normal")], ["rice"], ("pi", "os", "sd"),
                   reps=30, B=50, seed=9, parallelism=par)
        )
        for par in (1, 4, 1)
    ]
    tables_ok = tables[0] == tables[1] == tables[2]

    _verdict(
        capsys,
        8,
        reports_ok and tables_ok,
        f"test reports byte-identical: {reports_ok}; "
        f"mc tables byte-identical across 1 vs 4 workers: {tables_ok}",
    )


# ------------------------------------------------- 9: adapter recovery


def test_acceptance_9_adapter_recovery(capsys):
    rng = np.random.default_rng(909)

    # noiseless linear partially linear design, n=200
    n = 200
    x = rng.uniform(-1.0, 1.0, n)
    z = rng.uniform(-1.0, 1.0, (n, 2))
    f = 0.5 + 1.5 * x
    adj = partial_linear_adjust(Sample(x, f + z @ np.array([2.0, -1.0]), z=z))
    pl_err = float(np.abs(adj.base.y - f).max())
    pl_ok = pl_err <= 1e-6

    # fully linear endogenous design, 100 replications at n=2000
    hits = 0
    worst = 0.0
    for _ in range(100):
        m = 2000
        u = rng.standard_normal(m)
        v = 0.05 * rng.standard_normal(m)
        xx = u + v
        yy = 2.0 * xx + 1.5 * v
        base = endogenous_adjust(xx, u, yy, first_stage_degree=1, L=1).base
        resid = (base.y - base.y.mean()) - (2.0 * xx - 2.0 * xx.mean())
        err = float(np.abs(resid).max())
        worst = max(worst, err)
        hits += err <= 0.05
    en_ok = hits >= 95

    _verdict(
        capsys,
        9,
        pl_ok and en_ok,
        f"partial-linear max error {pl_err:.2e} (limit 1e-6); "
        f"endogenous within 0.05 in {hits}/100 reps (worst {worst:.3f})",
    )
