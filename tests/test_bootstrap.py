"""Wild-bootstrap critical values: shared panel, selection, quantiles."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from monotest import (
    BootConfig,
    DegenerateVarianceError,
    Sample,
    bootstrap,
    bootstrap_run,
    build_basic_set,
    build_custom_set,
    estimate_sigma,
    p_value,
    quantile_upper,
    run_report,
    statistic,
)
from monotest.bootstrap import CV_METHODS
from monotest.cli import load_columns
from monotest.scales import build_z_local_set
from oracles import draw_rows, naive_ladder, run_blocks, run_draws

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "n, B",
    [(2 * statistic.CHUNK_ROWS + 7, 5), (statistic.CHUNK_ROWS - 3, 4), (3 * statistic.CHUNK_ROWS, 1)],
)
def test_multiplier_chunks_are_the_bits_of_one_panel(n, B):
    # n not a multiple of the chunk rows, n below them, and one draw
    rng = np.random.default_rng(n)
    sig = rng.uniform(-2.0, 2.0, n)
    chunks = list(bootstrap._multipliers(2**40 + n, sig, B))
    assert all(c.shape == (statistic.CHUNK_ROWS, B) for c in chunks[:-1])
    assert 0 < chunks[-1].shape[0] <= statistic.CHUNK_ROWS
    panel = np.random.Generator(np.random.Philox(key=2**40 + n)).standard_normal((n, B))
    assert np.concatenate(chunks).tobytes() == (panel * sig[:, None]).tobytes()


def test_quantile_upper_order_statistics():
    vals = [4.0, 1.0, 3.0, 2.0]
    assert quantile_upper(vals, 0.75) == 3.0
    assert quantile_upper(vals, 1.0) == 4.0
    assert quantile_upper(vals, 0.25) == 1.0
    assert quantile_upper(vals, 0.1) == 1.0
    assert quantile_upper([7.5], 0.5) == 7.5


def test_quantile_upper_no_rounding_slip():
    # ceil(0.9 * 500) must be 450 even though 0.9 * 500 = 450.00000000000006
    vals = np.arange(1.0, 501.0)
    assert quantile_upper(vals, 0.9) == 450.0
    assert quantile_upper(np.arange(1.0, 500.0), 0.99) == 495.0


def test_quantile_upper_validation():
    with pytest.raises(ValueError):
        quantile_upper([], 0.5)
    with pytest.raises(ValueError):
        quantile_upper([1.0], 0.0)
    with pytest.raises(ValueError):
        quantile_upper([1.0], 1.5)


def test_p_value_add_one():
    maxima = np.concatenate([np.full(49, 6.0), np.full(450, 1.0)])  # B = 499
    assert p_value(5.0, maxima) == 0.1
    assert p_value(100.0, maxima) == 1.0 / 500.0
    assert p_value(-10.0, maxima) == 1.0
    # draws equal to T count against the null
    assert p_value(6.0, maxima) == 0.1


def test_boot_config_validation():
    assert BootConfig(method="SD").method == "sd"
    with pytest.raises(ValueError):
        BootConfig(alpha=0.0)
    with pytest.raises(ValueError):
        BootConfig(alpha=0.1, gamma=0.1)  # gamma must be strictly below alpha
    with pytest.raises(ValueError):
        BootConfig(B=0)
    with pytest.raises(ValueError):
        BootConfig(seed=-1)
    with pytest.raises(ValueError):
        BootConfig(method="nope")


def _random_run(seed, n=60, B=150):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 0.5 * x + 0.3 * rng.standard_normal(n)
    sample = Sample(x=x, y=y)
    sig = estimate_sigma(sample, "rice")
    set_ = build_basic_set(x)
    cfg = BootConfig(B=B, seed=seed)
    return bootstrap_run(sample, sig, set_, cfg), sample, sig, set_, cfg


def test_nesting_and_ordering():
    for seed in range(12):
        run, *_ = _random_run(seed)
        pi, os_, sd = (run.rung(m) for m in ("pi", "os", "sd"))
        np.testing.assert_array_equal(pi.ids, run.field.active_ids)
        assert set(sd.ids.tolist()) <= set(os_.ids.tolist()) <= set(pi.ids.tolist())
        assert sd.c <= os_.c <= pi.c
        for rung in run.ladder:
            assert rung.c <= rung.c_gamma


def test_rejection_indicators_nest():
    run, *_ = _random_run(77)
    T = run.field.T
    c_pi, c_os, c_sd = (run.rung(m).c for m in ("pi", "os", "sd"))
    if T > c_pi:
        assert T > c_os and T > c_sd
    if T > c_os:
        assert T > c_sd


def test_run_is_deterministic():
    run1, sample, sig, set_, cfg = _random_run(5)
    run2 = bootstrap_run(sample, sig, set_, cfg)
    dense = run_draws(sample, set_, sig, cfg)
    for run in (run1, run2):
        ids = run.field.active_ids
        np.testing.assert_array_equal(draw_rows(run.field.draws, ids), dense[ids])
    assert len(run1.ladder) == len(run2.ladder)
    for r1, r2 in zip(run1.ladder, run2.ladder):
        assert (r1.c, r1.c_gamma) == (r2.c, r2.c_gamma)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        np.testing.assert_array_equal(r1.maxima, r2.maxima)
    # the multiplier panel is a function of the seed: another seed, other draws
    cfg3 = BootConfig(B=cfg.B, seed=cfg.seed + 1)
    run3 = bootstrap_run(sample, sig, set_, cfg3)
    other = run_draws(sample, set_, sig, cfg3)
    ids = run3.field.active_ids
    np.testing.assert_array_equal(draw_rows(run3.field.draws, ids), other[ids])
    assert not np.array_equal(dense, other)
    assert not np.array_equal(run1.rung("pi").maxima, run3.rung("pi").maxima)


def test_draws_shape_and_maxima():
    # seed 8 keeps 109 of 120 scales after one-step selection, and the steep
    # sample 37 of 240, then 15 after step-down, so their maxima skip columns
    cases = [_random_run(seed, n=40, B=64)[1:] for seed in (9, 8)]
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 80)
    steep = Sample(x=x, y=4.0 * x + 0.3 * rng.standard_normal(80))
    cfg = BootConfig(B=64, seed=1)
    cases.append((steep, estimate_sigma(steep, "rice"), build_basic_set(x), cfg))
    # sigma is 0 above x = 0.8, so the short windows there have V = 0
    sig = np.where(x > 0.8, 0.0, 0.3)
    set_ = build_custom_set(np.linspace(-0.95, 0.95, 39), [0.05, 0.1, 0.3])
    cases.append((steep, sig, set_, cfg))
    runs = []
    for sample, sigma, scales, c in cases:
        run = bootstrap_run(sample, sigma, scales, c)
        dense = run_draws(sample, scales, sigma, c)
        p = run.field.b.size
        assert dense.shape == (p, 64)
        inactive = np.setdiff1d(np.arange(p), run.field.active_ids)
        assert np.all(dense[inactive] == -np.inf)
        # every row fits: the pass holds every block, so each active row reads
        # back with the engine's bits and no block is rebuilt
        ids = run.field.active_ids
        rows = draw_rows(run.field.draws, ids)
        np.testing.assert_array_equal(rows, dense[ids])
        assert rows.shape == (ids.size, 64)
        np.testing.assert_array_equal(run.rung("pi").maxima, dense.max(axis=0))
        for rung in run.ladder:
            np.testing.assert_array_equal(rung.maxima, dense[rung.ids].max(axis=0))
        assert run.rung("pi") is run.ladder[0]
        assert run.rung("os") is run.ladder[1]
        assert run.rung("sd") is run.ladder[-1]
        assert run.field.draws.rebuilt == 0
        runs.append(run)
    assert runs[1].rung("os").ids.size < runs[1].field.active_ids.size
    assert runs[2].rung("sd").ids.size < runs[2].rung("os").ids.size
    assert runs[3].field.active_ids.size < runs[3].field.b.size


def test_plugin_quantile_matches_definition():
    run, *_ = _random_run(21, B=200)
    for rung in run.ladder:
        assert rung.c == quantile_upper(rung.maxima, 0.9)
        assert rung.c_gamma == quantile_upper(rung.maxima, 0.99)


def test_stepdown_fixed_point():
    # at exit every kept scale clears the final gamma-level threshold
    for seed in (31, 32, 33, 34):
        run, *_ = _random_run(seed)
        if run.warnings:
            continue
        sd = run.rung("sd")
        c_cur = quantile_upper(sd.maxima, 0.99)
        kept_t = run.field.t[sd.ids]
        assert np.all(kept_t > -run.rung("pi").c_gamma - c_cur)
        assert run.stepdown_iterations >= 1


def test_steep_monotone_triggers_fallback():
    # tiny sigma makes every studentized value sit far below the selection
    # threshold (even two-point windows), so the one-step set empties out
    x = np.linspace(0.0, 1.0, 50)
    sample = Sample(x=x, y=20.0 * x)
    set_ = build_basic_set(x)
    sig = np.full(50, 1e-3)
    run = bootstrap_run(sample, sig, set_, BootConfig(B=100, seed=3))
    assert np.all(run.field.t[run.field.active_ids] < -2.0 * run.rung("pi").c_gamma)
    # the emptied one-step set keeps the scale that attains T, and the
    # step-down pass from it changes nothing, so it leaves no second note
    np.testing.assert_array_equal(run.rung("os").ids, np.flatnonzero(run.field.t == run.field.T))
    assert run.rung("os").ids.size == 1
    assert run.rung("sd") is run.rung("os")
    assert run.warnings == ("one-step selection was empty; kept the scales that attain T",)


def test_report_fields():
    run, sample, sig, set_, cfg = _random_run(55)
    rep = run_report(sample, sig, set_, cfg, model="simple")
    assert rep.method == "sd"
    sd = run.rung("sd")
    assert rep.critical_value == sd.c
    assert rep.T == run.field.T
    assert rep.selected_sizes == (set_.p, run.rung("os").ids.size, sd.ids.size)
    assert rep.critical_values == tuple(run.rung(m).c for m in CV_METHODS)
    assert rep.p_value == p_value(run.field.T, sd.maxima)
    assert rep.sigma_method == "rice"
    assert rep.model == "simple"
    assert rep.seed == cfg.seed
    assert rep.n == sample.n
    assert 0.0 < rep.p_value <= 1.0


def test_report_notes_inactive_scales():
    rng = np.random.default_rng(61)
    x = rng.uniform(0, 1, 30)
    sample = Sample(x=x, y=rng.standard_normal(30))
    # second scale's window is empty, so it is inactive
    set_ = build_custom_set([0.5, 40.0], [0.3])
    rep = run_report(sample, np.ones(30), set_, BootConfig(B=50, seed=1))
    assert any("inactive" in w for w in rep.warnings)


def test_null_rejection_rate_near_alpha():
    # light Monte Carlo sanity check; the acceptance suite runs the full one
    rng = np.random.default_rng(2024)
    rejects = 0
    reps = 200
    for _ in range(reps):
        x = rng.uniform(-1, 1, 40)
        y = 0.05 * rng.standard_normal(40)
        sample = Sample(x=x, y=y)
        sig = estimate_sigma(sample, "rice")
        set_ = build_basic_set(x)
        cfg = BootConfig(B=99, seed=int(rng.integers(2**63)), method="pi")
        rep = run_report(sample, sig, set_, cfg)
        rejects += rep.T > rep.critical_value
    rate = rejects / reps
    assert 0.02 <= rate <= 0.22


# seeds of _stepdown_fallback_cases: a step-down pass empties a one-step set
# of 2 to 15 scales, since T lies between -2 c_pi(1 - gamma) and
# -c_pi(1 - gamma) - c_os(1 - gamma).  14 of seeds 0 to 2,999 do that.
STEPDOWN_FALLBACK_SEEDS = (498, 578, 684, 718, 1140, 1312, 1460, 1680, 1812, 1916, 2186, 2408, 2708, 2844)


def _stepdown_fallback_cases():
    # steep samples with a small dip, n from 12 to 39, and the true sigma
    for seed in STEPDOWN_FALLBACK_SEEDS:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 40))
        x = rng.uniform(-1.0, 1.0, n)
        sd = 10.0 ** rng.uniform(-3.0, 0.0)
        slope = rng.choice([4.0, 20.0])
        y = slope * x - 0.5 * np.exp(-20.0 * x**2) + sd * rng.standard_normal(n)
        alpha = rng.choice([0.05, 0.1])
        cfg = BootConfig(alpha=alpha, gamma=alpha / 5, B=int(rng.integers(20, 81)), seed=seed)
        yield Sample(x=x, y=y), np.full(n, sd), build_basic_set(x), cfg


def _ladder_cases(count):
    # slopes from flat to steep and noise from 1e-3 to 1: steep, quiet samples
    # empty the selections, moderate ones step down more than once; the
    # pinned cases after them empty only the step-down set
    rng = np.random.default_rng(1212)
    for i in range(count):
        n = int(rng.integers(20, 61))
        x = rng.uniform(-1.0, 1.0, n)
        sd = 10.0 ** rng.uniform(-3.0, 0.0)
        slope = rng.choice([0.0, 1.0, 4.0, 20.0])
        y = slope * x - 0.5 * np.exp(-20.0 * x**2) + sd * rng.standard_normal(n)
        sample = Sample(x=x, y=y)
        sig = estimate_sigma(sample, "rice") if i % 2 else np.full(n, sd)
        alpha = rng.choice([0.05, 0.1])
        cfg = BootConfig(alpha=alpha, gamma=alpha / 5, B=int(rng.integers(20, 81)), seed=i)
        yield sample, sig, build_basic_set(x), cfg
    yield from _stepdown_fallback_cases()


def _assert_ladder_is_naive(run, sample, sig, set_, cfg):
    """Every rung of the run bitwise equal to the naive ladder on the dense draws."""
    dense = run_draws(sample, set_, sig, cfg)
    ladder, iterations, warnings = naive_ladder(run.field, dense, cfg)
    assert len(run.ladder) == len(ladder)
    active, t = run.field.active_ids, run.field.t
    for rung, (ids, maxima, c, c_gamma) in zip(run.ladder, ladder):
        np.testing.assert_array_equal(rung.ids, ids)
        np.testing.assert_array_equal(rung.maxima, maxima)
        assert (rung.c, rung.c_gamma) == (c, c_gamma)
        # every rung is an upper set of the active t
        np.testing.assert_array_equal(rung.ids, active[t[active] >= t[rung.ids].min()])
    assert run.stepdown_iterations == len(ladder) - 1 == iterations
    assert len(warnings) <= 1
    assert list(run.warnings) == warnings
    return dense, iterations, warnings


def test_ladder_matches_naive_three_blocks():
    seen = {"os fallback": 0, "sd fallback": 0, "several passes": 0}
    for sample, sig, set_, cfg in _ladder_cases(240):
        run = bootstrap_run(sample, sig, set_, cfg)
        _, iterations, warnings = _assert_ladder_is_naive(run, sample, sig, set_, cfg)
        seen["os fallback"] += any(w.startswith("one-step") for w in warnings)
        seen["sd fallback"] += any(w.startswith("step-down") for w in warnings)
        seen["several passes"] += iterations > 1
    assert min(seen.values()) >= 10, seen


def _streamed_cases(count):
    # a budget of a few rows, or of every one; basic, k = 0.5 and z-cell sets,
    # steep quiet samples that empty the selections, and sigma that is zero
    # or tiny on part of the support, so V is 0 or falls below tau there; then
    # the pinned cases that empty only the step-down set
    rng = np.random.default_rng(1313)
    for i in range(count):
        n = int(rng.integers(20, 61))
        x = rng.uniform(-1.0, 1.0, n)
        sd = 10.0 ** rng.uniform(-3.0, 0.0)
        slope = rng.choice([0.0, 1.0, 4.0, 20.0])
        y = slope * x - 0.5 * np.exp(-20.0 * x**2) + sd * rng.standard_normal(n)
        sample = Sample(x=x, y=y, z=rng.uniform(0.0, 1.0, (n, 1)))
        sig = estimate_sigma(Sample(x=x, y=y), "rice").values if i % 2 else np.full(n, sd)
        if rng.random() < 0.3:
            sig = np.where(x > rng.uniform(0.3, 0.9), rng.choice([0.0, 1e-9]), 1.0) * sig
        set_ = build_basic_set(x, k=float(rng.choice([0.0, 0.5])))
        if rng.random() < 0.2:
            set_ = build_z_local_set(set_, z_locs=[(0.3,), (0.7,)], z_bws=[0.5])
        cfg = BootConfig(B=int(rng.integers(20, 81)), seed=i)
        keep = [1, int(rng.integers(2, 8)), 2 * set_.p][i % 3]
        block = int(rng.choice([statistic.FIELD_BLOCK, 5]))
        yield sample, sig, set_, cfg, keep, block
    for i, (sample, sig, set_, cfg) in enumerate(_stepdown_fallback_cases()):
        yield sample, sig, set_, cfg, [1, 3, 2 * set_.p][i % 3], [statistic.FIELD_BLOCK, 5][i % 2]


def _rebuilds_by_the_rule(blocks, v_hat, keep, calls):
    """How many blocks each ``maxima`` call rebuilds, for the ids of each call in turn.

    A call reads a block whose rows with V > 0 are all in its ids from the
    folded maximum.  With a budget of ``keep`` rows, the pass holds every
    row of every block when all p rows fit, and then no block is rebuilt.
    Else a call rebuilds any other block it touches unless the last call
    that read the block in part had the same rows of it in its ids.
    """
    p = v_hat.size
    if keep >= p:
        return [0] * len(calls)
    kept = {}
    counts = []
    for ids in calls:
        wanted = np.zeros(p, dtype=bool)
        wanted[ids] = True
        counts.append(0)
        for j, rows in enumerate(blocks):
            need = wanted[rows]
            if not need.any() or need[v_hat[rows] > 0.0].all():
                continue
            if j not in kept or not np.array_equal(kept[j], need):
                counts[-1] += 1
                kept[j] = need
    return counts


def test_streamed_ladder_matches_dense_draws():
    seen = dict.fromkeys(
        ["held in the pass", "kept maximum read again", "rebuilt again", "dim block",
         "os fallback", "sd fallback", "z-cells", "k = 0.5"],
        0,
    )
    for sample, sig, set_, cfg, keep, block in _streamed_cases(240):
        with mock.patch.object(statistic, "FIELD_BLOCK", block), \
                mock.patch.object(statistic, "KEEP_BYTES", keep * 8 * cfg.B):
            try:
                run, counts = _run_counting_rebuilds(sample, sig, set_, cfg)
            except DegenerateVarianceError:
                continue
            dense, _, warnings = _assert_ladder_is_naive(run, sample, sig, set_, cfg)
            order = statistic._sort_order(sample)
            blocks = [rows for rows, *_ in run_blocks(sample, set_, order)]
            field = run.field
            draws = field.draws
            # every rung once more after the ladder: a block that the last call
            # to read it in part read with the same rows answers from the maximum
            # kept then, any other is rebuilt again, and the maxima keep their bits
            again = []
            for rung in run.ladder:
                before = draws.rebuilt
                np.testing.assert_array_equal(draws.maxima(rung.ids), rung.maxima)
                again.append(draws.rebuilt - before)
        calls = [rung.ids for rung in run.ladder] * 2
        assert counts + again == _rebuilds_by_the_rule(blocks, field.v_hat, keep, calls)
        held_all = keep >= set_.p
        assert draws.rebuilt == 0 or not held_all
        ids = field.active_ids
        np.testing.assert_array_equal(draw_rows(draws, ids), dense[ids])
        dim = (field.v_hat > 0.0) & np.isnan(field.t)
        seen["held in the pass"] += held_all
        seen["kept maximum read again"] += any(a < c for a, c in zip(again, counts))
        seen["rebuilt again"] += any(again)
        seen["dim block"] += bool(dim.any())
        seen["os fallback"] += any(w.startswith("one-step") for w in warnings)
        seen["sd fallback"] += any(w.startswith("step-down") for w in warnings)
        seen["z-cells"] += set_.z_loc is not None
        seen["k = 0.5"] += set_.k == 0.5
    assert min(seen.values()) >= 5, seen


def _run_counting_rebuilds(sample, sigma, set_, cfg):
    """The run, and the number of blocks each of its ``maxima`` calls rebuilt."""
    counts = []
    maxima = statistic.KeptDraws.maxima

    def counted(self, ids):
        before = self.rebuilt
        out = maxima(self, ids)
        counts.append(self.rebuilt - before)
        return out

    with mock.patch.object(statistic.KeptDraws, "maxima", counted):
        return bootstrap_run(sample, sigma, set_, cfg), counts


def test_fallback_rung_rebuilds_the_block_that_attains_T():
    # the golden steep.csv with residual sigma empties the one-step set, which
    # keeps the scale that attains T.  Neither budget holds the pass's 120
    # rows, so the fallback rung rebuilds that scale's block.  The store
    # keeps the block's maximum over its one row in the rung's ids, so the
    # next call on those ids reads it there
    cols = load_columns(str(GOLDEN / "steep.csv"), ["x", "y"])
    sample = Sample(cols["x"], cols["y"])
    sigma = estimate_sigma(sample, "residual")
    set_ = build_basic_set(sample.x)
    cfg = BootConfig(B=60, seed=5)
    dense = run_draws(sample, set_, sigma, cfg)
    for keep in (1, statistic.FIELD_BLOCK):
        with mock.patch.object(statistic, "KEEP_BYTES", keep * 8 * cfg.B):
            run, counts = _run_counting_rebuilds(sample, sigma, set_, cfg)
        top = np.flatnonzero(run.field.t == run.field.T)
        assert run.warnings == ("one-step selection was empty; kept the scales that attain T",)
        np.testing.assert_array_equal(run.rung("os").ids, top)
        assert run.rung("sd") is run.rung("os")
        assert counts == [0, 1] and keep < set_.p
        for rung in run.ladder:
            np.testing.assert_array_equal(rung.maxima, dense[rung.ids].max(axis=0))
        draws = run.field.draws
        np.testing.assert_array_equal(draws.maxima(top), dense[top].max(axis=0))
        assert draws.rebuilt == 1, keep


@pytest.mark.parametrize("keep", [1, None])
def test_fallback_keeps_every_scale_tied_at_T(keep):
    # x on a grid of step 0.25 gives two scales the same t = T; an emptied
    # one-step set keeps both, also with a budget of one draw row
    x = np.repeat(np.linspace(0.0, 1.0, 5), 3)
    sample = Sample(x=x, y=20.0 * x)
    sig = np.full(x.size, 1e-3)
    set_ = build_basic_set(x)
    cfg = BootConfig(B=60, seed=1)
    with mock.patch.object(statistic, "KEEP_BYTES", (keep or set_.p) * 8 * cfg.B):
        run = bootstrap_run(sample, sig, set_, cfg)
        _assert_ladder_is_naive(run, sample, sig, set_, cfg)
    top = np.flatnonzero(run.field.t == run.field.T)
    assert top.size > 1
    assert run.warnings == ("one-step selection was empty; kept the scales that attain T",)
    np.testing.assert_array_equal(run.rung("os").ids, top)
    assert run.rung("sd") is run.rung("os")
    assert run.field.draws.rebuilt == (keep is not None)


@pytest.mark.parametrize("B", [8000, 20000])
def test_each_maxima_call_rebuilds_the_blocks_its_ids_need(B):
    # the golden main.csv at seed 5: p x B draws of the 240 scales do not fit
    # in KEEP_BYTES, so the pass holds none.  Its 80 locations give each of
    # the three bandwidths a block of 64 scales and one of 16.  A call reads
    # each block its ids hold whole from the folded maximum, and rebuilds
    # each other block it touches unless the last call that read the block
    # in part read the same rows of it; it keeps the maximum over those rows
    cols = load_columns(str(GOLDEN / "main.csv"), ["x", "y"])
    sample = Sample(cols["x"], cols["y"])
    sigma = estimate_sigma(sample, "rice")
    set_ = build_basic_set(sample.x)
    cfg = BootConfig(B=B, seed=5)
    run, counts = _run_counting_rebuilds(sample, sigma, set_, cfg)
    field, draws = run.field, run.field.draws
    blocks = [rows for rows, *_ in run_blocks(sample, set_, statistic._sort_order(sample))]
    keep = statistic.KEEP_BYTES // (8 * B)
    assert keep < set_.p
    calls = [rung.ids for rung in run.ladder]
    assert counts == _rebuilds_by_the_rule(blocks, field.v_hat, keep, calls)
    dense = run_draws(sample, set_, sigma, cfg)
    for rung in run.ladder:
        np.testing.assert_array_equal(rung.maxima, dense[rung.ids].max(axis=0))
    os_ids = run.rung("os").ids
    again = []
    for _ in range(2):
        before = draws.rebuilt
        np.testing.assert_array_equal(draws.maxima(os_ids), dense[os_ids].max(axis=0))
        again.append(draws.rebuilt - before)
    assert counts + again == _rebuilds_by_the_rule(blocks, field.v_hat, keep, calls + [os_ids] * 2)
    # the one-step set rebuilds the first bandwidth's two blocks and the
    # second's first block, and reads 27, 6 and 51 (B = 8,000) or 50 of
    # their rows.  The step-down set drops one row of the third block, so
    # it rebuilds that block, and so does the first repeat of the one-step
    # set; the second repeat reads every maximum it needs as kept
    assert (counts, again) == ([0, 3, 1], [1, 0])


@pytest.mark.parametrize("B", [20, 8000])
def test_a_repeated_maxima_call_rebuilds_nothing(B):
    # the golden main.csv's 240 scales: at B = 20 the pass holds every draw
    # and never rebuilds; at B = 8,000 it holds none, and a call on the ids
    # of the call before it reads each partly read block's kept maximum
    cols = load_columns(str(GOLDEN / "main.csv"), ["x", "y"])
    sample = Sample(cols["x"], cols["y"])
    sigma = estimate_sigma(sample, "rice")
    set_ = build_basic_set(sample.x)
    cfg = BootConfig(B=B, seed=5)
    run = bootstrap_run(sample, sigma, set_, cfg)
    draws = run.field.draws
    assert (set_.p * B * 8 <= statistic.KEEP_BYTES) == (B == 20)
    rebuilt = draws.rebuilt
    assert (rebuilt > 0) == (B == 8000)
    for rung in run.ladder:
        first = draws.maxima(rung.ids)
        before = draws.rebuilt
        np.testing.assert_array_equal(draws.maxima(rung.ids), first)
        np.testing.assert_array_equal(first, rung.maxima)
        assert draws.rebuilt == before
