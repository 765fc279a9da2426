"""Wild-bootstrap critical values: shared panel, selection, quantiles."""

import numpy as np
import pytest

from monotest import (
    BootConfig,
    Sample,
    bootstrap_run,
    build_basic_set,
    build_custom_set,
    estimate_sigma,
    p_value,
    quantile_upper,
    run_report,
)


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
        active = set(run.field.active_ids.tolist())
        os_ids = set(run.os_ids.tolist())
        sd_ids = set(run.sd_ids.tolist())
        assert sd_ids <= os_ids <= active
        assert run.c_sd <= run.c_os <= run.c_pi
        assert run.c_pi <= run.c_pi_gamma
        assert run.c_os <= run.c_os_gamma


def test_rejection_indicators_nest():
    run, *_ = _random_run(77)
    T = run.field.T
    if T > run.c_pi:
        assert T > run.c_os and T > run.c_sd
    if T > run.c_os:
        assert T > run.c_sd


def test_run_is_deterministic():
    run1, sample, sig, set_, cfg = _random_run(5)
    run2 = bootstrap_run(sample, sig, set_, cfg)
    np.testing.assert_array_equal(run1.draws, run2.draws)
    assert run1.c_pi == run2.c_pi
    assert run1.c_os == run2.c_os
    assert run1.c_sd == run2.c_sd
    np.testing.assert_array_equal(run1.sd_ids, run2.sd_ids)
    # the multiplier panel is a function of the seed: another seed, other draws
    run3 = bootstrap_run(sample, sig, set_, BootConfig(B=cfg.B, seed=cfg.seed + 1))
    assert not np.array_equal(run1.draws, run3.draws)


def test_draws_shape_and_maxima():
    # seed 8 keeps 109 of 120 scales after one-step selection, and the steep
    # sample 37 of 240, then 15 after step-down, so their maxima skip columns
    runs = [_random_run(seed, n=40, B=64)[0] for seed in (9, 8)]
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 80)
    steep = Sample(x=x, y=4.0 * x + 0.3 * rng.standard_normal(80))
    cfg = BootConfig(B=64, seed=1)
    runs.append(bootstrap_run(steep, estimate_sigma(steep, "rice"), build_basic_set(x), cfg))
    # sigma is 0 above x = 0.8, so the short windows there have V = 0
    sig = np.where(x > 0.8, 0.0, 0.3)
    set_ = build_custom_set(np.linspace(-0.95, 0.95, 39), [0.05, 0.1, 0.3])
    runs.append(bootstrap_run(steep, sig, set_, cfg))
    for run in runs:
        p = run.field.b.size
        assert run.draws.shape == (64, p)
        inactive = np.setdiff1d(np.arange(p), run.field.active_ids)
        assert np.all(run.draws[:, inactive] == -np.inf)
        np.testing.assert_array_equal(run.maxima("pi"), run.draws.max(axis=1))
        for method, ids in (("os", run.os_ids), ("sd", run.sd_ids)):
            np.testing.assert_array_equal(run.maxima(method), run.draws[:, ids].max(axis=1))
        assert run.critical_value("pi") == run.c_pi
        assert run.critical_value("os") == run.c_os
        assert run.critical_value("sd") == run.c_sd
    assert runs[1].os_ids.size < runs[1].field.active_ids.size
    assert runs[2].sd_ids.size < runs[2].os_ids.size
    assert runs[3].field.active_ids.size < runs[3].field.b.size


def test_plugin_quantile_matches_definition():
    run, *_ = _random_run(21, B=200)
    assert run.c_pi == quantile_upper(run.maxima("pi"), 0.9)
    assert run.c_os == quantile_upper(run.maxima("os"), 0.9)
    assert run.c_sd == quantile_upper(run.maxima("sd"), 0.9)


def test_stepdown_fixed_point():
    # at exit every kept scale clears the final gamma-level threshold
    for seed in (31, 32, 33, 34):
        run, *_ = _random_run(seed)
        if run.warnings:
            continue
        c_cur = quantile_upper(run.maxima("sd"), 0.99)
        kept_t = run.field.t[run.sd_ids]
        assert np.all(kept_t > -run.c_pi_gamma - c_cur)
        assert run.stepdown_iterations >= 1


def test_steep_monotone_triggers_fallback():
    # tiny sigma makes every studentized value sit far below the selection
    # threshold (even two-point windows), so the one-step set empties out
    x = np.linspace(0.0, 1.0, 50)
    sample = Sample(x=x, y=20.0 * x)
    set_ = build_basic_set(x)
    sig = np.full(50, 1e-3)
    run = bootstrap_run(sample, sig, set_, BootConfig(B=100, seed=3))
    assert np.all(run.field.t[run.field.active_ids] < -2.0 * run.c_pi_gamma)
    assert run.os_ids.size == 1
    assert run.sd_ids.size == 1
    assert any("fallback" in w for w in run.warnings)


def test_report_fields():
    run, sample, sig, set_, cfg = _random_run(55)
    rep = run_report(sample, sig, set_, cfg, model="simple")
    assert rep.method == "sd"
    assert rep.critical_value == run.c_sd
    assert rep.T == run.field.T
    assert rep.reject == (rep.T > rep.critical_value)
    assert rep.selected_sizes == (set_.p, run.os_ids.size, run.sd_ids.size)
    assert rep.p_value == p_value(run.field.T, run.maxima("sd"))
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
        rejects += rep.reject
    rate = rejects / reps
    assert 0.02 <= rate <= 0.22
