"""Model adapters: partialling-out, additive, control-function, selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import power_series_fitted

from monotest import (
    DataError,
    Sample,
    additive_adjust,
    endogenous_adjust,
    partial_linear_adjust,
    poly_series_fit,
    selection_adjust,
    series_fit,
)


def _additive_fit(x, z, y, L):
    """The adapters' additive fit: x in block 0 with the intercept, then a block per z column."""
    cols = np.column_stack([x, z])
    return series_fit(cols, y, L, [f"block {j}" for j in range(cols.shape[1])])


def test_additive_fit_exact_on_polynomial_truth():
    rng = np.random.default_rng(211)
    n = 300
    x = rng.uniform(-1, 2, n)
    z = rng.uniform(0, 1, n)
    y = 2.0 + x - 0.5 * x**3 + z * z
    fit = _additive_fit(x, z, y, 4)
    np.testing.assert_allclose(fit.fitted, y, rtol=0, atol=1e-8)
    # at the sample's own z, g is z^2 up to an additive constant, and f carries the rest
    g = fit.part(range(1, 2))
    np.testing.assert_allclose(g - z * z, np.mean(g - z * z), rtol=0, atol=1e-8)
    f = 2.0 + x - 0.5 * x**3
    np.testing.assert_allclose(fit.fitted - g - f, np.mean(fit.fitted - g - f), rtol=0, atol=1e-8)
    # the adapter subtracts that g and keeps the level of y
    adj = additive_adjust(Sample(x, y, z=z), L=4)
    np.testing.assert_array_equal(adj.y, y - g)
    np.testing.assert_allclose(adj.y, f + np.mean(z * z - g), rtol=0, atol=1e-8)


def test_additive_fit_two_z_columns():
    rng = np.random.default_rng(223)
    n = 400
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, (n, 2))
    y = x + z[:, 0] ** 2 - 2.0 * z[:, 1] ** 3
    fit = _additive_fit(x, z, y, 4)
    np.testing.assert_allclose(fit.fitted, y, rtol=0, atol=1e-8)
    # each z block alone is its own component up to a constant
    for j, gj in enumerate((z[:, 0] ** 2, -2.0 * z[:, 1] ** 3)):
        d = fit.part(range(1 + j, 2 + j)) - gj
        np.testing.assert_allclose(d, np.mean(d), rtol=0, atol=1e-8)
    adj = additive_adjust(Sample(x, y, z=z), L=4)
    np.testing.assert_allclose(adj.y - x, np.mean(adj.y - x), rtol=0, atol=1e-8)


def test_additive_fit_validation():
    # each rejection of the former additive fit now comes from the sample or the series fit
    rng = np.random.default_rng(227)
    x = rng.uniform(0, 1, 50)
    with pytest.raises(DataError, match="one row per observation"):
        additive_adjust(Sample(x, np.zeros(50), z=rng.uniform(0, 1, 49)))
    with pytest.raises(DataError, match="response has shape"):
        series_fit(np.column_stack([x, x]), np.zeros(49), 1, ["x block", "z[0] block"])
    with pytest.raises(DataError, match=r"too few rows \(8\) for 9 coefficients"):
        additive_adjust(Sample(x[:8], np.zeros(8), z=rng.uniform(0, 1, 8)), L=4)
    with pytest.raises(DataError, match=r"^z\[0\] block: zero range"):
        additive_adjust(Sample(x, np.zeros(50), z=np.full(50, 2.0)))
    z_dup = np.column_stack([x, x])  # identical blocks: rank deficient
    with pytest.raises(DataError, match="rank-deficient"):
        additive_adjust(Sample(rng.uniform(0, 1, 50), np.zeros(50), z=z_dup))
    with pytest.raises(DataError, match="not a non-negative integer"):
        additive_adjust(Sample(x, np.zeros(50), z=x), L=2.5)


RANGES = [(0.0, 1e-3), (0.0, 1.0), (-3.0, 1e3), (1e8, 1e5), (1e8, 1e7)]


@st.composite
def _additive_case(draw):
    # every column uniform on its own range, some of them 1e8 from the origin:
    # the oracle's (2v - (hi + lo)) map rounds u by eps * offset / width
    L = draw(st.integers(0, 8))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1 + L * (1 + d) + 2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranges = np.array(draw(st.lists(st.sampled_from(RANGES), min_size=1 + d, max_size=1 + d)))
    cols = ranges[:, 0] + ranges[:, 1] * rng.uniform(0.0, 1.0, (n, 1 + d))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    y = scale * (draw(st.sampled_from([0.0, 5.0])) + rng.uniform(-1.0, 1.0, n))
    return cols, y, L


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_additive_case())
def test_additive_fit_matches_power_basis_oracle(case):
    cols, y, L = case
    got = _additive_fit(cols[:, 0], cols[:, 1:], y, L).fitted
    want = power_series_fitted(cols, y, L)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(y))


def test_series_errors_name_the_blocks():
    rng = np.random.default_rng(228)
    x, u = rng.uniform(0, 1, 50), rng.uniform(0, 1, (50, 2))
    with pytest.raises(DataError, match=r"^z\[1\] block: zero range"):
        additive_adjust(Sample(x, x, z=np.column_stack([u[:, 0], np.full(50, 2.0)])))
    rank = r"blocks \['x block', 'z\[0\] block'\] \(rank 5 < 9, condition"
    with pytest.raises(DataError, match=rank):
        additive_adjust(Sample(x, u[:, 0], z=x))
    # the endogenous first stage names its u blocks
    with pytest.raises(DataError, match=r"^u\[1\] block: zero range"):
        endogenous_adjust(Sample(x, x, z=np.column_stack([u[:, 0], np.ones(50)])))
    rank = r"blocks \['u\[0\] block', 'u\[1\] block'\] \(rank 4 < 7, condition"
    with pytest.raises(DataError, match=rank):
        endogenous_adjust(Sample(x, x, z=np.column_stack([u[:, 0], u[:, 0]])))
    with pytest.raises(DataError, match=r"^u\[0\] block: zero range"):
        endogenous_adjust(Sample(x, x, z=np.ones(50)))


def test_partial_linear_recovers_beta_noiseless():
    # f inside the first-stage polynomial span, so partialling-out is exact
    rng = np.random.default_rng(229)
    n = 250
    x = rng.uniform(-1, 1, n)
    z = np.column_stack([x**2 + rng.normal(size=n), rng.normal(size=n)])
    beta = np.array([1.5, -2.0])
    f = 1.0 + x - 0.5 * x**3
    sample = Sample(x=x, y=f + z @ beta, z=z)
    adj = partial_linear_adjust(sample)
    # y - y-tilde = z'beta-hat, so least squares on z gives beta-hat back
    beta_hat = np.linalg.lstsq(z, sample.y - adj.y, rcond=None)[0]
    np.testing.assert_allclose(beta_hat, beta, rtol=0, atol=1e-8)
    np.testing.assert_allclose(adj.y, f, rtol=0, atol=1e-8)
    np.testing.assert_array_equal(adj.x, sample.x)
    assert adj.z is sample.z


def test_partial_linear_beta_consistent_outside_span():
    # f outside the span biases beta only at the 1/sqrt(n) level
    rng = np.random.default_rng(230)
    n = 4000
    x = rng.uniform(-1, 1, n)
    z = np.column_stack([x**2 + rng.normal(size=n), rng.normal(size=n)])
    beta = np.array([1.5, -2.0])
    y = np.tanh(2 * x) + z @ beta + 0.1 * rng.standard_normal(n)
    adj = partial_linear_adjust(Sample(x=x, y=y, z=z))
    beta_hat = np.linalg.lstsq(z, y - adj.y, rcond=None)[0]
    np.testing.assert_allclose(beta_hat, beta, rtol=0, atol=0.05)


def test_partial_linear_needs_z():
    with pytest.raises(DataError):
        partial_linear_adjust(Sample(x=[0.0, 1.0], y=[0.0, 1.0]))


def test_partial_linear_detects_collinear_controls():
    rng = np.random.default_rng(233)
    n = 120
    x = rng.uniform(-1, 1, n)
    # z in the polynomial span of x: nothing left after partialling-out
    sample = Sample(x=x, y=rng.normal(size=n), z=(0.5 * x**2 - x).reshape(-1, 1))
    with pytest.raises(DataError):
        partial_linear_adjust(sample)
    # two nearly identical columns survive partialling but are mutually collinear
    v = rng.normal(size=n)
    z = np.column_stack([v, v * (1 + 1e-13)])
    with pytest.raises(DataError):
        partial_linear_adjust(Sample(x=x, y=rng.normal(size=n), z=z))


def test_additive_adjust_subtracts_known_component():
    rng = np.random.default_rng(239)
    n = 60
    x = rng.uniform(0, 1, n)
    z = rng.uniform(0, 1, (n, 2))
    y = x + 3.0 * z[:, 0] - z[:, 1] ** 2
    adj = additive_adjust(Sample(x=x, y=y, z=z), L=3)
    # the adjusted response is y minus the z blocks of the additive fit
    want = y - _additive_fit(x, z, y, 3).part(range(1, 3))
    np.testing.assert_array_equal(adj.y, want)
    # the g blocks are the known component up to the constant f carries
    np.testing.assert_allclose(adj.y - x, np.mean(adj.y - x), rtol=0, atol=1e-10)
    np.testing.assert_array_equal(adj.x, x)
    assert adj.z is not None and adj.z.shape == (n, 2)
    with pytest.raises(DataError, match="needs z columns"):
        additive_adjust(Sample(x=x, y=y))


def test_endogenous_control_is_first_stage_residual():
    rng = np.random.default_rng(241)
    n = 300
    u = rng.normal(size=n)
    x = 0.8 * u + rng.normal(size=n)
    y = rng.normal(size=n)
    adj = endogenous_adjust(Sample(x, y, z=u), first_stage_degree=3)
    z_hat = x - poly_series_fit(u, x, 3).fitted
    want = y - _additive_fit(x, z_hat, y, 4).part(range(1, 2))
    np.testing.assert_array_equal(adj.y, want)
    np.testing.assert_array_equal(adj.x, x)
    assert adj.z is None


def test_endogenous_linear_recovery_up_to_constant():
    # fully linear design with noise-scale endogeneity: the adjusted response
    # tracks f(x) = 2x up to the identification constant and estimation error
    rng = np.random.default_rng(241)
    n = 2000
    u = rng.normal(size=n)
    v = 0.05 * rng.normal(size=n)
    x = u + v  # endogenous through v
    y = 2.0 * x + 1.5 * v
    adj = endogenous_adjust(Sample(x, y, z=u))
    resid = adj.y - 2.0 * x
    centered = resid - np.mean(resid)
    assert float(np.sqrt(np.mean(centered**2))) < 0.02
    assert float(np.max(np.abs(centered))) < 0.15
    # with linear stages the additive representation is exact up to lstsq
    adj1 = endogenous_adjust(Sample(x, y, z=u), first_stage_degree=1, L=1)
    resid1 = adj1.y - 2.0 * x
    assert float(np.max(np.abs(resid1 - np.mean(resid1)))) < 0.02


def test_endogenous_degenerate_control():
    rng = np.random.default_rng(251)
    u = rng.normal(size=100)
    x = 1.0 + 0.5 * u - u**2  # exact polynomial in u: residual is zero
    with pytest.raises(DataError, match="degenerate"):
        endogenous_adjust(Sample(x, np.zeros(100), z=u))
    with pytest.raises(DataError):
        endogenous_adjust(Sample(x[:50], np.zeros(50), z=u))
    with pytest.raises(DataError, match="u columns"):
        endogenous_adjust(Sample(x, np.zeros(100)))


@pytest.mark.parametrize("model", ["endogenous", "partial-linear"])
def test_adapter_checks_square_no_raw_magnitude(model):
    # x, u and z near 1e300 adjust y as at unit scale: the degeneracy and
    # collinearity checks square nothing of that size, so nothing overflows
    # (a RuntimeWarning is an error in this suite)
    rng = np.random.default_rng(0)
    x, u, z = (rng.uniform(-1, 1, 60) for _ in range(3))
    y = x + 0.1 * rng.normal(size=60)
    adjust = {
        "endogenous": lambda s: endogenous_adjust(Sample(x * s, y, z=u * s)),
        "partial-linear": lambda s: partial_linear_adjust(Sample(x * s, y, z=z * s)),
    }[model]
    np.testing.assert_allclose(adjust(1e300).y, adjust(1.0).y, rtol=1e-12, atol=1e-12)


def test_series_adapters_reject_degree_zero():
    # a degree-0 series has no g or lambda block, so it would subtract nothing
    rng = np.random.default_rng(253)
    x, u, z = rng.uniform(-1, 1, (3, 100))
    y = x + u + rng.normal(size=100)
    d = (rng.random(100) < 0.7).astype(float)
    for adjust in (lambda L: additive_adjust(Sample(x, y, z=z), L=L),
                   lambda L: endogenous_adjust(Sample(x, y, z=u), L=L),
                   lambda L: selection_adjust(Sample(x, y, z=z), d, L=L)[0]):
        for L in (0, -1):
            with pytest.raises(DataError, match="--L"):
                adjust(L)
        assert adjust(1).n > 0


def test_selection_requires_binary_indicator():
    rng = np.random.default_rng(257)
    n = 100
    x = rng.uniform(0, 1, n)
    z = rng.uniform(0, 1, n)
    y = rng.normal(size=n)
    sample = Sample(x, y, z=z)
    with pytest.raises(DataError, match="binary"):
        selection_adjust(sample, np.full(n, 0.5))
    with pytest.raises(DataError, match="no selected rows"):
        selection_adjust(sample, np.zeros(n))
    with pytest.raises(DataError, match="values for 100 rows"):
        selection_adjust(sample, np.ones(n - 1))
    with pytest.raises(DataError, match="needs z columns"):
        selection_adjust(Sample(x, y), np.ones(n))
    d = np.zeros(n)
    d[:5] = 1.0
    with pytest.raises(DataError, match=r"too few rows \(5\) for 9 coefficients"):
        selection_adjust(sample, d)  # too few selected rows for the second stage


def test_selection_row_check_is_the_second_stage_fit():
    # the second-stage coefficient count is checked only where that fit runs
    rng = np.random.default_rng(258)
    n = 40
    x, z, y = rng.uniform(0, 1, (3, n))
    d = np.zeros(n)
    d[rng.choice(n, 9, replace=False)] = 1.0
    adj, warnings = selection_adjust(Sample(x, y, z=z), d, pscore_degree=0, L=4)
    assert warnings == ("propensity constant on selected rows; lambda set to zero",)
    np.testing.assert_array_equal(adj.y, y[d == 1])


def test_selection_constant_propensity_sets_lambda_zero():
    rng = np.random.default_rng(263)
    n = 80
    x = rng.uniform(0, 1, n)
    z = rng.uniform(0, 1, n)
    y = rng.normal(size=n)
    adj, warnings = selection_adjust(Sample(x, y, z=z), np.ones(n))
    np.testing.assert_allclose(adj.y, y, rtol=0, atol=1e-12)
    assert any("constant" in w for w in warnings)
    assert adj.n == n


def test_selection_structure_and_pscore_bounds():
    rng = np.random.default_rng(269)
    n = 400
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, n)
    p = 0.5 + 0.2 * x + 0.15 * z
    d = (rng.random(n) < p).astype(float)
    y = x**3 + rng.normal(size=n)
    adj, warnings = selection_adjust(Sample(x, y, z=z), d)
    mask = d == 1.0
    np.testing.assert_array_equal(adj.x, x[mask])
    np.testing.assert_array_equal(adj.z, z[mask].reshape(-1, 1))
    assert warnings == ()

    # a step in x pushes the linear-probability fit past 0 and 1: the clamp binds
    d = (x > 0.2).astype(float)
    adj, _ = selection_adjust(Sample(x, y, z=z), d)
    fitted = _additive_fit(x, z, d, 3).fitted
    assert fitted.min() < 1e-3 and fitted.max() > 1 - 1e-3
    sel = d == 1.0
    for ps, same in ((np.clip(fitted, 1e-3, 1 - 1e-3), True), (fitted, False)):
        p_sel = ps[sel]
        want = y[sel] - _additive_fit(x[sel], p_sel, y[sel], 4).part(range(1, 2))
        assert np.array_equal(adj.y, want) == same


def test_selection_removes_selection_bias():
    # y depends on the true propensity; the correction strips that part
    rng = np.random.default_rng(271)
    n = 1500
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, n)
    p = 0.5 + 0.2 * x + 0.2 * z
    d = (rng.random(n) < p).astype(float)
    y = x + 3.0 * p  # no independent noise: bias is purely through p
    adj, _ = selection_adjust(Sample(x, y, z=z), d)
    got = adj.y - np.mean(adj.y)
    want = adj.x - np.mean(adj.x)
    rms = float(np.sqrt(np.mean((got - want) ** 2)))
    assert rms < 0.1
