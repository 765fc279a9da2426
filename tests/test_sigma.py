"""Noise-level estimators: Rice, local Rice, residual, two-step polynomial."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotest import (
    DataError,
    Sample,
    SigmaEstimate,
    default_local_bandwidth,
    default_series_degree,
    estimate_sigma,
    poly_series_fit,
    residual_sigma,
    rice_global,
    rice_local,
    series_fit,
    two_step_poly_variance,
)


def test_rice_global_hand_value():
    # d = (2, -2, 2): sum d^2 = 12, divided by 2n = 8
    est = rice_global(Sample(x=[0.0, 1.0, 2.0, 3.0], y=[0.0, 2.0, 0.0, 2.0]))
    np.testing.assert_array_equal(est.values, np.full(4, math.sqrt(1.5)))
    assert est.method == "rice"


def test_rice_global_sorts_by_x():
    # sorted-by-x y is (0, 5, 10): adjacent differences 5 and 5
    est = rice_global(Sample(x=[1.0, 0.0, 2.0], y=[5.0, 0.0, 10.0]))
    assert est.values[0] == math.sqrt(50.0 / 6.0)


def test_rice_global_constant_y():
    est = rice_global(Sample(x=[0.0, 1.0, 2.0], y=[4.0, 4.0, 4.0]))
    np.testing.assert_array_equal(est.values, np.zeros(3))


def test_rice_global_recovers_noise_level():
    rng = np.random.default_rng(101)
    n = 2000
    x = np.sort(rng.uniform(0, 1, n))
    y = np.sin(3 * x) + 0.5 * rng.standard_normal(n)
    est = rice_global(Sample(x=x, y=y))
    np.testing.assert_allclose(est.values[0], 0.5, rtol=0.05)


def test_default_local_bandwidth_formula():
    sample = Sample(x=np.linspace(0.0, 2.0, 50), y=np.zeros(50))
    assert default_local_bandwidth(sample) == 2.0 * (math.log(50) / 50) ** (1.0 / 3.0)


def test_rice_local_hand_value():
    # b_n = 1 windows: {0,1}, {0,1,2}, {1,2,3}, {2,3}; all squared diffs are 4
    est = rice_local(Sample(x=[0.0, 1.0, 2.0, 3.0], y=[0.0, 2.0, 0.0, 2.0]), b_n=1.0)
    expect = [1.0, math.sqrt(4.0 / 3.0), math.sqrt(4.0 / 3.0), 1.0]
    np.testing.assert_allclose(est.values, expect, rtol=1e-15)
    assert est.params == {"b_n": 1.0}


def test_rice_local_wide_window_equals_global():
    rng = np.random.default_rng(103)
    x = rng.uniform(0, 1, 60)
    y = rng.normal(size=60)
    sample = Sample(x=x, y=y)
    wide = rice_local(sample, b_n=10.0)
    np.testing.assert_allclose(wide.values, rice_global(sample).values, rtol=1e-14)


def test_rice_local_handles_unsorted_input():
    rng = np.random.default_rng(107)
    x = rng.uniform(0, 1, 40)
    y = rng.normal(size=40)
    order = np.argsort(x)
    a = rice_local(Sample(x=x, y=y), b_n=0.2)
    b = rice_local(Sample(x=x[order], y=y[order]), b_n=0.2)
    np.testing.assert_allclose(a.values[order], b.values, rtol=1e-14)


def test_rice_local_tracks_heteroscedasticity():
    rng = np.random.default_rng(109)
    n = 3000
    x = np.sort(rng.uniform(0, 1, n))
    sig = 0.2 + 0.8 * x
    y = sig * rng.standard_normal(n)
    est = rice_local(Sample(x=x, y=y))
    rms = np.sqrt(np.mean((est.values - sig) ** 2))
    assert rms < 0.08


def test_rice_local_validation():
    sample = Sample(x=[0.0, 1.0], y=[0.0, 1.0])
    with pytest.raises(ValueError):
        rice_local(sample, b_n=0.0)


def test_poly_fit_recovers_cubic():
    rng = np.random.default_rng(113)
    x = rng.uniform(-2, 2, 50)
    y = 1.0 - 2.0 * x + 0.5 * x**3
    fit = poly_series_fit(x, y, 3)
    np.testing.assert_allclose(fit.fitted, y, rtol=0, atol=1e-10)
    assert fit.degree == 3


def test_poly_fit_degree_zero_is_mean():
    fit = poly_series_fit([0.0, 1.0, 2.0], [1.0, 2.0, 6.0], 0)
    np.testing.assert_allclose(fit.fitted, 3.0)


def test_poly_fit_constant_x():
    fit = poly_series_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], 0)
    np.testing.assert_allclose(fit.fitted, 2.0)
    np.testing.assert_allclose(fit.coef, [2.0])
    with pytest.raises(DataError, match=r"^x block: zero range"):
        poly_series_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], 1)


def test_poly_fit_validation():
    with pytest.raises(ValueError):
        poly_series_fit([0.0, 1.0], [0.0, 1.0], -1)
    with pytest.raises(ValueError):
        poly_series_fit([0.0, 1.0], [0.0, 1.0, 2.0], 1)
    with pytest.raises(ValueError):
        poly_series_fit([0.0, 1.0], [0.0, 1.0], 2)  # n <= degree
    with pytest.raises(DataError, match="too few rows"):
        poly_series_fit([0.0, 1.0], [0.0, 1.0], 1)  # n = degree + 1 coefficients
    with pytest.raises(DataError, match="x block: non-finite"):
        poly_series_fit([0.0, np.nan, 1.0], [0.0, 1.0, 2.0], 1)
    with pytest.raises(DataError, match="non-finite response"):
        poly_series_fit([0.0, 1.0, 2.0], [0.0, np.nan, 2.0], 1)
    with pytest.raises(DataError, match="non-finite response"):
        poly_series_fit([0.0, 1.0, 2.0], np.array([[0.0, 1.0], [1.0, np.inf], [2.0, 3.0]]), 1)


def test_poly_fit_high_degree_stable():
    # degree 8 on a few hundred points must stay well conditioned
    rng = np.random.default_rng(127)
    x = rng.uniform(0, 1, 400)
    y = np.exp(x)
    fit = poly_series_fit(x, y, 8)
    np.testing.assert_allclose(fit.fitted, y, rtol=1e-6)


@st.composite
def _poly_case(draw):
    # x uniform on a range 0, -3 or 1e8 from the origin; numpy's own domain
    # map rounds u by about eps * offset / width, so Chebyshev.fit is exact
    # to 1e-10 only on ranges at least 1e-3 * offset wide
    degree = draw(st.integers(0, 8))
    n = draw(st.integers(degree + 3, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset, width = draw(
        st.sampled_from([(0.0, 1e-3), (0.0, 1.0), (-3.0, 1e3), (1e8, 1e5), (1e8, 1e7)])
    )
    x = offset + width * rng.uniform(0.0, 1.0, n)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    y = scale * (draw(st.sampled_from([0.0, 5.0])) + rng.uniform(-1.0, 1.0, n))
    return x, y, degree


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_poly_case())
def test_poly_fit_matches_chebyshev_fit(case):
    x, y, degree = case
    want = np.polynomial.Chebyshev.fit(x, y, degree)(x)
    got = poly_series_fit(x, y, degree).fitted
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(y))


def test_poly_fit_exact_far_from_origin():
    # x - lo is exact near 1e8, so a polynomial of x at unit width is fitted
    # exactly; numpy's domain map would lose about 1e-8 in u here
    rng = np.random.default_rng(131)
    x = 1e8 + rng.uniform(0, 1, 60)
    t = x - 1e8
    y = 1.0 + 2.0 * t - 3.0 * t**3 + t**5
    np.testing.assert_allclose(poly_series_fit(x, y, 6).fitted, y, rtol=0, atol=1e-12)


def test_series_fit_parts_blocks_and_responses():
    rng = np.random.default_rng(137)
    cols = rng.uniform(-1, 3, (80, 3))
    y = np.column_stack([cols[:, 0] ** 2 - cols[:, 1], 1.0 + cols[:, 1] ** 3 + cols[:, 2]])
    fit = series_fit(cols, y, 3, ["a block", "b block", "c block"])
    np.testing.assert_allclose(fit.fitted, y, rtol=0, atol=1e-12)
    # each block's part, one column per response, is its own term up to a constant
    for blocks, want in [
        (range(1, 2), np.column_stack([-cols[:, 1], cols[:, 1] ** 3])),
        (range(2, 3), np.column_stack([0 * cols[:, 2], cols[:, 2]])),
        (range(1, 3), np.column_stack([-cols[:, 1], cols[:, 1] ** 3 + cols[:, 2]])),
    ]:
        d = fit.part(blocks) - want
        np.testing.assert_allclose(d, d.mean(axis=0) + 0 * d, rtol=0, atol=1e-10)
    parts = fit.part(range(1, 2)) + fit.part(range(2, 3))
    np.testing.assert_allclose(parts, fit.part(range(1, 3)), rtol=0, atol=1e-12)
    assert fit.part(range(2, 2)).shape == (80, 2) and not fit.part(range(2, 2)).any()
    # block 0 holds the intercept, so it is no part; nor is a block past the last
    for blocks in (range(0, 2), range(1, 4), range(1, 3, 2), range(2, 1)):
        with pytest.raises(ValueError, match="consecutive blocks after block 0"):
            fit.part(blocks)


@st.composite
def _blocks_case(draw):
    # 2-4 columns on ranges near and far from the origin, and a range of blocks after block 0
    degree = draw(st.integers(0, 6))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1 + m * degree + 2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spans = st.sampled_from([(0.0, 1e-3), (-3.0, 1e3), (1e8, 1e5)])
    bounds = draw(st.lists(spans, min_size=m, max_size=m))
    cols = np.column_stack([lo + w * rng.uniform(0.0, 1.0, n) for lo, w in bounds])
    y = rng.normal(size=(n, 2) if draw(st.booleans()) else n)  # one response or two
    start = draw(st.integers(1, m - 1))
    return cols, y, degree, range(start, draw(st.integers(start, m)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_blocks_case())
def test_series_part_is_its_blocks_design_times_their_coefficients(case):
    # bit for bit: the part is a fresh Chebyshev design of those columns alone, as the
    # adapters subtracted it before; a slice of the whole design rounds differently
    cols, y, degree, blocks = case
    fit = series_fit(cols, y, degree, [f"block {j}" for j in range(cols.shape[1])])
    v = cols[:, blocks.start : blocks.stop]
    lo, hi = v.min(axis=0), v.max(axis=0)
    u = (v - lo) * (2.0 / (hi - lo)) - 1.0 if degree else v
    design = np.polynomial.chebyshev.chebvander(u, degree)[..., 1:].reshape(len(v), -1)
    want = design @ fit.coef[1 + blocks.start * degree : 1 + blocks.stop * degree]
    got = fit.part(blocks)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_default_series_degree_breakpoints():
    assert default_series_degree(50) == 5
    assert default_series_degree(100) == 5
    assert default_series_degree(101) == 6
    assert default_series_degree(200) == 6
    assert default_series_degree(201) == 8
    assert default_series_degree(1000) == 8


def test_residual_sigma_keeps_sign():
    sample = Sample(x=[0.0, 1.0, 2.0], y=[1.0, -2.0, 3.0])
    est = residual_sigma(sample, 0)  # degree 0: residuals about the mean 2/3
    np.testing.assert_allclose(est.values, [1 / 3, -8 / 3, 7 / 3], rtol=0, atol=1e-14)
    assert est.method == "residual"
    with pytest.raises(ValueError):
        residual_sigma(sample, 2)  # 3 rows for 3 coefficients


def test_two_step_recovers_constant_variance():
    rng = np.random.default_rng(131)
    n = 2000
    x = rng.uniform(-1, 1, n)
    y = x + 0.3 * rng.standard_normal(n)
    est = two_step_poly_variance(Sample(x=x, y=y), degree=3)
    np.testing.assert_allclose(np.median(est.values), 0.3, rtol=0.1)
    assert np.all(est.values > 0)


def test_two_step_floor_on_noiseless_data():
    x = np.linspace(0, 1, 100)
    y = 2.0 * x - 1.0
    est = two_step_poly_variance(Sample(x=x, y=y), degree=2)
    assert np.all(est.values > 0)
    assert np.all(est.values < 1e-5)


def test_two_step_validation():
    with pytest.raises(ValueError):
        two_step_poly_variance(Sample(x=[0.0, 1.0], y=[0.0, 1.0]), degree=0)


def test_estimate_sigma_dispatch():
    rng = np.random.default_rng(137)
    n = 150
    x = rng.uniform(0, 1, n)
    y = x + 0.1 * rng.standard_normal(n)
    sample = Sample(x=x, y=y)

    np.testing.assert_array_equal(
        estimate_sigma(sample, "rice").values, rice_global(sample).values
    )
    np.testing.assert_array_equal(
        estimate_sigma(sample, "local-rice", b_n=0.3).values,
        rice_local(sample, b_n=0.3).values,
    )
    # residual picks the series degree from n: 6 for n = 150
    direct = residual_sigma(sample, 6)
    np.testing.assert_array_equal(direct.values, y - poly_series_fit(x, y, 6).fitted)
    np.testing.assert_array_equal(estimate_sigma(sample, "residual").values, direct.values)
    assert estimate_sigma(sample, "residual").params == {"degree": 6}
    assert estimate_sigma(sample, "residual", degree=3).params == {"degree": 3}
    assert estimate_sigma(sample, "two-step-poly").params == {"degree": 3}
    with pytest.raises(ValueError):
        estimate_sigma(sample, "unknown-method")


def test_sigma_estimate_validation():
    with pytest.raises(ValueError):
        SigmaEstimate(np.array([-1.0, 1.0]), "rice", {})
    with pytest.raises(DataError):
        SigmaEstimate(np.array([np.nan]), "rice", {})
    # negative entries are allowed for residuals
    est = SigmaEstimate(np.array([-1.0, 1.0]), "residual", {})
    assert est.n == 2
