"""Test functions, weights, variances, and the studentized maximum."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotest import (
    DataError,
    DegenerateVarianceError,
    Sample,
    Scale,
    ScaleSet,
    build_custom_set,
    evaluate_field,
    sensitivity_A,
    variance_hat,
    weights_w,
    weights_w_naive,
)

# aliased so pytest does not collect them as test functions
from monotest import test_function_b as eval_b
from monotest import test_function_b_naive as eval_b_naive
from monotest import statistic
from monotest.scales import EPANECHNIKOV, UNIFORM, build_basic_set, build_z_local_set

TWO_POINT = Sample(x=[0.25, 0.75], y=[1.0, 0.0])
MID_SCALE = Scale(x=0.5, h=0.5)


def test_two_point_weights():
    # w_1 = sign(0.75 - 0.25) * K(-0.5) * K(0.5) = +0.31640625, w_2 its negative
    w = weights_w(TWO_POINT, MID_SCALE)
    np.testing.assert_array_equal(w, [0.31640625, -0.31640625])
    np.testing.assert_array_equal(weights_w_naive(TWO_POINT, MID_SCALE), w)


def test_two_point_b_positive_for_decreasing_y():
    # y falls while x rises, so the pairwise comparison is positive
    assert eval_b(TWO_POINT, MID_SCALE) == 0.31640625
    assert eval_b_naive(TWO_POINT, MID_SCALE) == 0.31640625


def test_two_point_variance_and_T():
    w = weights_w(TWO_POINT, MID_SCALE)
    v = variance_hat(w, [1.0, 1.0])
    assert v == 0.200225830078125  # 2 * 0.31640625^2
    field = evaluate_field(TWO_POINT, ScaleSet(scales=(MID_SCALE,)), [1.0, 1.0])
    np.testing.assert_allclose(field.T, 1.0 / np.sqrt(2.0), rtol=0, atol=0)
    np.testing.assert_allclose(field.A_n, 1.0 / np.sqrt(2.0), rtol=0, atol=0)
    assert field.b[0] == 0.31640625
    assert field.v_hat[0] == v
    np.testing.assert_array_equal(field.active_ids, [0])


def _random_config(rng, n_max=60):
    n = int(rng.integers(5, n_max))
    x = rng.uniform(-1.5, 1.5, n)
    if rng.random() < 0.4:
        # force ties through coarse rounding
        x = np.round(x, 1)
    y = rng.normal(size=n)
    kern = EPANECHNIKOV if rng.random() < 0.5 else UNIFORM
    s = Scale(
        x=float(rng.uniform(-1.2, 1.2)),
        h=float(rng.uniform(0.1, 1.5)),
        k=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
    )
    return Sample(x=x, y=y), s, kern


def test_fast_matches_naive_on_random_configs():
    rng = np.random.default_rng(515)
    for _ in range(80):
        sample, s, kern = _random_config(rng)
        w_fast = weights_w(sample, s, kern)
        w_naive = weights_w_naive(sample, s, kern)
        scale_w = max(np.max(np.abs(w_naive)), 1e-30)
        np.testing.assert_allclose(w_fast, w_naive, rtol=0, atol=1e-10 * scale_w)
        b_fast = eval_b(sample, s, kern)
        b_naive = eval_b_naive(sample, s, kern)
        scale_b = max(abs(b_naive), 1e-30)
        assert abs(b_fast - b_naive) <= 1e-10 * scale_b


def test_k_one_far_from_origin():
    # the centered prefix-sum path must not cancel when the window sits at x ~ 1e3
    rng = np.random.default_rng(99)
    x = rng.uniform(1000.0, 1001.0, 80)
    sample = Sample(x=x, y=rng.normal(size=80))
    s = Scale(x=1000.5, h=0.4, k=1.0)
    b_fast = eval_b(sample, s)
    b_naive = eval_b_naive(sample, s)
    np.testing.assert_allclose(b_fast, b_naive, rtol=1e-10)


def test_constant_y_gives_exactly_zero_b():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0, 1, 30)
        sample = Sample(x=x, y=np.full(30, 3.7))
        assert eval_b(sample, Scale(0.5, 0.6)) == 0.0


@st.composite
def _tied_config(draw):
    # x on a grid of at most 6 values, so every window is made of tie runs
    grid = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True))
    n = draw(st.integers(2, 40))
    x = 0.25 * np.array(draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n)), dtype=float)
    y = np.array(
        draw(st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=n, max_size=n))
    )
    center = 0.25 * draw(st.sampled_from(grid))
    # h below the grid step keeps one tie run alone in the window; wider
    # windows have runs ending exactly at their first and last point
    h = draw(st.sampled_from([0.1, 0.3, 0.6, 1.1, 5.0]))
    kern = draw(st.sampled_from([EPANECHNIKOV, UNIFORM]))
    return Sample(x=x, y=y), Scale(center + draw(st.sampled_from([0.0, 0.05])), h), kern


def _b_k0_loop(sample, s, kern):
    # k=0 fast path with the tie correction as a Python loop over tie runs,
    # in cut order: the arithmetic the vectorized correction must reproduce
    xs = np.sort(sample.x, kind="stable")
    ys = sample.y[np.argsort(sample.x, kind="stable")]
    lo = np.searchsorted(xs, s.x - s.h, side="right")
    hi = np.searchsorted(xs, s.x + s.h, side="left")
    if hi - lo < 2 or xs[lo] == xs[hi - 1]:
        return 0.0  # no pair with nonzero sign: fewer than two points, or one tie run
    xw, yw = xs[lo:hi], ys[lo:hi]
    csum = np.concatenate(([0.0], np.cumsum(kern((xw - s.x) / s.h))))
    pref = csum[1:-1]
    b = float(np.dot(yw[:-1] - yw[1:], pref * (csum[-1] - pref)))
    for t in range(xw.size - 1):
        if xw[t] == xw[t + 1]:
            a = np.searchsorted(xw, xw[t], side="left")
            stop = np.searchsorted(xw, xw[t], side="right")
            b -= (yw[t] - yw[t + 1]) * (csum[t + 1] - csum[a]) * (csum[stop] - csum[t + 1])
    return b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tied_config())
def test_tie_correction_matches_naive(config):
    sample, s, kern = config
    b_fast = eval_b(sample, s, kern)
    assert b_fast == _b_k0_loop(sample, s, kern)
    b_naive = eval_b_naive(sample, s, kern)
    # relative to the absolute pair terms the fast path sums, tied pairs
    # included: it adds them over the cuts and then subtracts them again
    kx = np.asarray(kern((sample.x - s.x) / s.h), dtype=float)
    scale = 0.5 * float(kx @ np.abs(sample.y[:, None] - sample.y[None, :]) @ kx)
    assert abs(b_fast - b_naive) <= 1e-10 * max(scale, 1e-300)
    # constant y on tied x: every adjacent difference is zero, so b is exactly 0
    flat = Sample(x=sample.x, y=np.full(sample.n, sample.y[0]))
    assert eval_b(flat, s, kern) == 0.0


def test_single_tie_run_window_is_exactly_zero():
    # every pair in the window is tied, so no pair has a nonzero sign
    sample = Sample(x=[0.0, 0.0], y=[0.0, 1.5])
    for k in (0.0, 0.5, 1.0):
        s = Scale(0.0, 0.5, k)
        assert eval_b(sample, s) == 0.0
        np.testing.assert_array_equal(weights_w(sample, s), [0.0, 0.0])


def _naive_w_b(sample, s, x_kernel, z_kernel):
    """Direct double sums for w and b, with the z-cell product weighting.

    Also returns the error scales of the fast path.  It forms suffix sums as
    the window total minus a prefix sum, so its rounding error follows the
    window's kernel mass G (and GX = sum g * |x - x_first|**k), not the size
    of w or b: pairs with a tiny kernel weight next to a heavy window lose
    relative accuracy.
    """
    x, y = sample.x, sample.y
    kx = np.asarray(x_kernel((x - s.x) / s.h), dtype=float)
    g = kx
    if s.z_loc is not None:
        for j in range(sample.z.shape[1]):
            g = g * np.asarray(z_kernel((sample.z[:, j] - s.z_loc[j]) / s.z_bw), dtype=float)
    dx = x[None, :] - x[:, None]
    coef = np.sign(dx) * np.abs(dx) ** s.k * g[:, None] * g[None, :]
    w = coef.sum(axis=1)
    dy = y[:, None] - y[None, :]
    b = 0.5 * float(np.sum(dy * coef))
    inside = kx > 0
    if not inside.any():
        return w, b, 1e-300, 1e-300
    xw = x[inside]
    big_g = float(g.sum())
    big_gx = float(np.sum(g[inside] * np.abs(xw - xw.min()) ** s.k))
    span = float(xw.max() - xw.min()) ** s.k
    scale_w = float(np.max(np.abs(w))) + float(g.max()) * (big_g * span + big_gx)
    cut_d = np.abs(np.diff(y[inside][np.argsort(xw, kind="stable")])).sum()
    pairs = 0.5 * float(np.sum(np.abs(dy) * np.abs(dx) ** s.k * g[:, None] * g[None, :]))
    scale_b = pairs + float(cut_d) * big_g * (big_gx + big_g * span)
    return w, b, scale_w, scale_b


@st.composite
def _field_config(draw):
    n = draw(st.integers(2, 30))
    if draw(st.booleans()):
        # heavy ties: at most 5 distinct x
        grid = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True))
        x = 0.25 * np.array(draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n)))
    else:
        x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    d = draw(st.sampled_from([0, 1, 2]))
    z = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d)))
    sample = Sample(x=x, y=y, z=z.reshape(n, d) if d else None)
    # h down to 0.01 leaves windows with one point, or none
    scales = draw(
        st.lists(
            st.builds(
                Scale,
                st.one_of(st.sampled_from(x.tolist()), st.floats(-2.5, 2.5)),
                st.sampled_from([0.01, 0.1, 0.3, 0.8, 3.0]),
                st.sampled_from([0.0, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    kern = draw(st.sampled_from([EPANECHNIKOV, UNIFORM]))
    set_ = ScaleSet(scales=tuple(scales), kernel=kern)
    if d:
        locs = draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * d), min_size=1, max_size=2))
        set_ = build_z_local_set(set_, z_locs=locs, z_bws=[draw(st.sampled_from([0.3, 2.0]))])
    return sample, set_


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_config(), st.sampled_from([1, 2, 5]))
def test_field_engine_matches_naive(config, block):
    # a tiny block puts block boundaries inside every set
    sample, set_ = config
    with mock.patch.object(statistic, "FIELD_BLOCK", block):
        W, b, absmax = statistic._field_arrays(sample, set_)
    for r, s in enumerate(set_.scales):
        w_naive, b_naive, scale_w, scale_b = _naive_w_b(sample, s, set_.kernel, set_.z_kernel)
        np.testing.assert_allclose(W[r], w_naive, rtol=0, atol=1e-10 * scale_w)
        assert abs(b[r] - b_naive) <= 1e-10 * scale_b
        assert absmax[r] == np.max(np.abs(W[r]))
        if s.z_loc is None:
            # the package's own oracles agree with the sums here
            np.testing.assert_allclose(
                weights_w_naive(sample, s, set_.kernel), w_naive, rtol=0, atol=1e-12 * scale_w
            )
            assert abs(eval_b_naive(sample, s, set_.kernel) - b_naive) <= 1e-12 * scale_b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(20, 70),
    st.sampled_from([1, 2]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_field_block_size_changes_no_bits(n, digits, k, zcell, seed):
    # up to ~700 scales: several blocks of 64 and of the default size
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-1, 1, n), digits)
    sample = Sample(x=x, y=rng.normal(size=n), z=rng.uniform(0, 1, (n, 1)))
    set_ = build_basic_set(sample.x, k=k)
    if zcell:
        set_ = build_z_local_set(set_, z_locs=[(0.3,), (0.7,)], z_bws=[0.5])
    sig = rng.uniform(0.5, 2.0, n)
    fields = []
    for block in (64, statistic.FIELD_BLOCK):
        with mock.patch.object(statistic, "FIELD_BLOCK", block):
            arrays = statistic._field_arrays(sample, set_)
            fields.append((arrays, evaluate_field(sample, set_, sig)))
    (arrays64, f64), (arrays, f) = fields
    for a64, a in zip(arrays64, arrays):
        assert a64.tobytes() == a.tobytes()
    for name in ("b", "v_hat", "t", "active_ids", "a_matrix"):
        assert getattr(f64, name).tobytes() == getattr(f, name).tobytes(), name
    assert (f64.T, f64.A_n) == (f.T, f.A_n)


def test_b_nonpositive_on_noiseless_monotone():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = np.sort(rng.uniform(-1, 1, 40))
        y = np.interp(x, [-1.0, 0.0, 1.0], [0.0, 0.25, 1.0])  # nondecreasing
        sample = Sample(x=x, y=y)
        s = Scale(float(rng.uniform(-1, 1)), float(rng.uniform(0.2, 1.0)))
        assert eval_b(sample, s) <= 0.0


def test_location_shift_leaves_b_unchanged_exactly():
    # b is accumulated from adjacent y differences; on lattice y with a
    # dyadic shift both y + c and its differences are exact, so b is bitwise
    # stable (a generic float shift perturbs y_i + c in the last ulp)
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 1, 50)
    y = rng.integers(-64, 65, size=50) / 64.0
    s = Scale(0.4, 0.3)
    b0 = eval_b(Sample(x=x, y=y), s)
    for c in (1.0, -17.25, 1024.0):
        assert eval_b(Sample(x=x, y=y + c), s) == b0


def test_generic_shift_moves_b_at_roundoff_only():
    rng = np.random.default_rng(27)
    x = rng.uniform(0, 1, 50)
    y = rng.normal(size=50)
    s = Scale(0.4, 0.3)
    b0 = eval_b(Sample(x=x, y=y), s)
    b1 = eval_b(Sample(x=x, y=y + 1e6), s)
    np.testing.assert_allclose(b1, b0, rtol=0, atol=1e-5)


def test_T_location_and_scale_invariance():
    rng = np.random.default_rng(29)
    x = rng.uniform(0, 1, 60)
    y = rng.integers(-128, 129, size=60) / 64.0
    sig = rng.uniform(0.5, 2.0, 60)
    set_ = build_custom_set(np.unique(x)[::7], [0.5, 0.25])
    T0 = evaluate_field(Sample(x=x, y=y), set_, sig).T
    # dyadic shift of lattice y: exact
    T_shift = evaluate_field(Sample(x=x, y=y + 5.5), set_, sig).T
    assert T_shift == T0
    # scale by a power of two: exact in binary floating point
    T_pow2 = evaluate_field(Sample(x=x, y=4.0 * y), set_, 4.0 * sig).T
    assert T_pow2 == T0
    # generic positive scale: equal up to roundoff
    T_gen = evaluate_field(Sample(x=x, y=0.3 * y), set_, 0.3 * sig).T
    np.testing.assert_allclose(T_gen, T0, rtol=1e-12)


def test_variance_hat_accepts_signed_sigma():
    w = np.array([1.0, -2.0, 0.5])
    assert variance_hat(w, [1.0, -1.0, 2.0]) == variance_hat(w, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        variance_hat(w, [1.0, 1.0])


def test_empty_window_scale_is_inactive():
    rng = np.random.default_rng(41)
    x = rng.uniform(0, 1, 30)
    sample = Sample(x=x, y=rng.normal(size=30))
    set_ = ScaleSet(scales=(Scale(0.5, 0.4), Scale(25.0, 0.1)))
    field = evaluate_field(sample, set_, np.ones(30))
    np.testing.assert_array_equal(field.active_ids, [0])
    assert np.isnan(field.t[1])
    assert field.v_hat[1] == 0.0
    assert np.isfinite(field.T)


def test_all_scales_degenerate_raises():
    sample = Sample(x=[0.0, 1.0, 2.0], y=[0.0, 1.0, 2.0])
    set_ = ScaleSet(scales=(Scale(50.0, 0.1), Scale(-50.0, 0.1)))
    with pytest.raises(DegenerateVarianceError):
        evaluate_field(sample, set_, np.ones(3))


def test_a_matrix_reproduces_t():
    rng = np.random.default_rng(43)
    x = rng.uniform(0, 1, 40)
    y = rng.normal(size=40)
    set_ = build_custom_set([0.3, 0.5, 0.7], [0.4, 0.2])
    field = evaluate_field(Sample(x=x, y=y), set_, np.ones(40))
    # rows of a_matrix are w / sqrt(v): acting on y recovers the t values
    np.testing.assert_allclose(
        field.a_matrix @ y, field.t[field.active_ids], rtol=0, atol=1e-10
    )


def test_scale_weights_multiply_t_but_not_A_n():
    rng = np.random.default_rng(47)
    x = rng.uniform(0, 1, 40)
    y = rng.normal(size=40)
    scales = tuple(Scale(c, 0.4) for c in (0.3, 0.7))
    plain = evaluate_field(Sample(x=x, y=y), ScaleSet(scales=scales), np.ones(40))
    weighted = evaluate_field(
        Sample(x=x, y=y),
        ScaleSet(scales=scales, scale_weights=(2.0, 0.5)),
        np.ones(40),
    )
    np.testing.assert_allclose(
        weighted.t[weighted.active_ids],
        plain.t[plain.active_ids] * np.array([2.0, 0.5]),
        rtol=1e-14,
    )
    assert weighted.A_n == plain.A_n


def test_sensitivity_matches_field():
    rng = np.random.default_rng(53)
    x = rng.uniform(0, 1, 50)
    sample = Sample(x=x, y=rng.normal(size=50))
    set_ = build_custom_set([0.25, 0.75], [0.5])
    field = evaluate_field(sample, set_, np.ones(50))
    assert sensitivity_A(sample, set_, np.ones(50)) == field.A_n
    assert 0.0 < field.A_n < 1.0


def test_z_cell_field_matches_naive():
    rng = np.random.default_rng(61)
    n = 50
    sample = Sample(
        x=rng.uniform(0, 1, n),
        y=rng.normal(size=n),
        z=rng.uniform(0, 1, (n, 2)),
    )
    base = build_custom_set([0.4, 0.6], [0.5])
    set_ = build_z_local_set(base, z_locs=[(0.3, 0.7), (0.6, 0.4)], z_bws=[0.5])
    field = evaluate_field(sample, set_, np.ones(n))
    for r, s in enumerate(set_.scales):
        b_naive = _naive_w_b(sample, s, set_.kernel, set_.z_kernel)[1]
        np.testing.assert_allclose(field.b[r], b_naive, rtol=0, atol=1e-12)


def test_z_cell_validation():
    rng = np.random.default_rng(67)
    base = build_custom_set([0.5], [0.5])
    zset = build_z_local_set(base, z_locs=[(0.5,)], z_bws=[0.5])
    no_z = Sample(x=rng.uniform(0, 1, 10), y=rng.normal(size=10))
    with_z = Sample(x=no_z.x, y=no_z.y, z=rng.uniform(0, 1, (10, 2)))
    for field_fn in (evaluate_field, sensitivity_A):
        with pytest.raises(DataError):
            field_fn(no_z, zset, np.ones(10))
        with pytest.raises(DataError):
            field_fn(with_z, zset, np.ones(10))  # z_loc is 1-d, z is 2-d
    # a set that mixes plain and z-cell scales is rejected too
    mixed = ScaleSet(scales=base.scales + zset.scales, z_kernel=zset.z_kernel)
    with pytest.raises(DataError):
        evaluate_field(Sample(x=no_z.x, y=no_z.y, z=no_z.x), mixed, np.ones(10))


def test_sample_validation():
    with pytest.raises(DataError):
        Sample(x=[1.0], y=[1.0])
    with pytest.raises(DataError):
        Sample(x=[1.0, 2.0], y=[1.0])
    with pytest.raises(DataError):
        Sample(x=[1.0, np.nan], y=[1.0, 2.0])
    with pytest.raises(DataError):
        Sample(x=[1.0, 2.0], y=[1.0, 2.0], z=np.ones((3, 1)))


def test_sigma_length_mismatch():
    with pytest.raises(DataError):
        evaluate_field(TWO_POINT, ScaleSet(scales=(MID_SCALE,)), [1.0, 1.0, 1.0])
