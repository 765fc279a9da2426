"""Test functions, weights, variances, and the studentized maximum."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dense_draws,
    dense_w,
    draw_rows,
    field_blocks,
    naive_w_b,
    run_blocks,
    run_draws,
    window_weights,
)

from monotest import (
    BootConfig,
    DataError,
    DegenerateVarianceError,
    Sample,
    ScaleSet,
    build_custom_set,
    estimate_sigma,
    evaluate_field,
    run_report,
)
from monotest import bootstrap, statistic
from monotest.bootstrap import bootstrap_run
from monotest.scales import EPANECHNIKOV, UNIFORM, build_basic_set, build_z_local_set

TWO_POINT = Sample(x=[0.25, 0.75], y=[1.0, 0.0])
MID_SCALE = ScaleSet([0.5], [0.5])


def _b(sample, set_):
    """The engine's test function b of a one-scale set."""
    return dense_w(sample, set_)[1][0]


def test_two_point_weights():
    # w_1 = sign(0.75 - 0.25) * K(-0.5) * K(0.5) = +0.31640625, w_2 its negative
    w = dense_w(TWO_POINT, MID_SCALE)[0][0]
    np.testing.assert_array_equal(w, [0.31640625, -0.31640625])
    np.testing.assert_array_equal(naive_w_b(TWO_POINT, MID_SCALE, 0)[0], w)


def test_two_point_b_positive_for_decreasing_y():
    # y falls while x rises, so the pairwise comparison is positive
    assert _b(TWO_POINT, MID_SCALE) == 0.31640625
    assert naive_w_b(TWO_POINT, MID_SCALE, 0)[1] == 0.31640625


def test_two_point_variance_and_T():
    field = evaluate_field(TWO_POINT, MID_SCALE, [1.0, 1.0])
    np.testing.assert_allclose(field.T, 1.0 / np.sqrt(2.0), rtol=0, atol=0)
    np.testing.assert_allclose(field.A_n, 1.0 / np.sqrt(2.0), rtol=0, atol=0)
    assert field.b[0] == 0.31640625
    assert field.v_hat[0] == 0.200225830078125  # 2 * 0.31640625^2
    np.testing.assert_array_equal(field.active_ids, [0])


def _random_config(rng, n_max=60):
    n = int(rng.integers(5, n_max))
    x = rng.uniform(-1.5, 1.5, n)
    if rng.random() < 0.4:
        # force ties through coarse rounding
        x = np.round(x, 1)
    y = rng.normal(size=n)
    kern = EPANECHNIKOV if rng.random() < 0.5 else UNIFORM
    c, h = rng.uniform(-1.2, 1.2), rng.uniform(0.1, 1.5)
    k = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
    return Sample(x=x, y=y), ScaleSet([c], [h], k, kern)


def test_fast_matches_naive_on_random_configs():
    rng = np.random.default_rng(515)
    for _ in range(80):
        sample, set_ = _random_config(rng)
        W, b = dense_w(sample, set_)
        w_naive, b_naive = naive_w_b(sample, set_, 0)[:2]
        scale_w = max(np.max(np.abs(w_naive)), 1e-30)
        np.testing.assert_allclose(W[0], w_naive, rtol=0, atol=1e-10 * scale_w)
        scale_b = max(abs(b_naive), 1e-30)
        assert abs(b[0] - b_naive) <= 1e-10 * scale_b


def test_k_one_far_from_origin():
    # the centered prefix-sum path must not cancel when the window sits at x ~ 1e3
    rng = np.random.default_rng(99)
    x = rng.uniform(1000.0, 1001.0, 80)
    sample = Sample(x=x, y=rng.normal(size=80))
    set_ = ScaleSet([1000.5], [0.4], k=1.0)
    np.testing.assert_allclose(_b(sample, set_), naive_w_b(sample, set_, 0)[1], rtol=1e-10)


def test_light_point_beside_a_heavy_tie_run():
    # the only y difference sits on a point at the kernel's edge, beside a
    # run of ten heavy points; b is that point's w, whose suffix mass is
    # exactly zero, so no difference of large sums enters it
    sample = Sample(x=[0.01] + [0.0] * 10, y=[1.0] + [0.0] * 10)
    set_ = ScaleSet([1.85e-9], [0.01])
    b_naive = naive_w_b(sample, set_, 0)[1]
    assert abs(_b(sample, set_) - b_naive) <= 1e-12 * abs(b_naive)


def test_constant_y_gives_exactly_zero_b():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0, 1, 30)
        sample = Sample(x=x, y=np.full(30, 3.7))
        assert _b(sample, ScaleSet([0.5], [0.6])) == 0.0


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
    c = center + draw(st.sampled_from([0.0, 0.05]))
    return Sample(x=x, y=y), ScaleSet([c], [h], kernel=kern)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tied_config())
def test_tie_correction_matches_naive(config):
    sample, set_ = config
    b_fast = _b(sample, set_)
    b_naive = naive_w_b(sample, set_, 0)[1]
    # relative to the absolute pair terms of the window, tied pairs included
    kx = np.asarray(set_.kernel((sample.x - set_.x[0]) / set_.h[0]), dtype=float)
    scale = 0.5 * float(kx @ np.abs(sample.y[:, None] - sample.y[None, :]) @ kx)
    assert abs(b_fast - b_naive) <= 1e-10 * max(scale, 1e-300)
    # constant y on tied x: every y - y_lo is +0, so b is exactly 0
    flat = Sample(x=sample.x, y=np.full(sample.n, sample.y[0]))
    assert _b(flat, set_) == 0.0


@st.composite
def _tied_zcell_config(draw):
    # x on a grid of at most 6 values, lattice y, z-cells in 1 or 2 dimensions
    grid = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True))
    n = draw(st.integers(2, 40))
    x = 0.25 * np.array(draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(-256, 256), min_size=n, max_size=n))) / 64.0
    d = draw(st.sampled_from([1, 2]))
    z = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d)))
    sample = Sample(x=x, y=y, z=z.reshape(n, d))
    scales = draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(x.tolist()), st.floats(-2.5, 2.5)),
                st.sampled_from([0.1, 0.3, 0.6, 1.1, 5.0]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    k = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    kern = draw(st.sampled_from([EPANECHNIKOV, UNIFORM]))
    locations, bandwidths = zip(*scales)
    locs = draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * d), min_size=1, max_size=3))
    bws = draw(st.lists(st.sampled_from([0.2, 0.5, 2.0]), min_size=1, max_size=2, unique=True))
    set_ = build_z_local_set(ScaleSet(locations, bandwidths, k, kern), z_locs=locs, z_bws=bws)
    return sample, set_


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tied_zcell_config(), st.sampled_from([1, 3, 64]))
def test_tied_z_cells_match_naive(config, block):
    # every window is made of tie runs and every scale has a z-factor, so
    # each column of the engine sums several observations' factors
    sample, set_ = config
    with mock.patch.object(statistic, "FIELD_BLOCK", block):
        b = _check_field_against_naive(sample, set_)[1]
        # constant y: every y - y_first and y_first - y_lo is +0, so b is +0
        flat = Sample(x=sample.x, y=np.full(sample.n, sample.y[0]), z=sample.z)
        assert not dense_w(flat, set_)[1].any()
        # a dyadic shift of lattice y keeps both differences exact
        for c in (1.0, -17.25, 1024.0):
            shifted = Sample(x=sample.x, y=sample.y + c, z=sample.z)
            assert dense_w(shifted, set_)[1].tobytes() == b.tobytes()


def test_single_tie_run_window_is_exactly_zero():
    # every pair in the window is tied, so no pair has a nonzero sign
    sample = Sample(x=[0.0, 0.0], y=[0.0, 1.5])
    for k in (0.0, 0.5, 1.0):
        W, b = dense_w(sample, ScaleSet([0.0], [0.5], k))
        assert b[0] == 0.0
        np.testing.assert_array_equal(W[0], [0.0, 0.0])


def test_window_follows_the_kernel_argument():
    # fl(1e8 + 0.1) is the window's upper end fl(x + h), yet its kernel
    # argument (1e8 + 0.1 - x) / h rounds to 0.99999994, inside the support
    sample = Sample(x=[1e8, 1e8 + 0.1], y=[1.0, 0.0])
    set_ = ScaleSet([1e8], [0.1], kernel=UNIFORM)
    W, b = dense_w(sample, set_)
    np.testing.assert_array_equal(W[0], [1.0, -1.0])
    assert b[0] == 1.0
    np.testing.assert_array_equal(naive_w_b(sample, set_, 0)[0], [1.0, -1.0])


def test_weight_panels_stay_c_ordered_on_ties():
    # the engine's run panel W must keep one memory layout, or the block's
    # draw product takes another BLAS path
    rng = np.random.default_rng(9)
    x = np.round(rng.uniform(0.0, 1.0, 60), 1)
    sample = Sample(x=x, y=rng.normal(size=x.size), z=rng.uniform(0, 1, (x.size, 1)))
    order = statistic._sort_order(sample)
    for k in (0.0, 0.5, 1.0):
        set_ = build_basic_set(x, k=k)
        for s in (set_, build_z_local_set(set_, z_locs=[(0.5,)], z_bws=[0.4])):
            blocks, _, _, step = statistic._field_engine(sample, s, order, np.ones(x.size))
            for rows in blocks:
                assert step(rows)[0].flags.c_contiguous, (k, rows[0])


@st.composite
def _field_config(draw, ks=(0.0, 0.5, 1.0), offset=0.0, mixed=False):
    # x and the scale locations sit around `offset`
    n = draw(st.integers(2, 30))
    if mixed:
        # tied x on a grid at or below 0 next to free x above it, so a block
        # can hold windows with tie runs and windows without
        grid = draw(st.lists(st.integers(-6, 0), min_size=1, max_size=4, unique=True))
        n_tied = draw(st.integers(1, n))
        x = 0.25 * np.array(draw(st.lists(st.sampled_from(grid), min_size=n_tied, max_size=n_tied)))
        free = draw(st.lists(st.floats(0.01, 2.0), min_size=n - n_tied, max_size=n - n_tied))
        x = draw(st.permutations(np.concatenate((x, free)).tolist()))
        x = np.array(x)
    elif draw(st.booleans()):
        # heavy ties: at most 5 distinct x
        grid = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True))
        x = 0.25 * np.array(draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n)))
    else:
        x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    x = x + offset
    y = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    d = draw(st.sampled_from([0, 1, 2]))
    z = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d)))
    sample = Sample(x=x, y=y, z=z.reshape(n, d) if d else None)
    # h down to 0.01 leaves windows with one point, or none
    scales = draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(x.tolist()), st.floats(-2.5, 2.5).map(offset.__add__)),
                st.sampled_from([0.01, 0.1, 0.3, 0.8, 3.0]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    k = draw(st.sampled_from(ks))
    kern = draw(st.sampled_from([EPANECHNIKOV, UNIFORM]))
    locations, bandwidths = zip(*scales)
    set_ = ScaleSet(locations, bandwidths, k, kern)
    if d:
        locs = draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * d), min_size=1, max_size=2))
        set_ = build_z_local_set(set_, z_locs=locs, z_bws=[draw(st.sampled_from([0.3, 2.0]))])
    return sample, set_


def _inactive_rows_are_minus_inf(draws, field):
    """Whether every row of dense draws off ``active_ids`` is -inf."""
    off = np.ones(draws.shape[0], dtype=bool)
    off[field.active_ids] = False
    return bool(np.all(draws[off] == -np.inf))


def _check_draws(field, dense):
    """The field's draw rows and maxima against the dense draws, bit for bit."""
    draws, ids = field.draws, field.active_ids
    np.testing.assert_array_equal(draw_rows(draws, ids), dense[ids])
    np.testing.assert_array_equal(draws.maxima(ids), dense.max(axis=0))
    ids = ids[::2]
    np.testing.assert_array_equal(draws.maxima(ids), dense[ids].max(axis=0))


def _check_field_against_naive(sample, set_):
    """The engine's w and b on every scale against the double sums; returns them.

    Then a unit-sigma field: its draws for e = I_n are, on the active
    scales, the dense rows w / sqrt(V), each entry (W_r / sqrt(V)) * zf_i
    (the run sums of zf * e are single products zf_i * 1.0), so they equal
    the engine rows scaled before expansion bit for bit; the other rows are -inf.
    The field's draws read back every one of those rows with the same bits.
    """
    W, b = dense_w(sample, set_)
    for r in range(set_.p):
        w_naive, b_naive, scale_w, scale_b = naive_w_b(sample, set_, r)
        np.testing.assert_allclose(W[r], w_naive, rtol=0, atol=1e-10 * scale_w)
        assert abs(b[r] - b_naive) <= 1e-10 * scale_b
    n = sample.n
    try:
        field = evaluate_field(sample, set_, np.ones(n), np.eye(n))
    except DegenerateVarianceError:
        # every V underflows or is zero; x ~ 1e-294 with k = 1 does it
        return W, b
    assert field.b.tobytes() == b.tobytes()
    np.testing.assert_allclose(field.v_hat, np.sum(W * W, axis=1), rtol=1e-13, atol=0)
    active = field.active_ids
    root_v = np.sqrt(field.v_hat[active])
    dense = dense_draws(sample, set_, np.ones(n), np.eye(n))
    scale = np.zeros(set_.p)
    scale[active] = 1.0 / root_v
    np.testing.assert_array_equal(dense[active], dense_w(sample, set_, scale)[0][active])
    assert _inactive_rows_are_minus_inf(dense, field)
    _check_draws(field, dense)
    assert field.A_n == np.max(np.abs(W[active]).max(axis=1) / root_v)
    return W, b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_field_config(ks=(0.0, 0.5, 1.0, 2.0), offset=1e8))
def test_field_far_from_origin_and_constant_y(config):
    # x near 1e8 keeps about 8 significant digits below the offset
    sample, set_ = config
    _check_field_against_naive(sample, set_)
    # each window is the brute-force run of points with |u| < 1 for the
    # kernel's own u, which can disagree with x against s.x +- h here
    xs = np.sort(sample.x)
    lo, hi = statistic._window_bounds(xs, set_.x, set_.h, set_.kernel.support_radius)
    for r in range(set_.p):
        inside = np.flatnonzero(np.abs((xs - set_.x[r]) / set_.h[r]) < 1.0)
        want = (inside[0], inside[-1] + 1) if inside.size else (lo[r], lo[r])
        assert (lo[r], hi[r]) == want
    # every k: constant y has y - y_lo = +0 throughout, so b is exactly 0
    for y0 in (0.0, sample.y[0], -3.7e5):
        flat = Sample(x=sample.x, y=np.full(sample.n, y0), z=sample.z)
        assert not dense_w(flat, set_)[1].any()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_config(), st.sampled_from([1, 2, 5]))
def test_field_engine_matches_naive(config, block):
    # a tiny block puts block boundaries inside every set
    sample, set_ = config
    with mock.patch.object(statistic, "FIELD_BLOCK", block):
        _check_field_against_naive(sample, set_)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_config(), st.sampled_from([1, 2, 5]), st.integers(0, 2**32 - 1))
def test_draws_match_naive_rows(config, block, seed):
    # zero sigma on some points leaves live windows with V = 0, so small
    # blocks mix active and inactive scales, and some have no active scale
    sample, set_ = config
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.5, 2.0, sample.n) * rng.choice([-1.0, 0.0, 1.0], sample.n)
    e = rng.normal(size=(sample.n, 3))
    with mock.patch.object(statistic, "FIELD_BLOCK", block):
        try:
            field = evaluate_field(sample, set_, sig, e)
        except DegenerateVarianceError:
            return
        got = dense_draws(sample, set_, sig, e)
    assert got.shape == (set_.p, 3)
    assert _inactive_rows_are_minus_inf(got, field)
    _check_draws(field, got)
    for r in field.active_ids:
        w = naive_w_b(sample, set_, r)[0]
        a = w / np.sqrt(np.sum(sig * sig * w * w))
        # relative to the summed absolute terms of the product
        assert np.all(np.abs(got[r] - a @ e) <= 1e-12 * (np.abs(a) @ np.abs(e)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _field_config(ks=(0.0, 0.5, 1.0, 2.0), mixed=True),
    st.sampled_from([1, 2, 5, 128]),
    st.integers(0, 2**32 - 1),
)
def test_draws_on_spans_mixing_ties_match_naive(config, block, seed):
    # a block's span holds tie runs in some windows and none in others, for
    # every k; zero sigma on some points gives live scales with V = 0, so
    # blocks mix active and inactive rows, and some have no active row
    sample, set_ = config
    n = sample.n
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 0.0, 1.0], n)
    e = rng.normal(size=(n, 3))
    with mock.patch.object(statistic, "FIELD_BLOCK", block):
        try:
            field = evaluate_field(sample, set_, sig, e)
        except DegenerateVarianceError:
            return
        draws = dense_draws(sample, set_, sig, e)
    sig2 = sig * sig
    active = np.zeros(set_.p, dtype=bool)
    active[field.active_ids] = True
    assert _inactive_rows_are_minus_inf(draws, field)
    _check_draws(field, draws)
    for r in range(set_.p):
        w, b, scale_w, scale_b = naive_w_b(sample, set_, r)
        assert abs(field.b[r] - b) <= 1e-10 * scale_b
        tol = 1e-10 * scale_w
        v = float(sig2 @ (w * w))
        assert abs(field.v_hat[r] - v) <= tol * (sig2 @ (2 * np.abs(w) + tol)) + 1e-12 * v
        assert active[r] == (field.v_hat[r] > 1e-12 * field.v_hat.max())
        if active[r]:
            # w to the kernel-mass tolerance, then the product's own rounding
            root_v = np.sqrt(field.v_hat[r])
            a = w / root_v
            bound = tol / root_v * np.abs(e).sum(axis=0)
            assert np.all(np.abs(draws[r] - a @ e) <= bound + 1e-12 * (np.abs(a) @ np.abs(e)))


def test_draws_skip_inactive_scales_within_and_across_blocks():
    # sigma is zero above x = 0.83, so windows there have two or more
    # distinct points but V = 0; an empty window is in no block at all,
    # so blocks of 2 are [active, inactive], [inactive, inactive], [active, active]
    x = np.linspace(0.0, 1.0, 41)
    rng = np.random.default_rng(3)
    sample = Sample(x=x, y=rng.normal(size=41))
    sig = np.where(x > 0.83, 0.0, 1.0)
    set_ = ScaleSet(
        [0.5, 0.9, 9.0, 0.88, 0.95, 0.3, 0.7], [0.4, 0.05, 0.1, 0.04, 0.04, 0.3, 0.3]
    )
    e = rng.normal(size=(41, 4))
    with mock.patch.object(statistic, "FIELD_BLOCK", 2):
        blocks = [rows.tolist() for rows, *_ in field_blocks(sample, set_, np.arange(41))]
        field = evaluate_field(sample, set_, sig, e)
        draws = dense_draws(sample, set_, sig, e)
        dense = dense_draws(sample, set_, sig, np.eye(41))
    assert blocks == [[0, 1], [3, 4], [5, 6]]
    np.testing.assert_array_equal(field.active_ids, [0, 5, 6])
    assert field.b[[1, 3, 4]].all()  # live windows, not empty ones
    for r in field.active_ids:
        w = naive_w_b(sample, set_, r)[0]
        a = w / np.sqrt(field.v_hat[r])
        np.testing.assert_allclose(dense[r], a, rtol=0, atol=1e-13 * np.abs(a).max())
    ids = field.active_ids
    np.testing.assert_allclose(draws[ids], dense[ids] @ e, rtol=1e-13, atol=1e-15)
    assert _inactive_rows_are_minus_inf(draws, field)
    _check_draws(field, draws)


def test_whole_blocks_answer_from_their_maxima():
    # a budget of three rows of 40 draws holds no draw of the pass: the
    # active set less its last scale holds every block whole but the last,
    # so only that one may be rebuilt
    rng = np.random.default_rng(14)
    x = rng.uniform(-1.0, 1.0, 100)
    sample = Sample(x=x, y=x + 0.3 * rng.standard_normal(100))
    set_ = build_basic_set(x)
    sig = np.ones(100)
    e = rng.standard_normal((100, 40))
    with mock.patch.object(statistic, "KEEP_BYTES", 3 * 8 * 40):
        field = evaluate_field(sample, set_, sig, e)
        assert set_.p * 40 * 8 > statistic.KEEP_BYTES and set_.p > 4 * statistic.FIELD_BLOCK
    dense = dense_draws(sample, set_, sig, e)
    draws = field.draws
    # no scale with 0 < V <= tau, which would keep its block from being whole
    np.testing.assert_array_equal(np.flatnonzero(field.v_hat > 0.0), field.active_ids)
    ids = field.active_ids
    np.testing.assert_array_equal(draws.maxima(ids), dense.max(axis=0))
    assert draws.rebuilt == 0
    np.testing.assert_array_equal(draws.maxima(ids[:-1]), dense[ids[:-1]].max(axis=0))
    assert draws.rebuilt <= 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(20, 70),
    st.sampled_from([1, 2]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_field_block_size_changes_no_bits(n, digits, k, zcell, seed):
    # up to ~700 scales: several blocks of 128 and of the default size, and
    # one scale per block; V sums each window alone, so it keeps its bits
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-1, 1, n), digits)
    sample = Sample(x=x, y=rng.normal(size=n), z=rng.uniform(0, 1, (n, 1)))
    set_ = build_basic_set(sample.x, k=k)
    if zcell:
        set_ = build_z_local_set(set_, z_locs=[(0.3,), (0.7,)], z_bws=[0.5])
    sig = rng.uniform(0.5, 2.0, n)
    e = rng.normal(size=(n, 5))
    fields = []
    for block in (1, 128, statistic.FIELD_BLOCK):
        with mock.patch.object(statistic, "FIELD_BLOCK", block):
            f = evaluate_field(sample, set_, sig, e)
            draws = dense_draws(sample, set_, sig, e)
            _check_draws(f, draws)
            dense = dense_draws(sample, set_, sig, np.eye(n))
            fields.append((dense_w(sample, set_), dense, f, draws))
    arrays, dense, f, draws = fields[-1]
    ids = f.active_ids
    A = dense[ids]
    scale = np.abs(A) @ np.abs(e)
    np.testing.assert_allclose(draws[ids], A @ e, rtol=0, atol=1e-13 * scale.max())
    assert _inactive_rows_are_minus_inf(draws, f) and _inactive_rows_are_minus_inf(dense, f)
    for other_arrays, other_dense, other, other_draws in fields[:-1]:
        for a_other, a in zip(other_arrays, arrays):
            assert a_other.tobytes() == a.tobytes()
        # with e = I every draw is one row entry times 1.0 plus exact zeros
        np.testing.assert_array_equal(other_dense, dense)
        for name in ("b", "v_hat", "t", "active_ids"):
            assert getattr(other, name).tobytes() == getattr(f, name).tobytes(), name
        assert (other.T, other.A_n) == (f.T, f.A_n)
        # the draws' matrix products differ by panel shape, so only in rounding
        assert np.all(np.abs(other_draws[ids] - draws[ids]) <= 1e-13 * scale)
        assert _inactive_rows_are_minus_inf(other_draws, other)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(20, 70),
    st.sampled_from([None, 1, 2]),
    st.sampled_from([0.5, 1.7, 2.0]),
    st.booleans(),
    st.sampled_from([1, 5, 64]),
    st.integers(0, 2**32 - 1),
)
def test_pair_weights_keep_the_bits_of_each_window_alone(n, digits, k, zcell, block, seed):
    # a general k reads each window's square of the block's pair matrix, so
    # every window's W has the bits of a double loop over that window alone,
    # whatever the block and its span; W is +0 outside the window
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    if digits is not None:
        x = np.round(x, digits)
    sample = Sample(x=x, y=rng.normal(size=n), z=rng.uniform(0, 1, (n, 1)))
    set_ = build_basic_set(sample.x, k=k)
    if zcell:
        set_ = build_z_local_set(set_, z_locs=[(0.3,), (0.7,)], z_bws=[0.5])
    order = statistic._sort_order(sample)
    xs = sample.x[order]
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    xr = xs[first]
    with mock.patch.object(statistic, "FIELD_BLOCK", block):
        blocks = list(run_blocks(sample, set_, order))
    assert sum(rows.size for rows, *_ in blocks) > 0
    zs = sample.z[order]
    for rows, lo, hi, W, _ in blocks:
        zf = np.ones(n) if set_.z_loc is None else statistic._z_factor(set_, zs, rows[0])
        Z = np.add.reduceat(zf, first)
        a = lo.min()
        for r, l, h, row in zip(rows, lo, hi, W):
            kw = set_.kernel((xr[l:h] - set_.x[r]) / set_.h[r])
            want = np.zeros(row.size)
            want[l - a : h - a] = window_weights(xr[l:h], kw, kw * Z[l:h], k)
            assert row.tobytes() == want.tobytes(), (r, l, h)


def test_peak_memory_is_four_block_panels_plus_the_draws():
    # On this tie-free k = 0 set the engine holds four (block x span)
    # workspaces of at most FIELD_BLOCK * (n + 1) * 8 bytes, which every
    # block's panels reuse: the kernel panel g, its running sums and w (b's
    # (y - y_lo) * w panel takes g's once g is spent).  Beside them there
    # are about twenty p-vectors (scale arrays, window bounds, b, V, max|w|,
    # t and masks) and a few n-vectors.  A test run adds two B-vectors of
    # maxima per block (folded, and kept for the rows a rung reads), the
    # block of each scale, a few n-vectors, and a single n x B multiplier
    # panel, the sorted one: the bootstrap hands the multipliers over in
    # chunks, so beside it there is one chunk or a block's draws, never a
    # second panel.  B is large enough that p rows of draws would be several
    # times that, so the pass holds no draw.
    rng = np.random.default_rng(71)
    n, B = 2000, 500
    sample = Sample(x=rng.uniform(-1, 1, n), y=rng.normal(size=n))
    set_ = build_basic_set(sample.x)
    sig = estimate_sigma(sample, "rice")
    peaks = {}
    for name, run in (
        ("field", lambda: evaluate_field(sample, set_, sig)),
        ("test", lambda: run_report(sample, sig, set_, BootConfig(B=B))),
    ):
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (_, panel), (name, block), (_, multipliers) = statistic.field_allocations(sample, set_, B)
    field_bound = 4 * panel + 24 * set_.p * 8 + 16 * n * 8
    assert panel == statistic.FIELD_BLOCK * (n + 1) * 8
    assert peaks["field"] < field_bound, (peaks, field_bound)
    assert name == f"each {statistic.FIELD_BLOCK} x {B} block of draws"
    chunk = max(statistic.CHUNK_ROWS * B * 8, block)
    assert multipliers == n * B * 8
    maxima = 2 * _block_count(sample, set_) * B * 8
    boot_bound = multipliers + chunk + maxima + set_.p * 8 + 4 * n * 8
    assert set_.p * B * 8 > 4 * statistic.KEEP_BYTES
    assert peaks["test"] - peaks["field"] < boot_bound, (peaks, boot_bound)
    assert evaluate_field(sample, set_, sig).active_ids.size > 0.9 * set_.p


def test_the_ladder_peaks_below_the_field_pass():
    # the shape above with y rising in x, so that the one-step set cuts
    # blocks and the ladder rebuilds them.  The pass's four workspaces,
    # sized for its widest block, go when the pass ends; a rebuild forms its
    # panels in workspaces of its own block's size and keeps only the
    # per-draw maximum over its rows in the rung's ids.  So the field leaves
    # less than the pass's peak less those workspaces, and the ladder's
    # traced peak stays below the pass's
    rng = np.random.default_rng(71)
    n, B = 2000, 500
    x = rng.uniform(-1, 1, n)
    sample = Sample(x=x, y=x + rng.normal(size=n))
    set_ = build_basic_set(sample.x)
    sig = estimate_sigma(sample, "rice")
    traced = []
    field = bootstrap.evaluate_field

    def pass_then_reset(*args):
        out = field(*args)
        traced.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return out

    tracemalloc.start()
    try:
        with mock.patch.object(bootstrap, "evaluate_field", pass_then_reset):
            run = bootstrap_run(sample, sig, set_, BootConfig(B=B))
        traced.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    (left, pass_peak), (_, ladder_peak) = traced
    panel = statistic.field_allocations(sample, set_)[0][1]
    assert run.field.draws.rebuilt > 0 and run.rung("os").ids.size < set_.p
    assert left + 4 * panel < pass_peak, (traced, panel)
    assert ladder_peak < pass_peak, traced


def _block_count(sample, set_):
    """The number of blocks the engine makes of a set's live scales."""
    order = statistic._sort_order(sample)
    return len(statistic._field_engine(sample, set_, order, np.ones(sample.n))[0])


def _bandwidths_of_blocks(sample, set_):
    """Each block's distinct bandwidths and z-cells, in the engine's block order."""
    order = statistic._sort_order(sample)
    blocks = statistic._field_engine(sample, set_, order, np.ones(sample.n))[0]
    cells = np.zeros(set_.p) if set_.z_loc is None else statistic._cells(set_)[1]
    return [(np.unique(set_.h[rows]).size, np.unique(cells[rows]).size) for rows in blocks]


def test_no_block_mixes_bandwidths_or_cells():
    # 300 locations give every bandwidth more than FIELD_BLOCK live scales:
    # the basic set, an --h-set list and a z-local set each hold one
    # bandwidth and one cell per block, where FIELD_BLOCK ids in a row would
    # put a bandwidth's widest windows beside the next one's first
    rng = np.random.default_rng(17)
    n = 300
    x = rng.uniform(-1, 1, n)
    sample = Sample(x=x, y=rng.normal(size=n), z=rng.uniform(0, 1, (n, 1)))
    basic = build_basic_set(x)
    for set_ in (
        basic,
        build_custom_set(np.unique(x), [0.9, 0.5, 0.3, 0.2]),
        build_z_local_set(basic, [(1 / 6,), (0.5,), (5 / 6,)], [1 / 3]),
    ):
        layout = _bandwidths_of_blocks(sample, set_)
        assert layout and all(mix == (1, 1) for mix in layout), set_.p
        assert set_.p % statistic.FIELD_BLOCK  # FIELD_BLOCK ids in a row would mix


def test_few_locations_keep_the_block_count():
    # 2 locations x 200 bandwidths: each bandwidth has two live scales, so
    # they share blocks as before, FIELD_BLOCK live scales to a block
    rng = np.random.default_rng(19)
    x = rng.uniform(-1, 1, 400)
    sample = Sample(x=x, y=rng.normal(size=400))
    set_ = build_custom_set([-0.2, 0.3], np.geomspace(0.5, 1.5, 200))
    order = statistic._sort_order(sample)
    blocks = statistic._field_engine(sample, set_, order, np.ones(sample.n))[0]
    live = sum(rows.size for rows in blocks)
    assert live == set_.p == 400
    assert len(blocks) == -(-live // statistic.FIELD_BLOCK) == 7


def test_peak_memory_of_a_large_tie_free_test_holds_one_multiplier_panel():
    # n = 20,000 without ties: the field holds the sorted n x B multipliers
    # (32 MB), written chunk by chunk, and never a second n x B array; the
    # narrow windows keep the four workspaces small.  A bootstrap that
    # made the n x B panel before the field sorted it would hold 2 n B 8.
    rng = np.random.default_rng(83)
    n, B = 20_000, 200
    sample = Sample(x=rng.uniform(-1, 1, n), y=rng.normal(size=n))
    set_ = build_custom_set(np.linspace(-0.05, 0.05, 40), [0.01, 0.02])
    order = statistic._sort_order(sample)
    panel = max(W.shape[0] * (W.shape[1] + 1) for *_, W, _ in run_blocks(sample, set_, order)) * 8
    held = statistic.field_allocations(sample, set_, B)[1][1]
    tracemalloc.start()
    try:
        run_report(sample, np.ones(n), set_, BootConfig(B=B))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 1.25 * n * B * 8 + held + 4 * panel
    assert 2 * n * B * 8 > bound
    assert peak < bound, (peak, bound)


def test_peak_memory_of_a_general_k_field_adds_one_pair_matrix():
    # A k other than 0 and 1 adds one block's (span x span) pair matrix to
    # the four panels of k = 0: it is formed in place, beside a mask of
    # span * span bools, and each window only reads its square of it.
    # Forming sign * |dx|^k window by window would take several
    # window-sized temporaries at once, above three (n + 1)^2 * 8 bytes on
    # the widest.
    rng = np.random.default_rng(71)
    n = 600
    sample = Sample(x=rng.uniform(-1, 1, n), y=rng.normal(size=n))
    sig = estimate_sigma(sample, "rice")
    for k in (0.5, 1.7):
        set_ = build_basic_set(sample.x, k=k)
        tracemalloc.start()
        try:
            evaluate_field(sample, set_, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (_, panel), (_, pair) = statistic.field_allocations(sample, set_)
        assert pair == (n + 1) ** 2 * 8
        bound = 4 * panel + 24 * set_.p * 8 + 16 * n * 8 + 1.25 * pair
        assert peak < bound, (k, peak, bound)


def _tied_zcell_case(n=2000, seed=73):
    # x on a 0.01 grid (201 distinct values) and three z-cells, as in the
    # benchmark's z-cell workload
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-1, 1, n), 2) + 0.0
    sample = Sample(x=x, y=rng.normal(size=n), z=rng.uniform(0, 1, (n, 1)))
    set_ = build_z_local_set(build_basic_set(x), [(1 / 6,), (0.5,), (5 / 6,)], [1 / 3])
    return sample, set_, rng.uniform(0.5, 2.0, n)


def test_tied_panels_have_a_column_per_run_and_one_cell_per_block():
    sample, set_, _ = _tied_zcell_case(n=600)
    runs = np.unique(sample.x).size
    order = statistic._sort_order(sample)
    seen = set()
    for s in (build_basic_set(sample.x), set_):
        for rows, lo, hi, w, b in run_blocks(sample, s, order):
            assert w.shape == (rows.size, hi.max() - lo.min()) and w.shape[1] <= runs
            if s.z_loc is not None:
                cell = np.column_stack((s.z_loc[rows], s.z_bw[rows]))
                assert (cell == cell[0]).all()
                seen.add(tuple(cell[0]))
    assert len(seen) == 3


def _draw_memory(sample, set_, sig, B):
    """Traced peaks of the field alone and with B draws of a panel made before tracing starts."""
    e = np.random.default_rng(5).standard_normal((sample.n, B))
    peaks = {}
    for name, run in (
        ("field", lambda: evaluate_field(sample, set_, sig)),
        ("draws", lambda: evaluate_field(sample, set_, sig, e)),
    ):
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def _held_draws_bound(sample, set_, B, cells):
    """What draws add on tied x or z-cells: the held run sums and no n x B term.

    Beside every cell's run sums E (c x runs x B) the field holds the
    draws of its pass when all p rows fit in KEEP_BYTES, else one block's
    draws (FIELD_BLOCK x B), whichever ``field_allocations`` names; two
    B-vectors of maxima per block (folded, and kept for the rows a call
    reads), the block of each scale and a few n-vectors.  It adds e into E
    a chunk of rows at a time, through three (rows x B) buffers, so no
    temporary of that grows with n.
    """
    (_, panel), (_, draws), (name, run_sums) = statistic.field_allocations(sample, set_, B)
    runs, block = np.unique(sample.x).size, statistic.FIELD_BLOCK
    assert name == f"the {cells} x {runs} x {B} run sums"
    assert run_sums == cells * runs * B * 8 and cells * runs <= sample.n
    sums = 3 * min(statistic.CHUNK_ROWS, runs) * B * 8
    maxima = 2 * _block_count(sample, set_) * B * 8
    return run_sums + draws + sums + maxima + set_.p * 8 + 4 * sample.n * 8


def test_peak_memory_of_a_tied_z_cell_field_counts_runs():
    # The panels of a tied z-cell field are (block x span) over tie runs:
    # four of them hold at most FIELD_BLOCK * (runs + 1) * 8 bytes each.
    # Panels over observations, ten times wider here, do not fit.  With
    # draws, c * runs <= n, so the field holds every cell's run sums of e
    # and no n x B panel: a sorted copy of e (7.6 MiB here) would break the
    # bound, which is 3.8 MiB against the 10.4 MiB such a copy brings.
    sample, set_, sig = _tied_zcell_case()
    n, B = sample.n, 500
    runs = np.unique(sample.x).size
    peaks = _draw_memory(sample, set_, sig, B)
    panel = statistic.field_allocations(sample, set_)[0][1]
    field_bound = 4 * panel + 24 * set_.p * 8 + 16 * n * 8
    assert panel == statistic.FIELD_BLOCK * (runs + 1) * 8
    assert 4 * statistic.FIELD_BLOCK * (n + 1) * 8 > 2 * field_bound
    assert peaks["field"] < field_bound, (peaks, field_bound)
    draws_bound = _held_draws_bound(sample, set_, B, cells=3)
    assert draws_bound < n * B * 8
    assert peaks["draws"] - peaks["field"] < draws_bound, (peaks, draws_bound)


def test_peak_memory_of_a_tied_x_field_holds_its_run_sums():
    # tied x without z-cells is one cell: the field holds the runs x B run
    # sums of e (0.8 MiB here) and no n x B panel (7.6 MiB), so the draws
    # stay under 5.6 MiB where a sorted copy of e brings 12.3 MiB
    sample, set_, sig = _tied_zcell_case()
    set_ = build_basic_set(sample.x)
    B = 500
    peaks = _draw_memory(sample, set_, sig, B)
    draws_bound = _held_draws_bound(sample, set_, B, cells=1)
    assert draws_bound < sample.n * B * 8
    assert peaks["draws"] - peaks["field"] < draws_bound, (peaks, draws_bound)


def test_peak_memory_of_a_z_cell_field_on_few_ties_holds_e_itself():
    # x on a 1,000-point grid (846 runs here) and three z-cells: c * runs > n,
    # so the field forms one cell's run sums at a time from e's rows in
    # sorted order and holds e itself.  Beside one cell's E and one block's
    # draws the draws add what _held_draws_bound counts, and no n x B term:
    # a sorted copy of e (7.6 MiB) brings 12.7 MiB against the 7.8 MiB bound
    rng = np.random.default_rng(79)
    n, B = 2000, 500
    x = rng.integers(-500, 500, n) / 500.0
    sample = Sample(x=x, y=rng.normal(size=n), z=rng.uniform(0, 1, (n, 1)))
    set_ = build_z_local_set(build_basic_set(x), [(1 / 6,), (0.5,), (5 / 6,)], [1 / 3])
    peaks = _draw_memory(sample, set_, rng.uniform(0.5, 2.0, n), B)
    _, (what, draws), (name, one_cell), _ = statistic.field_allocations(sample, set_, B)
    runs, block = np.unique(x).size, statistic.FIELD_BLOCK
    assert name == f"the {runs} x {B} run sums of one cell" and 3 * runs > n
    assert what == f"each {block} x {B} block of draws"
    sums = 3 * statistic.CHUNK_ROWS * B * 8
    maxima = 2 * _block_count(sample, set_) * B * 8
    draws_bound = one_cell + draws + sums + maxima + 2 * n * block * 8
    assert draws_bound < one_cell + draws + n * B * 8
    assert peaks["draws"] - peaks["field"] < draws_bound, (peaks, draws_bound)


@st.composite
def _held_choice_config(draw):
    # x on a grid of m values, c z-cells in 0 to 2 dimensions (0: one cell),
    # and n on either side of c * m: n = m leaves x free of ties
    d = draw(st.sampled_from([0, 1, 2]))
    grid = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=6, unique=True))
    m = len(grid)
    c = 1
    if d:
        point = st.tuples(*[st.floats(0.0, 1.0)] * d)
        locs = draw(st.lists(point, min_size=1, max_size=3, unique=True))
        bws = draw(st.lists(st.sampled_from([0.3, 0.6, 2.0]), min_size=1, max_size=2, unique=True))
        c = len(locs) * len(bws)
    held = c == 1 or draw(st.booleans())
    n = draw(st.integers(c * m, c * m + 10) if held else st.integers(m, c * m - 1))
    x = grid + draw(st.lists(st.sampled_from(grid), min_size=n - m, max_size=n - m))
    x = 0.25 * np.array(draw(st.permutations(x)), dtype=float)
    y = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d)))
    sample = Sample(x=x, y=y, z=z.reshape(n, d) if d else None)
    set_ = build_basic_set(x, k=draw(st.sampled_from([0.0, 0.5, 1.0])))
    if d:
        set_ = build_z_local_set(set_, z_locs=locs, z_bws=bws)
    return sample, set_, held


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_held_choice_config(), st.sampled_from([2, 64]), st.integers(0, 2**32 - 1))
def test_held_run_sums_and_sorted_panel_give_the_same_bits(config, block, seed):
    # c * m <= n holds every cell's run sums, c * m > n the sorted panel and
    # one cell's at a time; either way b, V, t and every rung's maxima have
    # the bits of the draw-free field and of the dense draws.  A budget of two
    # rows makes the ladder rebuild blocks, which alternate between cells
    sample, set_, held = config
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.5, 2.0, sample.n)
    cfg = BootConfig(B=20, seed=seed)
    names = [name for name, _ in statistic.field_allocations(sample, set_, cfg.B)]
    assert any("multiplier panel" in name for name in names) == (
        not held or (sample.z is None and np.unique(sample.x).size == sample.n)
    )
    with mock.patch.object(statistic, "FIELD_BLOCK", block):
        with mock.patch.object(statistic, "KEEP_BYTES", 2 * 8 * cfg.B):
            try:
                run = bootstrap_run(sample, sig, set_, cfg)
            except DegenerateVarianceError:
                return
        plain = evaluate_field(sample, set_, sig)
        dense = run_draws(sample, set_, sig, cfg)
    for name in ("b", "v_hat", "t", "active_ids"):
        assert getattr(run.field, name).tobytes() == getattr(plain, name).tobytes(), name
    for rung in run.ladder:
        assert rung.maxima.tobytes() == dense[rung.ids].max(axis=0).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _field_config(),
    st.sampled_from([2, 64]),
    st.booleans(),
    st.lists(st.integers(0, 30), max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_a_stream_of_row_chunks_gives_the_bits_of_one_array(config, block, singles, cuts, seed):
    # e as one array and as uneven chunks of rows (empty, 1-row, or all
    # 1-row) give the same b, V, t, draw rows and maxima on every held form:
    # the sorted e, every cell's run sums (c * m <= n) and e itself; a
    # budget of two rows makes the maxima rebuild blocks
    sample, set_ = config
    n = sample.n
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.5, 2.0, n)
    e = rng.normal(size=(n, 3))
    ends = range(n + 1) if singles else sorted({0, n, *(c for c in cuts if c <= n)})
    chunks = [e[a:b] for a, b in zip(ends, ends[1:])]
    fields = []
    with mock.patch.object(statistic, "FIELD_BLOCK", block), \
            mock.patch.object(statistic, "KEEP_BYTES", 2 * 8 * 3):
        for given_e in (e, iter(chunks)):
            try:
                fields.append(evaluate_field(sample, set_, sig, given_e))
            except DegenerateVarianceError:
                fields.append(None)
        one, streamed = fields
        if one is None:
            assert streamed is None
            return
        for name in ("b", "v_hat", "t", "active_ids"):
            assert getattr(one, name).tobytes() == getattr(streamed, name).tobytes(), name
        ids = one.active_ids
        assert draw_rows(one.draws, ids).tobytes() == draw_rows(streamed.draws, ids).tobytes()
        for some in (ids, ids[::2], ids[1:]):
            assert one.draws.maxima(some).tobytes() == streamed.draws.maxima(some).tobytes()


def test_a_stream_that_does_not_fill_n_rows_of_one_width_raises():
    rng = np.random.default_rng(17)
    sample = Sample(x=rng.uniform(-1, 1, 30), y=rng.normal(size=30))
    set_ = build_basic_set(sample.x)
    e = rng.normal(size=(30, 4))
    for chunks in (
        [],
        [e[:10], e[10:29]],
        [e, e[:1]],
        [e[:10], e[10:], np.zeros((1, 4))],
        [e[:10], e[10:, :3]],
        [e[:10], e[10:, 0]],
        [e[:0, :2], e],
    ):
        with pytest.raises(DataError):
            evaluate_field(sample, set_, np.ones(30), iter(chunks))
    field = evaluate_field(sample, set_, np.ones(30), iter([e[:0], e[:7], e[7:], e[30:]]))
    assert field.draws.maxima(field.active_ids).shape == (4,)


_BLAS_PROBE = """
import hashlib
import numpy as np
from monotest import Sample, build_basic_set, evaluate_field
h = hashlib.sha256()
rng = np.random.default_rng(5)
for _ in range(40):
    n = int(rng.integers(150, 450))
    sample = Sample(x=rng.uniform(-1, 1, n), y=rng.normal(size=n))
    field = evaluate_field(sample, build_basic_set(sample.x), rng.uniform(0.5, 2.0, n))
    h.update(field.b.tobytes())
    h.update(field.v_hat.tobytes())
    h.update(np.array([field.T, field.A_n]).tobytes())
print(h.hexdigest())
"""


def test_field_bits_do_not_depend_on_blas_threads():
    # BLAS rounds a product by how it splits rows among threads; b, V, T
    # and A_n use no BLAS product, so they keep their bits at any thread count
    src = str(Path(statistic.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_b_nonpositive_on_noiseless_monotone():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = np.sort(rng.uniform(-1, 1, 40))
        y = np.interp(x, [-1.0, 0.0, 1.0], [0.0, 0.25, 1.0])  # nondecreasing
        sample = Sample(x=x, y=y)
        c, h = rng.uniform(-1, 1), rng.uniform(0.2, 1.0)
        assert _b(sample, ScaleSet([c], [h])) <= 0.0


def test_location_shift_leaves_b_unchanged_exactly():
    # b sums (y - y_lo) * w over each window; on lattice y with a dyadic
    # shift both y + c and y - y_lo are exact, so b is bitwise stable (a
    # generic float shift perturbs y_i + c in the last ulp)
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 1, 50)
    y = rng.integers(-64, 65, size=50) / 64.0
    set_ = ScaleSet([0.4], [0.3])
    b0 = _b(Sample(x=x, y=y), set_)
    for c in (1.0, -17.25, 1024.0):
        assert _b(Sample(x=x, y=y + c), set_) == b0


def test_generic_shift_moves_b_at_roundoff_only():
    rng = np.random.default_rng(27)
    x = rng.uniform(0, 1, 50)
    y = rng.normal(size=50)
    set_ = ScaleSet([0.4], [0.3])
    b0 = _b(Sample(x=x, y=y), set_)
    b1 = _b(Sample(x=x, y=y + 1e6), set_)
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
    # residual-based sigma_i may be negative; only their squares enter V
    rng = np.random.default_rng(37)
    sample = Sample(x=rng.uniform(0, 1, 30), y=rng.normal(size=30))
    set_ = build_custom_set([0.3, 0.5, 0.7], [0.4, 0.2])
    sig = rng.uniform(0.5, 2.0, 30)
    signed = sig * rng.choice([-1.0, 1.0], 30)
    v = evaluate_field(sample, set_, sig).v_hat
    assert evaluate_field(sample, set_, signed).v_hat.tobytes() == v.tobytes()


def test_empty_window_scale_is_inactive():
    rng = np.random.default_rng(41)
    x = rng.uniform(0, 1, 30)
    sample = Sample(x=x, y=rng.normal(size=30))
    set_ = ScaleSet([0.5, 25.0], [0.4, 0.1])
    field = evaluate_field(sample, set_, np.ones(30))
    np.testing.assert_array_equal(field.active_ids, [0])
    assert np.isnan(field.t[1])
    assert field.v_hat[1] == 0.0
    assert np.isfinite(field.T)


def test_all_scales_degenerate_raises():
    sample = Sample(x=[0.0, 1.0, 2.0], y=[0.0, 1.0, 2.0])
    set_ = ScaleSet([50.0, -50.0], [0.1, 0.1])
    with pytest.raises(DegenerateVarianceError):
        evaluate_field(sample, set_, np.ones(3))


def test_apply_reproduces_t():
    rng = np.random.default_rng(43)
    x = rng.uniform(0, 1, 40)
    y = rng.normal(size=40)
    set_ = build_custom_set([0.3, 0.5, 0.7], [0.4, 0.2])
    field = evaluate_field(Sample(x=x, y=y), set_, np.ones(40), y)
    # the rows are w / sqrt(v): their draws for e = y recover the t values
    ids = field.active_ids
    rows = draw_rows(field.draws, ids)
    np.testing.assert_allclose(rows[:, 0], field.t[ids], rtol=0, atol=1e-10)


def test_sensitivity_matches_field():
    rng = np.random.default_rng(53)
    x = rng.uniform(0, 1, 50)
    sample = Sample(x=x, y=rng.normal(size=50))
    set_ = build_custom_set([0.25, 0.75], [0.5])
    field = evaluate_field(sample, set_, np.ones(50))
    # A_n is the largest |w_i(s)| / sqrt(V(s)) over the dense weights
    W = dense_w(sample, set_)[0]
    ids = field.active_ids
    a_n = np.max(np.abs(W[ids]).max(axis=1) / np.sqrt(field.v_hat[ids]))
    np.testing.assert_allclose(field.A_n, a_n, rtol=1e-14, atol=0)
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
    for r in range(set_.p):
        b_naive = naive_w_b(sample, set_, r)[1]
        np.testing.assert_allclose(field.b[r], b_naive, rtol=0, atol=1e-12)


def test_z_cell_validation():
    rng = np.random.default_rng(67)
    base = build_custom_set([0.5], [0.5])
    zset = build_z_local_set(base, z_locs=[(0.5,)], z_bws=[0.5])
    no_z = Sample(x=rng.uniform(0, 1, 10), y=rng.normal(size=10))
    with_z = Sample(x=no_z.x, y=no_z.y, z=rng.uniform(0, 1, (10, 2)))
    with pytest.raises(DataError):
        evaluate_field(no_z, zset, np.ones(10))
    with pytest.raises(DataError):
        evaluate_field(with_z, zset, np.ones(10))  # z_loc is 1-d, z is 2-d


def test_sample_validation():
    with pytest.raises(DataError):
        Sample(x=[1.0], y=[1.0])
    with pytest.raises(DataError):
        Sample(x=[1.0, 2.0], y=[1.0])
    with pytest.raises(DataError):
        Sample(x=[1.0, np.nan], y=[1.0, 2.0])
    with pytest.raises(DataError):
        Sample(x=[1.0, 2.0], y=[1.0, 2.0], z=np.ones((3, 1)))
    with pytest.raises(DataError, match="z contains non-finite values"):
        Sample(x=[1.0, 2.0], y=[1.0, 2.0], z=[[0.5], [np.inf]])


def test_sigma_length_mismatch():
    with pytest.raises(DataError):
        evaluate_field(TWO_POINT, MID_SCALE, [1.0, 1.0, 1.0])
    # a multiplier panel e with the wrong row count raises too
    with pytest.raises(DataError, match=r"e must have one row per observation \(2\)"):
        evaluate_field(TWO_POINT, MID_SCALE, [1.0, 1.0], np.ones((3, 4)))
