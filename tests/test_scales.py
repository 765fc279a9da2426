"""Kernels, pairwise weights, and scale-set constructors."""

import numpy as np
import pytest
from oracles import kernel_Q

from monotest import (
    DataError,
    ScaleSet,
    build_basic_set,
    build_custom_set,
    build_z_local_set,
    epanechnikov,
    uniform,
)
from monotest.scales import EPANECHNIKOV, KERNELS, UNIFORM


def test_epanechnikov_values():
    # 0.75 * (1 - t^2) inside the open unit interval, zero on and outside it
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(0.5) == 0.5625
    assert epanechnikov(-0.5) == 0.5625
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov(-1.0) == 0.0
    assert epanechnikov(3.7) == 0.0
    assert isinstance(epanechnikov(0.5), float)


def test_epanechnikov_vectorized():
    t = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    np.testing.assert_array_equal(epanechnikov(t), [0.0, 0.0, 0.75, 0.5625, 0.0, 0.0])


def test_kernels_keep_the_bits_of_their_where_forms():
    # the in-place Epanechnikov panel and the cast uniform indicator against
    # the np.where forms they replace, on the support edges and beyond
    one = np.array([1.0, -1.0])
    t = np.concatenate(
        [
            one,
            np.nextafter(one, 0.0),
            np.nextafter(one, 2.0 * one),
            [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan, 0.5, -0.3],
        ]
    )
    panel = np.stack([t, t[::-1]])
    before = panel.copy()
    with np.errstate(over="ignore"):  # t * t overflows at 1e300
        old_epa = np.where(np.abs(panel) < 1.0, 0.75 * (1.0 - panel * panel), 0.0)
        old_uni = np.where(np.abs(panel) < 1.0, 1.0, 0.0)
        assert epanechnikov(panel).tobytes() == old_epa.tobytes()
        assert uniform(panel).tobytes() == old_uni.tobytes()
        np.testing.assert_array_equal(panel, before)  # the caller's array is not written
        for v, e, u in zip(panel[0], old_epa[0], old_uni[0]):
            assert type(epanechnikov(v)) is float and type(uniform(v)) is float
            assert np.float64(epanechnikov(v)).tobytes() == e.tobytes()
            assert np.float64(uniform(v)).tobytes() == u.tobytes()


def test_uniform_values():
    assert uniform(0.0) == 1.0
    assert uniform(0.999) == 1.0
    assert uniform(1.0) == 0.0
    assert uniform(-1.5) == 0.0
    np.testing.assert_array_equal(uniform(np.array([0.2, -1.0])), [1.0, 0.0])


def test_kernel_registry():
    assert KERNELS["epanechnikov"] is EPANECHNIKOV
    assert KERNELS["uniform"] is UNIFORM
    assert EPANECHNIKOV.support_radius == 1.0
    assert EPANECHNIKOV(0.5) == 0.5625


def test_kernel_Q_worked_example():
    # K(-0.5) * K(0.5) = 0.5625^2
    assert kernel_Q(0.25, 0.75, 0.5, 0.5) == 0.31640625
    # the |x1 - x2|^k factor with |0.25 - 0.75| = 0.5
    assert kernel_Q(0.25, 0.75, 0.5, 0.5, k=1.0) == 0.158203125
    assert kernel_Q(0.25, 0.75, 0.5, 0.5, k=2.0) == 0.0791015625


def test_kernel_Q_zero_outside_window():
    assert kernel_Q(0.0, 0.5, 0.0, 0.1) == 0.0
    assert kernel_Q(-0.5, 0.05, 0.0, 0.1) == 0.0


def test_kernel_Q_coincident_points_k_zero():
    # 0^0 == 1 by convention, so k = 0 gives the plain kernel product
    assert kernel_Q(0.0, 0.0, 0.0, 1.0) == 0.75 * 0.75
    assert kernel_Q(0.0, 0.0, 0.0, 1.0, k=1.0) == 0.0


def test_kernel_Q_symmetric_and_nonnegative():
    rng = np.random.default_rng(8241)
    for _ in range(500):
        x1, x2, x = rng.uniform(-2, 2, size=3)
        h = rng.uniform(0.05, 2.0)
        k = rng.choice([0.0, 0.5, 1.0, 2.0])
        q = kernel_Q(x1, x2, x, h, k)
        assert q >= 0.0
        assert q == kernel_Q(x2, x1, x, h, k)


def test_scale_validation():
    # each column is checked once, whole; the message names the column
    for x, h, k, match in (
        ([0.0, 1.0], [1.0, 0.0], 0.0, "bandwidth"),
        ([0.0], [-1.0], 0.0, "bandwidth"),
        ([0.0], [np.inf], 0.0, "bandwidth"),
        ([0.0, np.nan], [1.0, 1.0], 0.0, "location"),
        ([0.0], [1.0], -0.5, "exponent k"),
        ([0.0], [1.0], np.nan, "exponent k"),
    ):
        with pytest.raises(ValueError, match=match):
            ScaleSet(x, h, k)
    with pytest.raises(ValueError, match="z_bw given without z_loc"):
        ScaleSet([0.0], [1.0], z_bw=[0.5])
    for z_bw in (None, [0.5, 0.0], [0.5, np.nan]):
        with pytest.raises(ValueError, match="positive z_bw"):
            ScaleSet([0.0, 1.0], [1.0, 1.0], z_loc=[[0.0], [1.0]], z_bw=z_bw)


def test_scale_set_validation():
    with pytest.raises(ValueError, match="non-empty"):
        ScaleSet([], [])
    with pytest.raises(ValueError, match="lengths differ"):
        ScaleSet([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="one row per scale"):
        ScaleSet([0.0, 1.0], [1.0, 1.0], z_loc=[[0.0]], z_bw=[0.5, 0.5])
    with pytest.raises(ValueError, match="one entry per scale"):
        ScaleSet([0.0], [1.0], z_loc=[[0.0]], z_bw=[0.5, 0.5])
    # the columns are read-only once validated
    ss = ScaleSet([0.0, 1.0], [1.0, 0.5], k=1.0)
    with pytest.raises(ValueError):
        ss.h[0] = -1.0
    assert ss.p == 2 and ss.k == 1.0
    assert [(s.x, s.h) for s in ss.scales] == [(0.0, 1.0), (1.0, 0.5)]


def test_basic_set_two_points():
    # h_max = 0.5; h_min = 0.4 * 0.5 * (log 2 / 2)^(1/3) ~ 0.1405, so H = {0.5, 0.25}
    ss = build_basic_set([0.0, 1.0])
    assert ss.p == 4
    assert ss.x.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert ss.h.tolist() == [0.5, 0.5, 0.25, 0.25]
    assert ss.k == 0.0
    assert ss.kernel is EPANECHNIKOV


def test_basic_set_bandwidths_shrink_with_n():
    rng = np.random.default_rng(3)
    hs_by_n = {}
    for n in (20, 200, 2000):
        ss = build_basic_set(rng.uniform(0.0, 1.0, n))
        hs_by_n[n] = np.unique(ss.h)
    # smallest bandwidth decreases as the sample grows
    assert hs_by_n[20][0] > hs_by_n[200][0] > hs_by_n[2000][0]
    # geometric grid with ratio one half, anchored at half the range
    for hs in hs_by_n.values():
        ratios = np.diff(np.log2(hs))
        np.testing.assert_allclose(ratios, 1.0, rtol=0, atol=1e-12)


def test_basic_set_duplicate_locations_removed():
    ss = build_basic_set([0.0, 1.0, 1.0, 0.0, 1.0])
    n_h = np.unique(ss.h).size
    assert ss.p == 2 * n_h


def test_basic_set_k_and_kernel_propagate():
    ss = build_basic_set([0.0, 0.5, 1.0], k=1.0, kernel=UNIFORM)
    assert ss.k == 1.0
    assert ss.kernel is UNIFORM


def test_basic_set_rejects_degenerate_input():
    with pytest.raises(DataError):
        build_basic_set([1.0])
    with pytest.raises(DataError):
        build_basic_set([2.0, 2.0, 2.0])
    with pytest.raises(DataError):
        build_basic_set([0.0, np.inf])


def test_custom_set_bandwidth_major_order():
    ss = build_custom_set([0.1, 0.9], [0.5, 0.25], k=1.0)
    assert ss.x.tolist() == [0.1, 0.9, 0.1, 0.9]
    assert ss.h.tolist() == [0.5, 0.5, 0.25, 0.25]
    assert ss.k == 1.0
    with pytest.raises(ValueError):
        build_custom_set([], [0.5])
    # a repeated location or bandwidth counts once, at its first occurrence
    ss = build_custom_set([0.9, 0.1, 0.9], [0.5, 0.25, 0.5, 0.25])
    assert ss.x.tolist() == [0.9, 0.1, 0.9, 0.1]
    assert ss.h.tolist() == [0.5, 0.5, 0.25, 0.25]


def test_z_local_set_crosses_cells():
    base = build_custom_set([0.0, 1.0], [0.5], k=0.5)
    ss = build_z_local_set(base, z_locs=[(0.2,), (0.8,)], z_bws=[0.3, 0.6])
    assert ss.p == 8
    # x-scale, then z location, then z bandwidth
    assert ss.x.tolist() == [0.0] * 4 + [1.0] * 4
    assert ss.h.tolist() == [0.5] * 8
    assert ss.z_loc.tolist() == [[0.2], [0.2], [0.8], [0.8]] * 2
    assert ss.z_bw.tolist() == [0.3, 0.6] * 4
    assert ss.k == 0.5 and ss.kernel is base.kernel


def test_z_local_set_dimension_mismatch():
    base = build_custom_set([0.0], [1.0])
    with pytest.raises(DataError):
        build_z_local_set(base, z_locs=[(0.0,), (0.0, 1.0)], z_bws=[1.0])
    with pytest.raises(ValueError):
        build_z_local_set(base, z_locs=[], z_bws=[1.0])
    with pytest.raises(ValueError, match="z_bws must be non-empty"):
        build_z_local_set(base, z_locs=[(0.0,)], z_bws=[])
