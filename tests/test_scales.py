"""Kernels, pairwise weights, and scale-set constructors."""

import numpy as np
import pytest

from monotest import (
    DataError,
    Kernel,
    Scale,
    ScaleSet,
    build_basic_set,
    build_custom_set,
    build_z_local_set,
    epanechnikov,
    kernel_Q,
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
    s = Scale(x=0.5, h=0.5)
    assert kernel_Q(0.25, 0.75, s) == 0.31640625
    # the |x1 - x2|^k factor with |0.25 - 0.75| = 0.5
    assert kernel_Q(0.25, 0.75, Scale(0.5, 0.5, k=1.0)) == 0.158203125
    assert kernel_Q(0.25, 0.75, Scale(0.5, 0.5, k=2.0)) == 0.0791015625


def test_kernel_Q_zero_outside_window():
    s = Scale(x=0.0, h=0.1)
    assert kernel_Q(0.0, 0.5, s) == 0.0
    assert kernel_Q(-0.5, 0.05, s) == 0.0


def test_kernel_Q_coincident_points_k_zero():
    # 0^0 == 1 by convention, so k = 0 gives the plain kernel product
    s = Scale(x=0.0, h=1.0)
    assert kernel_Q(0.0, 0.0, s) == 0.75 * 0.75
    assert kernel_Q(0.0, 0.0, Scale(0.0, 1.0, k=1.0)) == 0.0


def test_kernel_Q_symmetric_and_nonnegative():
    rng = np.random.default_rng(8241)
    for _ in range(500):
        x1, x2, x = rng.uniform(-2, 2, size=3)
        h = rng.uniform(0.05, 2.0)
        k = rng.choice([0.0, 0.5, 1.0, 2.0])
        s = Scale(x, h, k)
        q = kernel_Q(x1, x2, s)
        assert q >= 0.0
        assert q == kernel_Q(x2, x1, s)


def test_scale_validation():
    with pytest.raises(ValueError):
        Scale(0.0, 0.0)
    with pytest.raises(ValueError):
        Scale(0.0, -1.0)
    with pytest.raises(ValueError):
        Scale(np.nan, 1.0)
    with pytest.raises(ValueError):
        Scale(0.0, 1.0, k=-0.5)
    with pytest.raises(ValueError):
        Scale(0.0, 1.0, z_bw=0.5)  # z_bw without z_loc
    with pytest.raises(ValueError):
        Scale(0.0, 1.0, z_loc=(0.0,))  # z_loc without z_bw


def test_scale_set_validation():
    with pytest.raises(ValueError):
        ScaleSet(scales=())
    s = Scale(0.0, 1.0)
    with pytest.raises(ValueError):
        ScaleSet(scales=(s,), scale_weights=(1.0, 2.0))
    with pytest.raises(ValueError):
        ScaleSet(scales=(s,), scale_weights=(0.0,))
    np.testing.assert_array_equal(ScaleSet(scales=(s, s)).weights_vector(), [1.0, 1.0])


def test_basic_set_two_points():
    # h_max = 0.5; h_min = 0.4 * 0.5 * (log 2 / 2)^(1/3) ~ 0.1405, so H = {0.5, 0.25}
    ss = build_basic_set([0.0, 1.0])
    assert ss.p == 4
    assert [(s.x, s.h) for s in ss.scales] == [
        (0.0, 0.5),
        (1.0, 0.5),
        (0.0, 0.25),
        (1.0, 0.25),
    ]
    assert all(s.k == 0.0 for s in ss.scales)
    assert ss.kernel is EPANECHNIKOV


def test_basic_set_bandwidths_shrink_with_n():
    rng = np.random.default_rng(3)
    hs_by_n = {}
    for n in (20, 200, 2000):
        ss = build_basic_set(rng.uniform(0.0, 1.0, n))
        hs_by_n[n] = sorted({s.h for s in ss.scales})
    # smallest bandwidth decreases as the sample grows
    assert hs_by_n[20][0] > hs_by_n[200][0] > hs_by_n[2000][0]
    # geometric grid with ratio one half, anchored at half the range
    for hs in hs_by_n.values():
        ratios = np.diff(np.log2(hs))
        np.testing.assert_allclose(ratios, 1.0, rtol=0, atol=1e-12)


def test_basic_set_duplicate_locations_removed():
    ss = build_basic_set([0.0, 1.0, 1.0, 0.0, 1.0])
    n_h = len({s.h for s in ss.scales})
    assert ss.p == 2 * n_h


def test_basic_set_k_and_kernel_propagate():
    ss = build_basic_set([0.0, 0.5, 1.0], k=1.0, kernel=UNIFORM)
    assert all(s.k == 1.0 for s in ss.scales)
    assert ss.kernel is UNIFORM


def test_basic_set_rejects_degenerate_input():
    with pytest.raises(DataError):
        build_basic_set([1.0])
    with pytest.raises(DataError):
        build_basic_set([2.0, 2.0, 2.0])
    with pytest.raises(DataError):
        build_basic_set([0.0, np.inf])
    with pytest.raises(ValueError):
        build_basic_set([0.0, 1.0], u=1.0)
    with pytest.raises(ValueError):
        build_basic_set([0.0, 1.0], shrink=0.0)


def test_custom_set_bandwidth_major_order():
    ss = build_custom_set([0.1, 0.9], [0.5, 0.25], k=1.0)
    assert [(s.x, s.h) for s in ss.scales] == [
        (0.1, 0.5),
        (0.9, 0.5),
        (0.1, 0.25),
        (0.9, 0.25),
    ]
    assert all(s.k == 1.0 for s in ss.scales)
    with pytest.raises(ValueError):
        build_custom_set([], [0.5])


def test_z_local_set_crosses_cells():
    base = build_custom_set([0.0, 1.0], [0.5])
    ss = build_z_local_set(base, z_locs=[(0.2,), (0.8,)], z_bws=[0.3])
    assert ss.p == 4
    assert ss.scales[0].z_loc == (0.2,)
    assert ss.scales[0].z_bw == 0.3
    assert ss.scales[1].z_loc == (0.8,)
    # x-scale fields survive the crossing
    assert {(s.x, s.h) for s in ss.scales} == {(0.0, 0.5), (1.0, 0.5)}
    assert ss.z_kernel is EPANECHNIKOV


def test_z_local_set_propagates_scale_weights():
    base = ScaleSet(scales=(Scale(0.0, 1.0), Scale(1.0, 1.0)), scale_weights=(2.0, 3.0))
    ss = build_z_local_set(base, z_locs=[(0.0,)], z_bws=[1.0, 2.0])
    assert ss.scale_weights == (2.0, 2.0, 3.0, 3.0)


def test_z_local_set_dimension_mismatch():
    base = build_custom_set([0.0], [1.0])
    with pytest.raises(DataError):
        build_z_local_set(base, z_locs=[(0.0,), (0.0, 1.0)], z_bws=[1.0])
    with pytest.raises(ValueError):
        build_z_local_set(base, z_locs=[], z_bws=[1.0])
