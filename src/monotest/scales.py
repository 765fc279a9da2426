"""Kernels, pairwise weighting functions, and scale-set constructors.

A scale s = (x, h) localizes the pairwise comparisons of the test to the
window (x - h, x + h).  The weighting function

    Q(x1, x2, s) = |x1 - x2|**k * K((x1 - x) / h) * K((x2 - x) / h)

is symmetric and nonnegative, so the test function built from it has
nonpositive expectation whenever the regression function is nondecreasing.
A scale set stores its scales as columns and shares the kernel K and the
exponent k among them.  A z-local set gives every scale a cell (z_loc, z_bw)
in auxiliary covariates, weighted by the same kernel K; the corresponding
product weighting lives in :mod:`monotest.statistic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError

__all__ = [
    "Kernel",
    "ScaleSet",
    "epanechnikov",
    "uniform",
    "EPANECHNIKOV",
    "UNIFORM",
    "KERNELS",
    "build_basic_set",
    "build_custom_set",
    "build_z_local_set",
]


def epanechnikov(t):
    """Epanechnikov weight 0.75 * (1 - t**2) on (-1, 1), zero outside.

    Accepts scalars or arrays; scalars come back as plain floats.
    """
    arr = np.asarray(t, dtype=float)
    out = np.square(np.atleast_1d(arr))  # a fresh array: t itself is never written
    np.subtract(1.0, out, out=out)
    out *= 0.75
    # 1 - t*t > 0 exactly when |t| < 1; fmax also maps NaN to 0
    np.fmax(out, 0.0, out=out)
    return float(out[0]) if arr.ndim == 0 else out


def uniform(t):
    """Uniform weight: 1 on (-1, 1), zero outside."""
    arr = np.asarray(t, dtype=float)
    out = (np.abs(arr) < 1.0).astype(float)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Kernel:
    """Compactly supported weight function, zero outside (-support_radius, support_radius)."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    support_radius: float = 1.0

    def __call__(self, t):
        return self.evaluator(t)


EPANECHNIKOV = Kernel("epanechnikov", epanechnikov)
UNIFORM = Kernel("uniform", uniform)

KERNELS = {k.name: k for k in (EPANECHNIKOV, UNIFORM)}


@dataclass(frozen=True)
class ScaleSet:
    """A finite set of scales, one array per column: scale i is (x[i], h[i]).

    All scales share one weighting function Q, so the kernel and the
    distance exponent k belong to the set.  A z-local set gives scale i the
    cell (z_loc[i], z_bw[i]), weighted by the same kernel; z_loc has one row
    of d coordinates per scale.  The columns are validated once here and
    read-only afterwards.
    """

    x: np.ndarray
    h: np.ndarray
    k: float = 0.0
    kernel: Kernel = EPANECHNIKOV
    z_loc: np.ndarray | None = None
    z_bw: np.ndarray | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        h = np.array(self.h, dtype=float).reshape(-1)
        k = float(self.k)
        if x.size == 0:
            raise ValueError("scale set must be non-empty")
        if x.size != h.size:
            raise ValueError(f"x and h lengths differ: {x.size} vs {h.size}")
        if not np.isfinite(x).all():
            raise ValueError("scale location must be finite")
        bad = ~(np.isfinite(h) & (h > 0))
        if bad.any():
            raise ValueError(f"bandwidth must be positive and finite, got {float(h[bad][0])!r}")
        if not (math.isfinite(k) and k >= 0):
            raise ValueError(f"distance exponent k must be >= 0, got {k!r}")
        columns = [("x", x), ("h", h)]
        if self.z_loc is not None:
            z_loc = np.array(self.z_loc, dtype=float)
            if z_loc.ndim != 2 or z_loc.shape[0] != x.size:
                raise ValueError(f"z_loc needs one row per scale ({x.size}), got shape {z_loc.shape}")
            if self.z_bw is None:
                raise ValueError("a z-local scale needs a positive z_bw")
            z_bw = np.array(self.z_bw, dtype=float).reshape(-1)
            if z_bw.size != x.size:
                raise ValueError(f"z_bw needs one entry per scale ({x.size}), got {z_bw.size}")
            if not (np.isfinite(z_bw) & (z_bw > 0)).all():
                raise ValueError("a z-local scale needs a positive z_bw")
            columns += [("z_loc", z_loc), ("z_bw", z_bw)]
        elif self.z_bw is not None:
            raise ValueError("z_bw given without z_loc")
        object.__setattr__(self, "k", k)
        for name, column in columns:
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def p(self) -> int:
        return self.x.size

    @property
    def scales(self) -> np.recarray:
        """A read-only record view of the (x, h) columns, for callers that iterate scales."""
        view = np.rec.fromarrays([self.x, self.h], names="x,h")
        view.flags.writeable = False
        return view


def _distinct(values) -> np.ndarray:
    """Sorted distinct values of a non-empty array by sort and mask: np.unique imports numpy.ma."""
    v = np.sort(values, axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def build_basic_set(X, k: float = 0.0, kernel: Kernel = EPANECHNIKOV) -> ScaleSet:
    """Default scale set: every observed location crossed with a geometric bandwidth grid.

    Parameters
    ----------
    X : array_like
        Observed regressor values, n >= 2, not all equal.
    k : float
        Distance exponent shared by all scales.
    kernel : Kernel
        Weighting kernel shared by all scales.

    Returns
    -------
    ScaleSet
        Locations are the distinct values of X; bandwidths run from
        ``h_max = max pairwise distance / 2`` down to
        ``h_min = 0.4 * h_max * (log(n) / n) ** (1/3)`` in powers of 1/2.
        Duplicate (x, h) pairs are removed, so p <= n * |H|.
    """
    x = np.asarray(X, dtype=float)
    if x.ndim != 1:
        x = x.reshape(-1)
    n = x.size
    if n < 2:
        raise DataError("no positive bandwidth: need at least two observations")
    if not np.all(np.isfinite(x)):
        raise DataError("regressor contains non-finite values")

    h_max = (float(x.max()) - float(x.min())) / 2.0
    if h_max <= 0:
        raise DataError("no positive bandwidth: all regressor values coincide")
    h_min = 0.4 * h_max * (math.log(n) / n) ** (1.0 / 3.0)
    grid = [h_max]
    while (h := h_max * 0.5 ** len(grid)) >= h_min:
        grid.append(h)
    return build_custom_set(_distinct(x), grid, k, kernel)


def build_custom_set(
    locations,
    bandwidths,
    k: float = 0.0,
    kernel: Kernel = EPANECHNIKOV,
) -> ScaleSet:
    """Cartesian product of explicit locations and bandwidths (bandwidth-major order).

    A repeated location or bandwidth counts once, at its first occurrence.
    """
    locs, bws = (np.asarray(v, dtype=float).reshape(-1) for v in (locations, bandwidths))
    locs, bws = (v[np.sort(np.unique(v, return_index=True)[1])] for v in (locs, bws))
    if locs.size == 0 or bws.size == 0:
        raise ValueError("locations and bandwidths must be non-empty")
    return ScaleSet(np.tile(locs, bws.size), np.repeat(bws, locs.size), k, kernel)


def build_z_local_set(x_scales: ScaleSet, z_locs, z_bws) -> ScaleSet:
    """Cross an existing scale set with cells in auxiliary covariates.

    Each product scale keeps its (x, h) and gains one (z_loc, z_bw) cell;
    the statistic then weights observation pairs by the additional factor
    K((z1 - z_loc)/z_bw) * K((z2 - z_loc)/z_bw), taken as a product over
    coordinates when z is vector valued.  The set keeps k and the kernel, and
    its order runs over the x-scales, then z_locs, then z_bws.
    """
    locs = [np.asarray(z, dtype=float).reshape(-1) for z in z_locs]
    if not locs:
        raise ValueError("z_locs must be non-empty")
    dims = {loc.size for loc in locs}
    if len(dims) != 1:
        raise DataError(f"dimension mismatch among z_locs: found lengths {sorted(dims)}")
    bws = np.asarray(z_bws, dtype=float).reshape(-1)
    if not bws.size:
        raise ValueError("z_bws must be non-empty")
    cells = len(locs) * bws.size
    return ScaleSet(
        np.repeat(x_scales.x, cells),
        np.repeat(x_scales.h, cells),
        x_scales.k,
        x_scales.kernel,
        z_loc=np.tile(np.repeat(np.array(locs), bws.size, axis=0), (x_scales.p, 1)),
        z_bw=np.tile(bws, x_scales.p * len(locs)),
    )
