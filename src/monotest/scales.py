"""Kernels, pairwise weighting functions, and scale-set constructors.

A scale s = (x, h) localizes the pairwise comparisons of the test to the
window (x - h, x + h).  The weighting function

    Q(x1, x2, s) = |x1 - x2|**k * K((x1 - x) / h) * K((x2 - x) / h)

is symmetric and nonnegative, so the test function built from it has
nonpositive expectation whenever the regression function is nondecreasing.
Scales may additionally carry a cell (z_loc, z_bw) in auxiliary covariates;
the corresponding product weighting lives in :mod:`monotest.statistic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError

__all__ = [
    "Kernel",
    "Scale",
    "ScaleSet",
    "epanechnikov",
    "uniform",
    "EPANECHNIKOV",
    "UNIFORM",
    "KERNELS",
    "kernel_Q",
    "build_basic_set",
    "build_custom_set",
    "build_z_local_set",
]


def epanechnikov(t):
    """Epanechnikov weight 0.75 * (1 - t**2) on (-1, 1), zero outside.

    Accepts scalars or arrays; scalars come back as plain floats.
    """
    arr = np.asarray(t, dtype=float)
    out = np.where(np.abs(arr) < 1.0, 0.75 * (1.0 - arr * arr), 0.0)
    return float(out) if out.ndim == 0 else out


def uniform(t):
    """Uniform weight: 1 on (-1, 1), zero outside."""
    arr = np.asarray(t, dtype=float)
    out = np.where(np.abs(arr) < 1.0, 1.0, 0.0)
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
class Scale:
    """A location-bandwidth pair, optionally carrying a z-cell for covariate-local tests."""

    x: float
    h: float
    k: float = 0.0
    z_loc: tuple[float, ...] | None = None
    z_bw: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "k", float(self.k))
        if not math.isfinite(self.x):
            raise ValueError("scale location must be finite")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.h!r}")
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"distance exponent k must be >= 0, got {self.k!r}")
        if self.z_loc is not None:
            loc = tuple(float(v) for v in np.atleast_1d(np.asarray(self.z_loc, dtype=float)))
            object.__setattr__(self, "z_loc", loc)
            if self.z_bw is None or not (math.isfinite(self.z_bw) and self.z_bw > 0):
                raise ValueError("a z-local scale needs a positive z_bw")
            object.__setattr__(self, "z_bw", float(self.z_bw))
        elif self.z_bw is not None:
            raise ValueError("z_bw given without z_loc")


@dataclass(frozen=True)
class ScaleSet:
    """A finite collection of scales sharing one kernel (and optionally a z-kernel).

    ``scale_weights`` are the optional strictly positive per-scale weights
    multiplying each studentized value; they default to 1 and enter the
    bootstrap draws in exactly the same way as the observed statistic.
    """

    scales: tuple[Scale, ...]
    kernel: Kernel = EPANECHNIKOV
    z_kernel: Kernel | None = None
    scale_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))
        if not self.scales:
            raise ValueError("scale set must be non-empty")
        if self.scale_weights is not None:
            w = tuple(float(v) for v in self.scale_weights)
            if len(w) != len(self.scales):
                raise ValueError("scale_weights length must match the number of scales")
            if not all(math.isfinite(v) and v > 0 for v in w):
                raise ValueError("scale_weights must be strictly positive and finite")
            object.__setattr__(self, "scale_weights", w)

    @property
    def p(self) -> int:
        return len(self.scales)

    def weights_vector(self) -> np.ndarray:
        if self.scale_weights is None:
            return np.ones(self.p)
        return np.asarray(self.scale_weights, dtype=float)


def kernel_Q(x1: float, x2: float, s: Scale, kernel: Kernel = EPANECHNIKOV) -> float:
    """Pairwise weight |x1 - x2|**k * K((x1 - x)/h) * K((x2 - x)/h) for s = (x, h, k)."""
    base = kernel((x1 - s.x) / s.h) * kernel((x2 - s.x) / s.h)
    # 0.0 ** 0.0 == 1.0, so the k == 0 case needs no special treatment
    return abs(x1 - x2) ** s.k * base


def _bandwidth_grid(h_max: float, h_min: float, u: float) -> list[float]:
    # geometric grid h_max * u**l down to h_min; always contains h_max
    grid = [h_max]
    level = 1
    while True:
        h = h_max * u**level
        if h < h_min:
            break
        grid.append(h)
        level += 1
    return grid


def build_basic_set(
    X,
    u: float = 0.5,
    shrink: float = 0.4,
    k: float = 0.0,
    kernel: Kernel = EPANECHNIKOV,
) -> ScaleSet:
    """Default scale set: every observed location crossed with a geometric bandwidth grid.

    Parameters
    ----------
    X : array_like
        Observed regressor values, n >= 2, not all equal.
    u : float
        Grid ratio in (0, 1); successive bandwidths shrink by this factor.
    shrink : float
        Factor in the smallest-bandwidth rule
        ``h_min = shrink * h_max * (log(n) / n) ** (1/3)``.
    k : float
        Distance exponent shared by all scales.
    kernel : Kernel
        Weighting kernel shared by all scales.

    Returns
    -------
    ScaleSet
        Locations are the distinct values of X; bandwidths run from
        ``h_max = max pairwise distance / 2`` down to ``h_min`` in powers
        of ``u``.  Duplicate (x, h) pairs are removed, so p <= n * |H|.
    """
    x = np.asarray(X, dtype=float)
    if x.ndim != 1:
        x = x.reshape(-1)
    n = x.size
    if n < 2:
        raise DataError("no positive bandwidth: need at least two observations")
    if not np.all(np.isfinite(x)):
        raise DataError("regressor contains non-finite values")
    if not 0.0 < u < 1.0:
        raise ValueError(f"grid ratio u must lie in (0, 1), got {u!r}")
    if not shrink > 0:
        raise ValueError("shrink must be positive")

    h_max = (float(x.max()) - float(x.min())) / 2.0
    if h_max <= 0:
        raise DataError("no positive bandwidth: all regressor values coincide")
    h_min = shrink * h_max * (math.log(n) / n) ** (1.0 / 3.0)
    grid = _bandwidth_grid(h_max, h_min, u)
    locations = np.unique(x)
    scales = tuple(Scale(float(xi), h, k) for h in grid for xi in locations)
    return ScaleSet(scales=scales, kernel=kernel)


def build_custom_set(
    locations,
    bandwidths,
    k: float = 0.0,
    kernel: Kernel = EPANECHNIKOV,
) -> ScaleSet:
    """Cartesian product of explicit locations and bandwidths (bandwidth-major order)."""
    locs = np.atleast_1d(np.asarray(locations, dtype=float))
    bws = np.atleast_1d(np.asarray(bandwidths, dtype=float))
    if locs.size == 0 or bws.size == 0:
        raise ValueError("locations and bandwidths must be non-empty")
    scales = tuple(Scale(float(xi), float(h), k) for h in bws for xi in locs)
    return ScaleSet(scales=scales, kernel=kernel)


def build_z_local_set(
    x_scales: ScaleSet,
    z_locs,
    z_bws,
    z_kernel: Kernel = EPANECHNIKOV,
) -> ScaleSet:
    """Cross an existing scale set with cells in auxiliary covariates.

    Each product scale keeps its (x, h, k) and gains one (z_loc, z_bw) cell;
    the statistic then weights observation pairs by the additional factor
    K((z1 - z_loc)/z_bw) * K((z2 - z_loc)/z_bw), taken as a product over
    coordinates when z is vector valued.
    """
    locs = [tuple(float(v) for v in np.atleast_1d(np.asarray(z, dtype=float))) for z in z_locs]
    if not locs:
        raise ValueError("z_locs must be non-empty")
    dims = {len(loc) for loc in locs}
    if len(dims) != 1:
        raise DataError(f"dimension mismatch among z_locs: found lengths {sorted(dims)}")
    bws = [float(b) for b in np.atleast_1d(np.asarray(z_bws, dtype=float))]
    if not bws:
        raise ValueError("z_bws must be non-empty")

    scales = []
    weights = [] if x_scales.scale_weights is not None else None
    for s, wt in zip(x_scales.scales, x_scales.weights_vector()):
        for loc in locs:
            for bw in bws:
                scales.append(Scale(s.x, s.h, s.k, z_loc=loc, z_bw=bw))
                if weights is not None:
                    weights.append(float(wt))
    return ScaleSet(
        scales=tuple(scales),
        kernel=x_scales.kernel,
        z_kernel=z_kernel,
        scale_weights=tuple(weights) if weights is not None else None,
    )
