"""Test functions, variances, and the studentized maximum statistic.

Everything here derives from the pairwise comparison

    b(s) = 1/2 * sum_ij (Y_i - Y_j) * sign(X_j - X_i) * Q(X_i, X_j, s),

whose expectation is nonpositive for every nonnegative symmetric Q when the
regression function is nondecreasing.  Writing
w_i(s) = sum_j sign(X_j - X_i) Q(X_i, X_j, s) gives the identity
b(s) = sum_i Y_i w_i(s), the variance V(s) = sum_i sigma_i^2 w_i(s)^2, and
the statistic T = max over scales of b(s) / sqrt(V(s)).

Two computation paths are provided: a fast one that sorts X once and uses
prefix sums inside each scale's window (O(m) per scale for k in {0, 1}),
and naive double-loop references used as oracles in the test suite.  The
fast path accumulates b(s) from adjacent differences of the sorted Y, so
adding a constant to Y cannot leak into b through rounding.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, DegenerateVarianceError
from .scales import EPANECHNIKOV, Kernel, Scale, ScaleSet, kernel_Q

if TYPE_CHECKING:
    from .sigma import SigmaEstimate

__all__ = [
    "Sample",
    "StudentizedField",
    "weights_w",
    "weights_w_naive",
    "test_function_b",
    "test_function_b_naive",
    "variance_hat",
    "evaluate_field",
    "sensitivity_A",
]

# Scales whose variance falls below VAR_RTOL times the largest variance carry
# no information (their window holds fewer than two distinct points, or the
# noise there is numerically zero); they are excluded from the maximum and
# from every bootstrap draw symmetrically.
VAR_RTOL = 1e-12
VAR_FLOOR = 1e-300


@dataclass(frozen=True)
class Sample:
    """Observations (x_i, y_i), optionally with covariate rows z_i in R^d."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(-1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.size != y.size:
            raise DataError(f"x and y lengths differ: {x.size} vs {y.size}")
        if x.size < 2:
            raise DataError("need at least two observations")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DataError("sample contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.z is not None:
            z = np.asarray(self.z, dtype=float)
            if z.ndim == 1:
                z = z.reshape(-1, 1)
            if z.ndim != 2 or z.shape[0] != x.size:
                raise DataError(f"z must have one row per observation, got shape {z.shape}")
            if not np.all(np.isfinite(z)):
                raise DataError("z contains non-finite values")
            object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class StudentizedField:
    """Per-scale test functions, variances, and studentized values.

    ``t`` is scale_weight * b / sqrt(v_hat) on active scales and NaN on
    inactive ones; ``T`` is the maximum of t over ``active_ids``.
    ``a_matrix`` holds, for each active scale, the row
    scale_weight * w_i(s) / sqrt(v_hat(s)) in original observation order;
    multiplying it with sigma_i * eps_i reproduces one bootstrap draw.
    ``A_n`` is the largest unweighted influence max |w_i(s)| / sqrt(v_hat(s)).
    """

    b: np.ndarray
    v_hat: np.ndarray
    t: np.ndarray
    T: float
    active_ids: np.ndarray
    a_matrix: np.ndarray
    A_n: float


def _sort_order(sample: Sample) -> np.ndarray:
    # stable: ties keep original order, and sorted x gives arange
    return np.argsort(sample.x, kind="stable")


def _window_bounds(xs: np.ndarray, s: Scale, kernel: Kernel) -> tuple[int, int]:
    radius = s.h * kernel.support_radius
    lo = int(np.searchsorted(xs, s.x - radius, side="right"))
    hi = int(np.searchsorted(xs, s.x + radius, side="left"))
    return lo, hi


def _window_stats(xw: np.ndarray, gw: np.ndarray, yw: np.ndarray, k: float):
    """Weights w and test function b on one sorted window.

    ``gw`` carries the kernel factor for each observation (already multiplied
    by any z-cell factor).  b is accumulated over the m-1 cuts between
    adjacent sorted observations: the pair (q, r), q < r, contributes through
    every cut it straddles, which telescopes (y_q - y_r) into adjacent
    differences and keeps b exactly zero for constant y.
    """
    m = xw.size
    if k == 0.0:
        csum = np.concatenate(([0.0], np.cumsum(gw)))
        total = csum[-1]
        left = np.searchsorted(xw, xw, side="left")
        right = np.searchsorted(xw, xw, side="right")
        w = gw * ((total - csum[right]) - csum[left])
        pref = csum[1:m]
        suff = total - pref
        d = yw[:-1] - yw[1:]
        b = float(np.dot(d, pref * suff))
        # tied x: sign is zero, but the cut construction above counted
        # within-tie pairs, so remove them with the same local telescoping;
        # the run around a tied cut is left[cut]..right[cut], and the terms
        # are subtracted one cut at a time in cut order to keep b's bits
        tie = np.flatnonzero(xw[1:] == xw[:-1])
        pg = csum[tie + 1] - csum[left[tie]]
        sg = csum[right[tie]] - csum[tie + 1]
        b = functools.reduce(operator.sub, (d[tie] * pg * sg).tolist(), b)
        return w, b
    if k == 1.0:
        xc = xw - xw[0]  # guard against cancellation for windows far from 0
        cg = np.concatenate(([0.0], np.cumsum(gw)))
        cxg = np.concatenate(([0.0], np.cumsum(gw * xc)))
        w = gw * (cxg[-1] - xc * cg[-1])
        pref_g = cg[1:m]
        pref_xg = cxg[1:m]
        suff_g = cg[-1] - pref_g
        suff_xg = cxg[-1] - pref_xg
        d = yw[:-1] - yw[1:]
        b = float(np.dot(d, pref_g * suff_xg - pref_xg * suff_g))
        return w, b
    # general exponent: direct double loop over the window
    dx = xw[None, :] - xw[:, None]
    coef = np.sign(dx) * np.abs(dx) ** k
    w = gw * (coef @ gw)
    dy = yw[:, None] - yw[None, :]
    b = 0.5 * float(gw @ (dy * coef) @ gw)
    return w, b


def _z_factor(zw: np.ndarray, s: Scale, z_kernel: Kernel) -> np.ndarray:
    t = (zw - np.asarray(s.z_loc)) / s.z_bw
    factor = z_kernel(t[:, 0])
    for j in range(1, t.shape[1]):
        factor = factor * z_kernel(t[:, j])
    return factor


def _field_arrays(sample: Sample, set_: ScaleSet):
    """Weight matrix (p x n, original observation order) and per-scale b."""
    order = _sort_order(sample)
    xs = sample.x[order]
    ys = sample.y[order]
    zs = sample.z[order] if sample.z is not None else None
    n = xs.size
    p = set_.p
    W = np.zeros((p, n))
    b = np.zeros(p)
    for r, s in enumerate(set_.scales):
        lo, hi = _window_bounds(xs, s, set_.kernel)
        if hi - lo < 2:
            continue
        xw = xs[lo:hi]
        gw = set_.kernel((xw - s.x) / s.h)
        if s.z_loc is not None:
            gw = gw * _z_factor(zs[lo:hi], s, set_.z_kernel)
        w_win, b_s = _window_stats(xw, np.asarray(gw, dtype=float), ys[lo:hi], s.k)
        W[r, lo:hi] = w_win
        b[r] = b_s
    out = np.empty_like(W)
    out[:, order] = W
    return out, b


def weights_w(sample: Sample, s: Scale, kernel: Kernel = EPANECHNIKOV) -> np.ndarray:
    """w_i(s) = sum_j sign(X_j - X_i) * Q(X_i, X_j, s), with sign(0) = 0."""
    set_ = ScaleSet(scales=(Scale(s.x, s.h, s.k),), kernel=kernel)
    W, _ = _field_arrays(sample, set_)
    return W[0]


def weights_w_naive(sample: Sample, s: Scale, kernel: Kernel = EPANECHNIKOV) -> np.ndarray:
    """Reference double loop for weights_w; no sorting, no windowing."""
    x = sample.x
    n = x.size
    kx = np.asarray(kernel((x - s.x) / s.h), dtype=float)
    w = np.empty(n)
    for i in range(n):
        diff = x - x[i]
        w[i] = kx[i] * np.sum(np.sign(diff) * np.abs(diff) ** s.k * kx)
    return w


def test_function_b(sample: Sample, s: Scale, kernel: Kernel = EPANECHNIKOV) -> float:
    """b(s) = 1/2 * sum_ij (Y_i - Y_j) * sign(X_j - X_i) * Q(X_i, X_j, s).

    Positive values indicate locally decreasing behavior; algebraically
    b(s) = sum_i Y_i w_i(s), pinned against the naive oracle in the tests.
    """
    set_ = ScaleSet(scales=(Scale(s.x, s.h, s.k),), kernel=kernel)
    _, b = _field_arrays(sample, set_)
    return float(b[0])


def test_function_b_naive(sample: Sample, s: Scale, kernel: Kernel = EPANECHNIKOV) -> float:
    """Reference double sum for test_function_b."""
    x, y = sample.x, sample.y
    kx = np.asarray(kernel((x - s.x) / s.h), dtype=float)
    total = 0.0
    for i in range(x.size):
        diff = x - x[i]
        total += kx[i] * np.sum(
            (y[i] - y) * np.sign(diff) * np.abs(diff) ** s.k * kx
        )
    return 0.5 * total


def variance_hat(w, sigma_hat) -> float:
    """V(s) = sum_i sigma_i^2 * w_i(s)^2; negative residual-based sigma_i are fine."""
    w = np.asarray(w, dtype=float)
    sig = np.asarray(sigma_hat, dtype=float)
    if w.shape != sig.shape:
        raise ValueError(f"length mismatch: {w.shape} vs {sig.shape}")
    return float(np.sum(sig * sig * w * w))


def _sigma_values(sigma) -> np.ndarray:
    values = getattr(sigma, "values", sigma)
    return np.asarray(values, dtype=float).reshape(-1)


def evaluate_field(sample: Sample, set_: ScaleSet, sigma) -> StudentizedField:
    """Evaluate b, V, and t = scale_weight * b / sqrt(V) on every scale.

    Parameters
    ----------
    sample : Sample
    set_ : ScaleSet
        Either no scale carries a z-cell, or every scale does; z-cell scales
        weight observation pairs by Q(x1, x2, s) times
        K((z1 - z_loc)/z_bw) * K((z2 - z_loc)/z_bw), so the statistic probes
        monotonicity in x within each cell.
    sigma : SigmaEstimate or array_like
        Per-observation standard deviations (entries may be negative for
        residual-based estimates; only their squares enter V).

    Raises
    ------
    DataError
        If z-cells do not match the sample's z columns, or sigma has the
        wrong length.
    DegenerateVarianceError
        If every scale is inactive, which signals a data/bandwidth mismatch.
    """
    if any(s.z_loc is not None for s in set_.scales):
        if sample.z is None:
            raise DataError("sample has no z columns")
        if set_.z_kernel is None:
            raise DataError("scale set has no z_kernel")
        d = sample.z.shape[1]
        for s in set_.scales:
            if s.z_loc is None:
                raise DataError("either every scale needs a z-cell or none may have one")
            if len(s.z_loc) != d:
                raise DataError(f"z_loc dimension {len(s.z_loc)} does not match z dimension {d}")
    sig = _sigma_values(sigma)
    if sig.size != sample.n:
        raise DataError(f"sigma length {sig.size} does not match sample size {sample.n}")
    W, b = _field_arrays(sample, set_)
    v = (W * W) @ (sig * sig)
    tau = max(VAR_RTOL * float(v.max(initial=0.0)), VAR_FLOOR)
    active = v > tau
    if not active.any():
        raise DegenerateVarianceError("degenerate variance on every scale")
    sw = set_.weights_vector()
    t = np.full(set_.p, np.nan)
    root_v = np.sqrt(v[active])
    t[active] = sw[active] * b[active] / root_v
    T = float(np.max(t[active]))
    a_matrix = (sw[active] / root_v)[:, None] * W[active]
    A_n = float(np.max(np.abs(W[active]) / root_v[:, None]))
    return StudentizedField(
        b=b,
        v_hat=v,
        t=t,
        T=T,
        active_ids=np.flatnonzero(active),
        a_matrix=a_matrix,
        A_n=A_n,
    )


def sensitivity_A(sample: Sample, set_: ScaleSet, sigma_true_or_hat) -> float:
    """Largest normalized influence A_n = max over scales of max_i |w_i(s)| / sqrt(V(s)).

    Depends only on X, the scale set, and the supplied sigma sequence; small
    values mean no single observation can dominate any scale's statistic.
    """
    return evaluate_field(sample, set_, sigma_true_or_hat).A_n
