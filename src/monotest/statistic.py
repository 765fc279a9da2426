"""Test functions, variances, and the studentized maximum statistic.

Everything here derives from the pairwise comparison

    b(s) = 1/2 * sum_ij (Y_i - Y_j) * sign(X_j - X_i) * Q(X_i, X_j, s),

whose expectation is nonpositive for every nonnegative symmetric Q when the
regression function is nondecreasing.  Writing
w_i(s) = sum_j sign(X_j - X_i) Q(X_i, X_j, s) gives the identity
b(s) = sum_i Y_i w_i(s), the variance V(s) = sum_i sigma_i^2 w_i(s)^2, and
the statistic T = max over scales of b(s) / sqrt(V(s)).

Two computation paths are provided: a block engine, and naive double-loop
references used as oracles in the test suite.  The engine sorts X once,
finds every scale's window and every tie run with one searchsorted each,
and evaluates the scales FIELD_BLOCK at a time.  A block's windows are
flattened into one array; prefix sums inside each window then give w and b
in O(m) per scale for k in {0, 1}, and a direct double loop over the window
handles any other k.  The engine accumulates b(s) from adjacent differences
of the sorted Y, so adding a constant to Y cannot leak into b through
rounding.

Memory: a field holds one dense p x n weight matrix W in original
observation order.  It becomes the bootstrap's ``a_matrix`` in place when
every scale is active (a copy of the active rows otherwise).  V takes one
transient p x n square W * W; the engine's own temporaries are
O(FIELD_BLOCK * n).
"""

from __future__ import annotations

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

# The field engine evaluates this many scales at a time, so its temporaries
# are O(FIELD_BLOCK * n) next to the p x n weight matrix; at n in the
# thousands a block's flat arrays stay within a core's cache.
FIELD_BLOCK = 128


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


def _window_stats(xw: np.ndarray, gw: np.ndarray, yw: np.ndarray, k: float):
    """Weights w and test function b on one sorted window, for a general exponent k.

    ``gw`` carries the kernel factor for each observation (already multiplied
    by any z-cell factor).  A direct double loop over the window; k in
    {0, 1} is evaluated by the block engine in ``_field_arrays`` instead.
    """
    dx = xw[None, :] - xw[:, None]
    coef = np.sign(dx) * np.abs(dx) ** k
    w = gw * (coef @ gw)
    dy = yw[:, None] - yw[None, :]
    b = 0.5 * float(gw @ (dy * coef) @ gw)
    return w, b


def _running_sums(vals: np.ndarray, cell: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Zero-padded running sums of a block's windows, one row per window.

    ``cell`` is each value's flat index, one column right of its place in
    its window, so row r starts with 0 and its first m[r] + 1 entries equal
    ``np.concatenate(([0.0], np.cumsum(window_r)))`` bit for bit: an
    accumulate adds strictly left to right.
    """
    out = np.zeros(shape)
    out.ravel()[cell] = vals
    return np.cumsum(out, axis=1, out=out)


def _cut_dots(d: np.ndarray, lo: np.ndarray, m: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """b of each window: one dot of its m - 1 adjacent y differences with its cut weights."""
    return np.array(
        [
            np.dot(d[a : a + mm - 1], cut[r, : mm - 1])
            for r, (a, mm) in enumerate(zip(lo.tolist(), m.tolist()))
        ]
    )


def _block_k0(g, idx, rbase, m, wlo, whi, L, R, D, shape):
    """w and b of one block of windows for k = 0.

    Window bounds are searchsorted values of x, so a window never splits a
    tie run: the run L[j]:R[j] of each of its points lies inside it.
    """
    base = np.repeat(rbase, m)
    after = idx + 1
    after += base  # flat cell of the running sum just after each point
    cs = _running_sums(g, after, shape)
    flat = cs.ravel()
    total = flat[whi + rbase]
    run_end = R[idx]
    # tied x: sign is zero, but the cuts also count the pairs within a tie
    # run; a cut is tied when the run of its left point reaches past it
    tie = run_end > idx + 1
    left = L[idx] + base
    right = run_end + base
    w = np.repeat(total, m) - flat[right]
    w -= flat[left]
    w *= g
    pref = cs[:, 1:-1]
    cut = total[:, None] - pref
    cut *= pref
    b = _cut_dots(D, wlo, m, cut)
    if tie.any():
        after = after[tie]
        mid = flat[after]
        terms = D[idx[tie]] * (mid - flat[left[tie]]) * (flat[right[tie]] - mid)
        # b minus the terms one at a time in cut order, as a running sum:
        # x + (-t) is x - t exactly, and -0.0 padding leaves every sum as it is
        sub = np.full(shape, -0.0)
        sub[:, 0] = b
        sub.ravel()[after] = -terms
        b = np.cumsum(sub, axis=1, out=sub)[:, -1]
    return w, b


def _block_k1(g, xw, xs, idx, rbase, m, wlo, whi, D, shape):
    """w and b of one block of windows for k = 1."""
    xc = xw - np.repeat(xs[wlo], m)  # window-relative: no cancellation far from 0
    after = idx + 1
    after += np.repeat(rbase, m)
    cg = _running_sums(g, after, shape)
    cxg = _running_sums(g * xc, after, shape)
    tg = cg.ravel()[whi + rbase]
    txg = cxg.ravel()[whi + rbase]
    w = g * (np.repeat(txg, m) - xc * np.repeat(tg, m))
    pg, pxg = cg[:, 1:-1], cxg[:, 1:-1]
    cut = pg * (txg[:, None] - pxg) - pxg * (tg[:, None] - pg)
    return w, _cut_dots(D, wlo, m, cut)


def _field_arrays(sample: Sample, set_: ScaleSet):
    """Weight matrix W (p x n, original observation order), b, and max_i |w_i(s)| per scale.

    Only b's dot over a window's cuts (and, for general k, the double loop)
    runs per scale; everything else runs once per block of FIELD_BLOCK
    scales that share k.  b is accumulated over the m-1 cuts between
    adjacent sorted observations: the pair (q, r), q < r, contributes
    through every cut it straddles, which telescopes (y_q - y_r) into
    adjacent differences and keeps b exactly zero for constant y.
    """
    order = _sort_order(sample)
    xs = sample.x[order]
    ys = sample.y[order]
    n, p = xs.size, set_.p
    scales = set_.scales
    sx = np.array([s.x for s in scales])
    sh = np.array([s.h for s in scales])
    sk = np.array([s.k for s in scales])
    radius = sh * set_.kernel.support_radius
    lo = np.searchsorted(xs, sx - radius, side="right")
    hi = np.searchsorted(xs, sx + radius, side="left")
    # a pair with nonzero sign needs two distinct x: a window with fewer
    # points, or one made of a single tie run, keeps w = 0 and b = 0
    live = hi - lo >= 2
    live[live] = xs[lo[live]] < xs[hi[live] - 1]
    # sorted point j lies in the tie run L[j]:R[j]
    L = np.searchsorted(xs, xs, side="left")
    R = np.searchsorted(xs, xs, side="right")
    D = ys[:-1] - ys[1:]
    zcell = scales[0].z_loc is not None
    if zcell:
        zs = sample.z[order]
        zloc = np.array([s.z_loc for s in scales])
        zbw = np.array([s.z_bw for s in scales])

    W = np.zeros((p, n))
    b = np.zeros(p)
    absmax = np.zeros(p)
    for k in np.unique(sk[live]).tolist():
        ids = np.flatnonzero(live & (sk == k))
        for start in range(0, ids.size, FIELD_BLOCK):
            rows = ids[start : start + FIELD_BLOCK]
            wlo, whi = lo[rows], hi[rows]
            m = whi - wlo
            first = np.cumsum(m) - m  # where each window starts in the flat arrays
            idx = np.repeat(wlo - first, m)
            idx += np.arange(idx.size)  # sorted sample index of each window point
            xw = xs[idx]
            u = xw - np.repeat(sx[rows], m)
            u /= np.repeat(sh[rows], m)
            g = set_.kernel(u)
            if zcell:
                # the z-cell factor, a product over coordinates taken in order
                bw = np.repeat(zbw[rows], m)
                zf = set_.z_kernel((zs[idx, 0] - np.repeat(zloc[rows, 0], m)) / bw)
                for j in range(1, zs.shape[1]):
                    zf = zf * set_.z_kernel((zs[idx, j] - np.repeat(zloc[rows, j], m)) / bw)
                g = g * zf
            g = np.asarray(g, dtype=float)
            # sorted point j of window r keeps its running sums in flat cell
            # j + rbase[r] of the block's (windows, width) arrays
            shape = (rows.size, int(m.max()) + 1)
            rbase = np.arange(rows.size) * shape[1] - wlo
            if k == 0.0:
                w, b_rows = _block_k0(g, idx, rbase, m, wlo, whi, L, R, D, shape)
            elif k == 1.0:
                w, b_rows = _block_k1(g, xw, xs, idx, rbase, m, wlo, whi, D, shape)
            else:
                w = np.empty_like(g)
                b_rows = np.empty(rows.size)
                for r, (a, mm) in enumerate(zip(wlo.tolist(), m.tolist())):
                    win = slice(first[r], first[r] + mm)
                    w[win], b_rows[r] = _window_stats(xs[a : a + mm], g[win], ys[a : a + mm], k)
            cells = np.repeat(rows * n, m)
            cells += order[idx]
            np.put(W, cells, w)
            b[rows] = b_rows
            absmax[rows] = np.maximum.reduceat(np.abs(w), first)
    return W, b, absmax


def weights_w(sample: Sample, s: Scale, kernel: Kernel = EPANECHNIKOV) -> np.ndarray:
    """w_i(s) = sum_j sign(X_j - X_i) * Q(X_i, X_j, s), with sign(0) = 0."""
    set_ = ScaleSet(scales=(Scale(s.x, s.h, s.k),), kernel=kernel)
    W, _, _ = _field_arrays(sample, set_)
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
    _, b, _ = _field_arrays(sample, set_)
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
    W, b, absmax = _field_arrays(sample, set_)
    # one BLAS product over every row: BLAS may round a row differently
    # depending on how the rows are split among calls and threads, so a
    # product per block would move some V, and A_n with them, by an ulp
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
    # rows sw * w / sqrt(v), scaled in place: W itself when every scale is active
    a_matrix = W if active.all() else W[active]
    a_matrix *= (sw[active] / root_v)[:, None]
    # rounding a division by a positive number is monotone, so this is
    # max over i of |w_i| / sqrt(v) bit for bit
    A_n = float(np.max(absmax[active] / root_v))
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
