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

Memory: w_i(s) is zero outside the window of s, so in sorted order each
scale's weights are one contiguous band.  A field keeps only the window
weights, flat per block of FIELD_BLOCK scales: the sum of the window sizes
times 8 bytes, at most p * n * 8.  V sums each window on its own, and the
bootstrap draws take one (FIELD_BLOCK x band width) panel at a time, so
every temporary is O(FIELD_BLOCK * n).
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

# The field engine evaluates this many scales at a time, and keeps their
# window weights as one band, so its temporaries and each draw panel are
# O(FIELD_BLOCK * n); at n in the thousands a block's flat arrays stay
# within a core's cache.
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
    ``A_n`` is the largest unweighted influence max |w_i(s)| / sqrt(v_hat(s)).

    For each active scale the row a_i(s) = scale_weight * w_i(s) /
    sqrt(v_hat(s)) is zero outside the window of s, so only the windows are
    kept: ``bands`` holds, per block of scales, the tuple (cols, lo, m, a) of
    their positions in ``active_ids``, their windows sorted[lo : lo + m]
    (``order`` sorts the sample by x) and the flat window values a.
    ``apply`` multiplies the rows with an array in observation order; with
    sigma_i * eps_i it gives one bootstrap draw.
    """

    b: np.ndarray
    v_hat: np.ndarray
    t: np.ndarray
    T: float
    active_ids: np.ndarray
    A_n: float
    order: np.ndarray
    bands: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]

    def apply(self, e) -> np.ndarray:
        """sum_i a_i(s) * e_i for every active scale; e has n rows in observation order.

        Returns one row per active scale, in the order of ``active_ids``,
        with e's columns (a vector for a 1-d e).  Each band becomes one
        zero-filled (scales x band width) panel and one matrix product with
        the sorted rows of e it covers.
        """
        es = np.asarray(e, dtype=float)[self.order]
        out = np.empty((self.active_ids.size,) + es.shape[1:])
        spans = [(int(lo.min()), int((lo + m).max())) for _, lo, m, _ in self.bands]
        # every panel lives in one buffer and every product is written in
        # place: fresh pages for each band cost about as much as the products
        sizes = [band[0].size * (stop - start) for band, (start, stop) in zip(self.bands, spans)]
        buf = np.empty(max(sizes, default=0))
        for (cols, lo, m, a), (start, stop) in zip(self.bands, spans):
            width = stop - start
            panel = buf[: cols.size * width].reshape(cols.size, width)
            panel.fill(0.0)
            panel.ravel()[_window_index(np.arange(cols.size) * width - start + lo, m)[1]] = a
            rows = out[cols[0] : cols[-1] + 1]
            if rows.shape[0] == cols.size:  # adjacent in active_ids, as when all scales share k
                np.matmul(panel, es[start:stop], out=rows)
            else:
                out[cols] = panel @ es[start:stop]
        return out


def _sort_order(sample: Sample) -> np.ndarray:
    # stable: ties keep original order, and sorted x gives arange
    return np.argsort(sample.x, kind="stable")


def _window_index(lo: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each window starts in a block's flat arrays, and lo[r] + j for its point j.

    The flat arrays hold window r at first[r] : first[r] + m[r]; the second
    array has one entry per point, so with lo the window starts in sorted
    order it is each point's sorted sample index.
    """
    first = np.cumsum(m) - m
    idx = np.repeat(lo - first, m)
    idx += np.arange(idx.size)
    return first, idx


def _window_bounds(xs, sx, sh, support):
    """Each scale's window sorted[lo : hi], the points with |(x - s.x) / h| < support.

    The kernel sees u = (x - s.x) / h, which can round to the other side of
    the support than x does against s.x +- support * h: far from the origin
    an ulp of x is a visible step in u.  So the bounds found by searchsorted
    move until u itself agrees; u is monotone in x, so the points inside
    stay contiguous and a tie run stays whole.
    """
    n = xs.size
    radius = sh * support
    lo = np.searchsorted(xs, sx - radius, side="right")
    hi = np.searchsorted(xs, sx + radius, side="left")
    # a bound is the first point j with u_j > -support (lo) or u_j >= support (hi):
    # step back while the point before it qualifies, on while the point at it does not
    for bound, past in ((lo, lambda u: u > -support), (hi, lambda u: u >= support)):
        for shift, step in ((-1, -1), (0, 1)):
            r = np.arange(bound.size)
            while r.size:
                j = bound[r] + shift
                inside = (j >= 0) & (j < n)
                r, j = r[inside], j[inside]
                r = r[past((xs[j] - sx[r]) / sh[r]) == (step < 0)]
                bound[r] += step
    return lo, hi


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
    """Sort order, window weights as bands, b, and max_i |w_i(s)| per scale.

    ``bands`` holds one tuple (rows, lo, m, w) per block: the block's scale
    ids, their windows sorted[lo : lo + m] and the flat weights w, window
    after window (see ``_window_index``).  Scales whose window has no pair
    with nonzero sign are in no band; their w is zero.

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
    p = set_.p
    scales = set_.scales
    sx = np.array([s.x for s in scales])
    sh = np.array([s.h for s in scales])
    sk = np.array([s.k for s in scales])
    lo, hi = _window_bounds(xs, sx, sh, set_.kernel.support_radius)
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

    bands = []
    b = np.zeros(p)
    absmax = np.zeros(p)
    for k in np.unique(sk[live]).tolist():
        ids = np.flatnonzero(live & (sk == k))
        for start in range(0, ids.size, FIELD_BLOCK):
            rows = ids[start : start + FIELD_BLOCK]
            wlo, whi = lo[rows], hi[rows]
            m = whi - wlo
            first, idx = _window_index(wlo, m)
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
            bands.append((rows, wlo, m, w))
            b[rows] = b_rows
            absmax[rows] = np.maximum.reduceat(np.abs(w), first)
    return order, bands, b, absmax


def weights_w(sample: Sample, s: Scale, kernel: Kernel = EPANECHNIKOV) -> np.ndarray:
    """w_i(s) = sum_j sign(X_j - X_i) * Q(X_i, X_j, s), with sign(0) = 0."""
    set_ = ScaleSet(scales=(Scale(s.x, s.h, s.k),), kernel=kernel)
    order, bands, _, _ = _field_arrays(sample, set_)
    w = np.zeros(sample.n)
    for _, lo, m, wb in bands:
        w[order[_window_index(lo, m)[1]]] = wb
    return w


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
    _, _, b, _ = _field_arrays(sample, set_)
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
    order, bands, b, absmax = _field_arrays(sample, set_)
    # V window by window, summed left to right in sorted order: its rounding
    # depends on the window alone, not on the block or a BLAS library
    sig2 = (sig * sig)[order]
    v = np.zeros(set_.p)
    for rows, lo, m, w in bands:
        first, idx = _window_index(lo, m)
        ww = w * w
        ww *= sig2[idx]
        v[rows] = np.add.reduceat(ww, first)
    tau = max(VAR_RTOL * float(v.max(initial=0.0)), VAR_FLOOR)
    active = v > tau
    if not active.any():
        raise DegenerateVarianceError("degenerate variance on every scale")
    active_ids = np.flatnonzero(active)
    sw = set_.weights_vector()
    t = np.full(set_.p, np.nan)
    root_v = np.sqrt(v[active])
    t[active] = sw[active] * b[active] / root_v
    T = float(np.max(t[active]))
    # the bands of the active scales, w scaled in place to sw * w / sqrt(v)
    field_bands = []
    for rows, lo, m, w in bands:
        keep = active[rows]
        if not keep.all():
            w = w[np.repeat(keep, m)]
            rows, lo, m = rows[keep], lo[keep], m[keep]
        if rows.size:
            w *= np.repeat(sw[rows] / np.sqrt(v[rows]), m)
            field_bands.append((np.searchsorted(active_ids, rows), lo, m, w))
    # rounding a division by a positive number is monotone, so this is
    # max over i of |w_i| / sqrt(v) bit for bit
    A_n = float(np.max(absmax[active] / root_v))
    return StudentizedField(
        b=b,
        v_hat=v,
        t=t,
        T=T,
        active_ids=active_ids,
        A_n=A_n,
        order=order,
        bands=tuple(field_bands),
    )


def sensitivity_A(sample: Sample, set_: ScaleSet, sigma_true_or_hat) -> float:
    """Largest normalized influence A_n = max over scales of max_i |w_i(s)| / sqrt(V(s)).

    Depends only on X, the scale set, and the supplied sigma sequence; small
    values mean no single observation can dominate any scale's statistic.
    """
    return evaluate_field(sample, set_, sigma_true_or_hat).A_n
