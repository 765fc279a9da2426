"""Test functions, variances, and the studentized maximum statistic.

Everything here derives from the pairwise comparison

    b(s) = 1/2 * sum_ij (Y_i - Y_j) * sign(X_j - X_i) * Q(X_i, X_j, s),

whose expectation is nonpositive for every nonnegative symmetric Q when the
regression function is nondecreasing.  Writing
w_i(s) = sum_j sign(X_j - X_i) Q(X_i, X_j, s) gives the identity
b(s) = sum_i Y_i w_i(s), the variance V(s) = sum_i sigma_i^2 w_i(s)^2, and
the statistic T = max over scales of b(s) / sqrt(V(s)).

One block engine computes all of it; the test suite pins it against naive
double sums.  The engine sorts X once, finds every scale's window with one
bisection and every tie run with one searchsorted, and evaluates the scales
FIELD_BLOCK at a time on one dense panel: a row per scale, a column per
sorted observation of the block's span, the union of its windows.  The
kernel is zero outside each window, so running sums along the rows give w
in O(span) per scale for k in {0, 1}, and a direct double loop over the
window handles any other k.  The weights of a window sum to zero, so
b(s) = sum_i (Y_i - Y_lo(s)) w_i(s) for the sorted Y_lo(s) at the window's
first point.  The engine sums b that way and V over each window's own
cells, so both depend on the window alone, and a constant Y gives b = +0
exactly.

Memory: a block's panels are (FIELD_BLOCK x span) with span <= n + 1, and
the engine keeps a handful of them only while it works on that block.  V
sums each window on its own, and the bootstrap draws of a block are one
matrix product of its panel, taken before the panel is dropped.  So no
window weights outlive their block: a field costs O(FIELD_BLOCK * n + p)
bytes, plus, when it forms draws, one row of e's columns per scale id and
the sorted copy of e, which replaces e itself if the caller passed a
temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, DegenerateVarianceError
from .scales import ScaleSet

if TYPE_CHECKING:
    from .sigma import SigmaEstimate

__all__ = [
    "Sample",
    "StudentizedField",
    "evaluate_field",
]

# Scales whose variance falls below VAR_RTOL times the largest variance carry
# no information (their window holds fewer than two distinct points, or the
# noise there is numerically zero); they are excluded from the maximum and
# from every bootstrap draw symmetrically.
VAR_RTOL = 1e-12
VAR_FLOOR = 1e-300

# The field engine evaluates this many scales at a time on (FIELD_BLOCK x
# span) panels, so its temporaries are O(FIELD_BLOCK * n) bytes: one panel
# is at most FIELD_BLOCK * (n + 1) * 8 bytes, 1 MiB at n = 2000.  A smaller
# block has a narrower span, which saves work where windows are short next
# to it (small bandwidths, z-cells); each block costs fixed Python overhead.
FIELD_BLOCK = 64


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

    ``t`` is b / sqrt(v_hat) on active scales and NaN on inactive ones;
    ``T`` is the maximum of t over ``active_ids``.  ``A_n`` is the largest
    influence max |w_i(s)| / sqrt(v_hat(s)).

    ``draws`` is None unless ``evaluate_field`` was given an array e with n
    rows in observation order.  Then it has one row per scale id with e's
    columns: sum_i a_i(s) * e_i on the active scales, where
    a_i(s) = w_i(s) / sqrt(v_hat(s)), and -inf on the others, so no
    inactive row attains a maximum.  With e_i = sigma_i * eps_i a column is
    one bootstrap draw.
    """

    b: np.ndarray
    v_hat: np.ndarray
    t: np.ndarray
    T: float
    active_ids: np.ndarray
    A_n: float
    draws: np.ndarray | None = None


def _sort_order(sample: Sample) -> np.ndarray:
    # stable: ties keep original order, and sorted x gives arange
    return np.argsort(sample.x, kind="stable")


def _window_bounds(xs, sx, sh, support):
    """Each scale's window sorted[lo : hi], the points with |(x - s.x) / h| < support.

    lo is the first point with u > -support and hi the first with
    u >= support, for u = (x - s.x) / h rounded as the kernel sees it: far
    from the origin an ulp of x is a visible step in u, so comparing x with
    s.x +- support * h can put a point on the wrong side.  u is monotone in
    sorted x, so one bisection finds both bounds for every scale at once,
    and a tie run stays whole.
    """
    n = xs.size
    # pos counts the points before each bound; bit by bit from the top, a
    # step is taken when the last point it passes is still before the bound
    pos = np.zeros((2, sx.size), dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        ahead = pos + step
        u = (xs[np.minimum(ahead, n) - 1] - sx) / sh
        before = np.stack((u[0] <= -support, u[1] < support))
        pos[before & (ahead <= n)] += step
        step >>= 1
    return pos[0], pos[1]


def _window_weights(xw: np.ndarray, gw: np.ndarray, k: float) -> np.ndarray:
    """Weights w on one sorted window, for a general exponent k.

    ``gw`` carries the kernel factor for each observation (already multiplied
    by any z-cell factor).  A direct double loop over the window; k in
    {0, 1} is evaluated on the block panel in ``_field_blocks`` instead.
    """
    dx = xw[None, :] - xw[:, None]
    return gw * ((np.sign(dx) * np.abs(dx) ** k) @ gw)


def _running_sums(panel: np.ndarray) -> np.ndarray:
    """Running sums along each row of a panel, after a leading zero column.

    The panel is zero before each row's window, and an accumulate adds
    strictly left to right, so within the window these equal
    ``np.concatenate(([0.0], np.cumsum(window)))`` bit for bit.
    """
    out = np.empty((panel.shape[0], panel.shape[1] + 1))
    out[:, 0] = 0.0
    np.cumsum(panel, axis=1, out=out[:, 1:])
    return out


def _window_sums(panel: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each row's sum over its window, the cells lo:hi of a C-ordered panel.

    reduceat sums exactly the window's cells, so the rounding depends on the
    window alone: not on the block, its span or BLAS.  An index must lie
    inside the panel, and the last one sums to its end, so the last window's
    end is dropped when it is the panel's size.
    """
    first = np.arange(lo.size) * panel.shape[1] + lo
    ends = np.stack((first, first + hi - lo), axis=1).ravel()
    if ends[-1] == panel.size:
        ends = ends[:-1]
    return np.add.reduceat(panel.reshape(-1), ends)[::2]


def _block_k0(g, lo, hi, L, R):
    """w of one block for k = 0, from its kernel panel g.

    Equal x give equal u, so a window never splits a tie run: the run
    L[j]:R[j] of each of its points lies inside it, and so does every tie
    run of the span.
    """
    rows, width = g.shape
    a = int(lo.min())
    cs = _running_sums(g)
    total = cs[np.arange(rows), hi - a]
    # w_j = g_j * (kernel mass after j's tie run - kernel mass before it);
    # a point with no tie is the run j:j+1, and the points of longer runs
    # are set again in place, so the panel stays C-ordered
    w = total[:, None] - cs[:, 1:]
    w -= cs[:, :-1]
    t = np.flatnonzero(R[a : a + width] - L[a : a + width] > 1)  # span column of each tied point
    run = total[:, None] - cs[:, R[t + a] - a]
    run -= cs[:, L[t + a] - a]
    w[:, t] = run
    w *= g
    return w


def _block_k1(g, xs, lo, hi):
    """w of one block for k = 1, from its kernel panel g."""
    rows, width = g.shape
    a = int(lo.min())
    xc = xs[a : a + width] - xs[lo][:, None]  # window-relative: no cancellation far from 0
    cg = _running_sums(g)
    cxg = _running_sums(g * xc)
    ends = (np.arange(rows), hi - a)
    return g * (cxg[ends][:, None] - xc * cg[ends][:, None])


def _field_blocks(sample: Sample, set_: ScaleSet, order: np.ndarray):
    """Generate (rows, lo, hi, w, b) per block of live scales.

    A scale is live when its window, in sorted order ``order``, holds a pair
    with nonzero sign; the others have w = 0 and b = 0 and are in no block.
    A block is at most FIELD_BLOCK consecutive live scales.  ``rows`` are
    the scale ids, sorted[lo : hi] their windows and ``w`` the (rows x span)
    panel of their weights over the span sorted[lo.min() : hi.max()], zero
    outside each window.  ``b`` is each scale's test function, the sum over
    its window of (y - y_lo) * w with y_lo the sorted y at the window's
    first point.  Its first cell is (+0) * (w >= 0), so constant y gives
    b = +0, and on lattice y a dyadic shift of y moves no bit of b.

    Only the double loop of a general k runs per scale; everything else
    runs once per block.
    """
    xs = sample.x[order]
    ys = sample.y[order]
    sx, sh, k = set_.x, set_.h, set_.k
    lo, hi = _window_bounds(xs, sx, sh, set_.kernel.support_radius)
    # a pair with nonzero sign needs two distinct x: a window with fewer
    # points, or one made of a single tie run, keeps w = 0 and b = 0
    live = hi - lo >= 2
    live[live] = xs[lo[live]] < xs[hi[live] - 1]
    # sorted point j lies in the tie run L[j]:R[j]
    L = np.searchsorted(xs, xs, side="left")
    R = np.searchsorted(xs, xs, side="right")
    zcell = set_.z_loc is not None
    if zcell:
        zs = sample.z[order]

    def block(rows):
        # a function, so that none of its panels outlives the block
        wlo, whi = lo[rows], hi[rows]
        span = slice(int(wlo.min()), int(whi.max()))
        # the kernel is zero where |u| >= support, which is outside the window
        g = np.asarray(set_.kernel((xs[span] - sx[rows, None]) / sh[rows, None]), dtype=float)
        if zcell:
            # the z-cell factor, a product over coordinates taken in order
            bw, loc = set_.z_bw[rows, None], set_.z_loc[rows]
            zf = set_.kernel((zs[span, 0] - loc[:, 0, None]) / bw)
            for j in range(1, zs.shape[1]):
                zf = zf * set_.kernel((zs[span, j] - loc[:, j, None]) / bw)
            g *= zf
        if k == 0.0:
            w = _block_k0(g, wlo, whi, L, R)
        elif k == 1.0:
            w = _block_k1(g, xs, wlo, whi)
        else:
            w = np.zeros_like(g)
            for r, (l, h) in enumerate(zip(wlo.tolist(), whi.tolist())):
                win = slice(l - span.start, h - span.start)
                w[r, win] = _window_weights(xs[l:h], g[r, win], k)
        del g  # before b's panel of (y - y_lo) * w
        dy = np.subtract(ys[span], ys[wlo][:, None])
        dy *= w
        return w, _window_sums(dy, wlo - span.start, whi - span.start)

    ids = np.flatnonzero(live)
    for start in range(0, ids.size, FIELD_BLOCK):
        rows = ids[start : start + FIELD_BLOCK]
        yield (rows, lo[rows], hi[rows], *block(rows))


def _sigma_values(sigma, n: int) -> np.ndarray:
    """The n per-observation standard deviations of a SigmaEstimate or an array."""
    sig = np.asarray(getattr(sigma, "values", sigma), dtype=float).reshape(-1)
    if sig.size != n:
        raise DataError(f"sigma length {sig.size} does not match sample size {n}")
    return sig


def evaluate_field(sample: Sample, set_: ScaleSet, sigma, e=None) -> StudentizedField:
    """Evaluate b, V, and t = b / sqrt(V) on every scale.

    Parameters
    ----------
    sample : Sample
    set_ : ScaleSet
        A z-local set needs z columns in the sample; its scales weight
        observation pairs by Q(x1, x2, s) times
        K((z1 - z_loc)/z_bw) * K((z2 - z_loc)/z_bw), so the statistic probes
        monotonicity in x within each cell.
    sigma : SigmaEstimate or array_like
        Per-observation standard deviations (entries may be negative for
        residual-based estimates; only their squares enter V).
    e : array_like, optional
        n rows in observation order.  If given, the field's ``draws`` hold
        sum_i w_i(s) / sqrt(V(s)) * e_i in the row of every active scale,
        formed block by block from the engine's panels, and -inf in the
        other rows.  The field keeps a sorted copy and drops its own
        reference to e, so a temporary e is freed before the blocks start.

    Raises
    ------
    DataError
        If z-cells do not match the sample's z columns, or sigma or e has the
        wrong length.
    DegenerateVarianceError
        If every scale is inactive, which signals a data/bandwidth mismatch.
    """
    if set_.z_loc is not None:
        if sample.z is None:
            raise DataError("sample has no z columns")
        d, d_loc = sample.z.shape[1], set_.z_loc.shape[1]
        if d_loc != d:
            raise DataError(f"z_loc dimension {d_loc} does not match z dimension {d}")
    sig = _sigma_values(sigma, sample.n)
    order = _sort_order(sample)
    sig2 = (sig * sig)[order]
    p = set_.p
    b = np.zeros(p)
    v = np.zeros(p)
    absmax = np.zeros(p)
    draws = None
    if e is not None:
        es = np.asarray(e, dtype=float)
        if es.ndim == 0 or es.shape[0] != sample.n:
            raise DataError(f"e must have one row per observation ({sample.n})")
        es = es[order]
        # e in observation order is no longer needed: if the caller passed a
        # temporary, only one copy of it stays alive through the blocks
        del e
        # one row of draws per scale id; the blocks fill the live ones
        draws = np.empty((p,) + es.shape[1:])
    for rows, lo, hi, w, b_rows in _field_blocks(sample, set_, order):
        a = int(lo.min())
        span = slice(a, a + w.shape[1])
        b[rows] = b_rows
        panel = np.abs(w)
        absmax[rows] = panel.max(axis=1)
        np.multiply(w, w, out=panel)
        panel *= sig2[span]
        v_rows = _window_sums(panel, lo - a, hi - a)
        v[rows] = v_rows
        if draws is not None:
            # scale each row to w / sqrt(V), and form the block's products
            # while its panel is at hand; rows with V = 0 are inactive
            nonzero = v_rows > 0.0
            f = np.zeros(rows.size)
            f[nonzero] = 1.0 / np.sqrt(v_rows[nonzero])
            w *= f[:, None]
            draws[rows] = w @ es[span]
        del w, panel  # before the engine builds the next block
    tau = max(VAR_RTOL * float(v.max(initial=0.0)), VAR_FLOOR)
    active = v > tau
    if not active.any():
        raise DegenerateVarianceError("degenerate variance on every scale")
    active_ids = np.flatnonzero(active)
    if draws is not None:
        # an inactive row never attains a per-draw maximum
        draws[~active] = -np.inf
    t = np.full(p, np.nan)
    root_v = np.sqrt(v[active])
    t[active] = b[active] / root_v
    # rounding a division by a positive number is monotone, so this is
    # max over i of |w_i| / sqrt(v) bit for bit
    A_n = float(np.max(absmax[active] / root_v))
    return StudentizedField(
        b=b,
        v_hat=v,
        t=t,
        T=float(np.max(t[active])),
        active_ids=active_ids,
        A_n=A_n,
        draws=draws,
    )

