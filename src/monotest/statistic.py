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
sums each window on its own, so no window weights outlive their block: a
field costs O(FIELD_BLOCK * n + p) bytes.  Given bootstrap multipliers e
(n x B), the engine forms each block's draws as one matrix product of its
panel, folds them into the block's per-draw maximum, offers them to a
store of the R = min(p, KEEP_BYTES // (8 * B)) rows with the highest t,
and drops them.  A selection reads a block's maximum if it holds the whole
block, and else the kept rows; the field keeps the sorted copy of e, which
replaces e itself if the caller passed a temporary, to rebuild a block only
when one of those rows is not kept.  So a field with draws costs
O(FIELD_BLOCK * n + n * B + R * B + p) bytes, plus one B-vector of maxima
per block of FIELD_BLOCK scales.
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
    "KeptDraws",
    "Sample",
    "StudentizedField",
    "evaluate_field",
    "kept_rows",
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

# A field with B bootstrap draws keeps the draws of at most
# KEEP_BYTES // (8 * B) scales, those with the highest t.  Every selected set
# of the critical-value ladder but the first is an upper set of t, so a set
# that fits needs no block built again.  8 MiB is 2,097 rows at
# B = 500: every row of an n = 200 set (p = 800), and the one-step set of
# an n = 2000 test.
KEEP_BYTES = 8 << 20


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
    rows in observation order.  Then it is a ``KeptDraws``: the per-draw
    maxima of sum_i a_i(s) * e_i, a_i(s) = w_i(s) / sqrt(v_hat(s)), over
    any set of active scales, and the rows of the kept scales.  With
    e_i = sigma_i * eps_i a column of e gives one bootstrap draw.
    """

    b: np.ndarray
    v_hat: np.ndarray
    t: np.ndarray
    T: float
    active_ids: np.ndarray
    A_n: float
    draws: KeptDraws | None = None


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
    {0, 1} is evaluated on the block panel in ``_field_engine`` instead.
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


def _field_engine(sample: Sample, set_: ScaleSet, order: np.ndarray):
    """The blocks of live scales, every scale's window, and the block function.

    A scale is live when its window, in sorted order ``order``, holds a pair
    with nonzero sign; the others have w = 0 and b = 0 and are in no block.
    ``blocks`` lists the scale ids of each block, at most FIELD_BLOCK
    consecutive live scales, and sorted[lo : hi] are the windows.
    ``block(rows)`` gives a block's (w, b): ``w`` the (rows x span) panel of
    its weights over the span sorted[lo.min() : hi.max()], zero outside each
    window, and ``b`` each scale's test function, the sum over its window of
    (y - y_lo) * w with y_lo the sorted y at the window's first point.  Its
    first cell is (+0) * (w >= 0), so constant y gives b = +0, and on
    lattice y a dyadic shift of y moves no bit of b.  A block built again
    has the same bits.

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
    blocks = [ids[start : start + FIELD_BLOCK] for start in range(0, ids.size, FIELD_BLOCK)]
    return blocks, lo, hi, block


def _sigma_values(sigma, n: int) -> np.ndarray:
    """The n per-observation standard deviations of a SigmaEstimate or an array."""
    sig = np.asarray(getattr(sigma, "values", sigma), dtype=float).reshape(-1)
    if sig.size != n:
        raise DataError(f"sigma length {sig.size} does not match sample size {n}")
    return sig


def kept_rows(p: int, B: int) -> int:
    """How many scales' draws a field of p scales and B draws keeps."""
    return min(p, max(1, KEEP_BYTES // (8 * B)))


def _draw_rows(w: np.ndarray, v_rows: np.ndarray, es_span: np.ndarray) -> np.ndarray:
    """A block's draws: each row of w scaled in place to w / sqrt(V), times e.

    Rows with V = 0 are inactive and scaled to zero.
    """
    nonzero = v_rows > 0.0
    f = np.zeros(v_rows.size)
    f[nonzero] = 1.0 / np.sqrt(v_rows[nonzero])
    w *= f[:, None]
    return w @ es_span


class KeptDraws:
    """A field's bootstrap draws, held in memory that does not grow with p.

    ``maxima(ids)`` gives the per-draw maxima of the draws over any set of
    active scale ids, by one rule for every block.  A block whose rows with
    V > 0 are all in the set answers with the maximum folded in as the
    engine formed it.  Any other block's rows in the set are read from the
    kept rows, and the block is rebuilt when one of them is not kept.  A
    rebuilt block has the same panel, scaling and product shape, so every
    draw has the same bits whichever way it is read, and the maxima are
    exact.  A block with a row of 0 < V <= tau folded that row in, but no
    set of active ids holds it, so the rule never reads that maximum.

    ``ids`` are the kept scales: of the scales with V > 0, the at most
    ``kept_rows(p, B)`` with the highest t, less any found inactive.
    ``rows`` holds their draws, one row per id.  ``rebuilt`` counts the
    blocks built again.
    """

    def __init__(self, p: int, B: int, blocks: list, draw_block):
        self._blocks = blocks
        self._draw_block = draw_block
        self._block_of = np.full(p, -1, dtype=np.intp)
        for j, rows in enumerate(blocks):
            self._block_of[rows] = j
        keep = kept_rows(p, B)
        # the store starts empty: every row has id -1 and t = -inf
        self._id = np.full(keep, -1, dtype=np.intp)
        self._t = np.full(keep, -np.inf)
        self._rows = np.empty((keep, B))
        self._folded = np.zeros(len(blocks), dtype=np.intp)  # rows in each block maximum
        self._block_max = np.empty((len(blocks), B))
        self.rebuilt = 0

    @property
    def ids(self) -> np.ndarray:
        return self._id[self._id >= 0]

    @property
    def rows(self) -> np.ndarray:
        return self._rows[self._id >= 0]

    def _add(self, j: int, b_rows, v_rows, d) -> None:
        """Fold block j's draws d into its maximum and offer its rows with V > 0."""
        live = np.flatnonzero(v_rows > 0.0)
        self._folded[j] = live.size
        if live.size < d.shape[0]:
            d = d[live]
        self._block_max[j] = d.max(axis=0, initial=-np.inf)
        # t exactly as the field computes it
        t = b_rows[live] / np.sqrt(v_rows[live])
        # each newcomer that stays takes the row of one that goes: an empty
        # row while there are enough of them, else of the kept rows and these
        # the live.size with the lowest t go (an empty row has t = -inf)
        out = np.flatnonzero(self._id < 0)[: live.size]
        comers = slice(None)  # every newcomer
        if out.size < live.size:
            keep = self._t.size
            goes = np.zeros(keep + live.size, dtype=bool)
            goes[np.argpartition(np.concatenate((self._t, t)), live.size - 1)[: live.size]] = True
            out = np.flatnonzero(goes[:keep])
            comers = np.flatnonzero(~goes[keep:])
        self._rows[out] = d[comers]
        self._t[out] = t[comers]
        self._id[out] = self._blocks[j][live[comers]]

    def _finish(self, active: np.ndarray) -> None:
        """Drop the kept rows of scales with 0 < V <= tau."""
        # an empty row's id -1 reads some scale's flag, and stays -1 either way
        self._id[~active[self._id]] = -1

    def maxima(self, ids) -> np.ndarray:
        """Per-draw maxima of the draws over the given active scale ids."""
        ids = np.asarray(ids, dtype=np.intp)
        j_of = self._block_of[ids]
        whole = np.bincount(j_of, minlength=self._folded.size) == self._folded
        out = self._block_max[whole].max(axis=0, initial=-np.inf)
        # want[-1] is False, so an empty row's id -1 selects nothing
        want = np.zeros(self._block_of.size + 1, dtype=bool)
        want[ids[~whole[j_of]]] = True
        # FIELD_BLOCK kept rows at a time: no copy is larger than a block's draws
        kept = np.flatnonzero(want[self._id])
        for k in range(0, kept.size, FIELD_BLOCK):
            np.maximum(out, self._rows[kept[k : k + FIELD_BLOCK]].max(axis=0), out=out)
        want[self._id] = False
        for j in np.unique(j_of[want[ids]]):
            d = self._draw_block(j)
            self.rebuilt += 1
            np.maximum(out, d[want[self._blocks[j]]].max(axis=0), out=out)
        return out


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
        n rows in observation order, one column per draw.  If given, the
        field's ``draws`` is a ``KeptDraws`` of
        sum_i w_i(s) / sqrt(V(s)) * e_i, formed block by block from the
        engine's panels.  The field keeps a sorted copy and drops its own
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
    es = None
    if e is not None:
        es = np.asarray(e, dtype=float)
        if es.ndim == 0 or es.shape[0] != sample.n:
            raise DataError(f"e must have one row per observation ({sample.n})")
        es = es.reshape(sample.n, -1)[order]
        # e in observation order is no longer needed: if the caller passed a
        # temporary, only one copy of it stays alive through the blocks
        del e
    blocks, lo, hi, block = _field_engine(sample, set_, order)

    def draw_block(j):
        # the loop's product again, on the same panel
        rows = blocks[j]
        w = block(rows)[0]
        a = int(lo[rows].min())
        return _draw_rows(w, v[rows], es[a : a + w.shape[1]])

    draws = None if es is None else KeptDraws(p, es.shape[1], blocks, draw_block)
    for j, rows in enumerate(blocks):
        w, b_rows = block(rows)
        wlo, whi = lo[rows], hi[rows]
        a = int(wlo.min())
        span = slice(a, a + w.shape[1])
        b[rows] = b_rows
        panel = np.abs(w)
        absmax[rows] = panel.max(axis=1)
        np.multiply(w, w, out=panel)
        panel *= sig2[span]
        v_rows = _window_sums(panel, wlo - a, whi - a)
        v[rows] = v_rows
        del panel
        if draws is not None:
            # the block's draws, formed while its panel is at hand
            draws._add(j, b_rows, v_rows, _draw_rows(w, v_rows, es[span]))
        del w  # before the engine builds the next block
    tau = max(VAR_RTOL * float(v.max(initial=0.0)), VAR_FLOOR)
    active = v > tau
    if not active.any():
        raise DegenerateVarianceError("degenerate variance on every scale")
    active_ids = np.flatnonzero(active)
    if draws is not None:
        draws._finish(active)
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
