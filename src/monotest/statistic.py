"""Test functions, variances, and the studentized maximum statistic.

Everything here derives from the pairwise comparison

    b(s) = 1/2 * sum_ij (Y_i - Y_j) * sign(X_j - X_i) * Q(X_i, X_j, s),

whose expectation is nonpositive for every nonnegative symmetric Q when the
regression function is nondecreasing.  Writing
w_i(s) = sum_j sign(X_j - X_i) Q(X_i, X_j, s) gives the identity
b(s) = sum_i Y_i w_i(s), the variance V(s) = sum_i sigma_i^2 w_i(s)^2, and
the statistic T = max over scales of b(s) / sqrt(V(s)).

One block engine computes all of it; the test suite pins it against naive
double sums.  A tied pair has sign 0 and adds nothing, so the engine's
columns are the tie runs of x: it sorts x once, finds the runs where sorted
x changes, finds every scale's window of runs with one bisection (a window
never splits a run), and evaluates the scales FIELD_BLOCK at a time on one
dense panel: a row per scale, a column per run of the block's span, the
union of its windows.  A cell is one (z_loc, z_bw) row of a z-local set;
a set without z-cells has one cell whose z-factor zf is 1.  Observation i
of run r has w_i = W_r * zf_i, so each cell needs only the run sums of zf,
zf * (y - y_first) and zf^2 * sigma^2 and the run maxima of zf, and a
block never mixes cells.  The kernel is zero outside each window, so
running sums along the rows give W in O(span) per scale for k in {0, 1};
any other k forms one pair matrix per block, read by each window.  The
weights of a window sum to zero, so b(s) = sum_i (Y_i - Y_lo(s)) w_i(s)
for the sorted Y_lo(s) at the window's first point.  The engine sums b
that way and V over each window's own runs, so both depend on the window
alone, and a constant Y gives b = +0 exactly.  When every run is one
observation and there are no z-cells, the runs are the observations and
the step skips the run sums.

Memory: with m runs (m <= n), a block's panels are (FIELD_BLOCK x span)
with span <= m + 1, and the engine keeps a handful of them only while it
works on that block, and a general k its (span x span) pair matrix.  V sums
each window on its own, so no window weights outlive their block.
Given bootstrap multipliers e (n x B), the engine forms each block's draws
as one matrix product of its panel with E, the m x B run sums of zf * e
for the block's cell (the sorted e itself when the runs are the
observations and there are no z-cells), folds them into the block's
per-draw maximum, offers them to a store of the R = min(p, KEEP_BYTES //
(8 * B)) rows with the highest t, and drops them.  With c cells and
c * m <= n, the field forms every cell's E before the blocks start,
FIELD_BLOCK columns of e at a time, and holds those c * m * B numbers in
place of e, so a temporary e is freed before the blocks start; otherwise
it holds e itself, not a sorted copy, and forms one cell's E at a time
from e's rows in sorted order.  A selection reads a block's maximum if it
holds the whole block, and else the kept rows, and rebuilds a block with
the same block step from what the field holds only when one of the
selection's rows in it is not kept.  ``field_allocations`` lists the
largest of these arrays with their sizes, and a field that cannot allocate
one, in its own pass or in a block it rebuilds later, raises a MemoryError
that names them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, DegenerateVarianceError
from .scales import ScaleSet, _distinct

if TYPE_CHECKING:
    from .sigma import SigmaEstimate

__all__ = ["Sample", "StudentizedField", "evaluate_field"]

# Scales whose variance falls below VAR_RTOL times the largest variance carry
# no information (their window holds fewer than two distinct points, or the
# noise there is numerically zero); they are excluded from the maximum and
# from every bootstrap draw symmetrically.
VAR_RTOL = 1e-12
VAR_FLOOR = 1e-300

# The field engine evaluates this many scales at a time on (FIELD_BLOCK x
# span) panels over the tie runs of x, so its temporaries are
# O(FIELD_BLOCK * n) bytes: one panel is at most FIELD_BLOCK * (runs + 1) * 8
# bytes, 1 MiB at 2,000 distinct x.  A smaller block has a narrower span,
# which saves work where windows are short next to it (small bandwidths,
# z-cells); each block costs fixed Python overhead.
FIELD_BLOCK = 64

# A field with B bootstrap draws keeps the draws of at most
# KEEP_BYTES // (8 * B) scales, those with the highest t.  Every selected set
# of the critical-value ladder is an upper set of the active t, so a set that
# fits needs no block built again.  A fallback keeps the scales that attain
# T, whose rows are kept unless more than R scales tie there.
# 8 MiB is 2,097 rows at B = 500: every row of an n = 200 set (p = 800).
# On the benchmark's seed-0 inputs (n = 2000), the z-cell set with ties has
# a one-step set of 1,385 scales and rebuilds no block; the partial-linear
# set's ladder runs 10,000 -> 2,184 -> 2,121 -> 2,116 scales and rebuilds 8,
# 6 and 6 blocks, each one that its set holds in part, with a row not kept.
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


def _pair_weights(kx, m, xr, lo, hi, k):
    """W of one block: kx_r times its window's sum of sign(x_j - x_r) * |x_j - x_r|**k * m_j.

    kx is the kernel panel and m the mass panel, kx times the runs' summed
    z-cell factor, over runs lo.min():hi.max().  k = 0 and 1 take running
    sums along the rows; any other k forms the span's pair matrix once, and
    each window reads its own square of it, so its sum is its own.
    """
    rows, width = m.shape
    a = int(lo.min())
    xw = xr[a : a + width]
    if k == 0.0:
        # the mass after each run - the mass before it
        cs = _running_sums(m)
        w = cs[np.arange(rows), hi - a][:, None] - cs[:, 1:]
        w -= cs[:, :-1]
    elif k == 1.0:
        xc = xw - xr[lo][:, None]  # window-relative: no cancellation far from 0
        cg = _running_sums(m)
        cxg = _running_sums(m * xc)
        ends = (np.arange(rows), hi - a)
        w = cxg[ends][:, None] - xc * cg[ends][:, None]
    else:
        pair = xw - xw[:, None]
        np.abs(pair, out=pair)
        pair **= k
        # the runs are sorted and distinct, so sign(x_j - x_i) is sign(j - i)
        np.negative(pair, out=pair, where=np.tri(width, k=-1, dtype=bool))
        w = np.zeros_like(m)
        for r, (l, h) in enumerate(zip((lo - a).tolist(), (hi - a).tolist())):
            w[r, l:h] = pair[l:h, l:h] @ m[r, l:h]
    w *= kx
    return w


def _z_factor(set_: ScaleSet, zs: np.ndarray, r: int) -> np.ndarray:
    """Scale r's z-cell factor at each row of zs, a product over coordinates taken in order."""
    bw, loc = set_.z_bw[r], set_.z_loc[r]
    zf = set_.kernel((zs[:, 0] - loc[0]) / bw)
    for j in range(1, zs.shape[1]):
        zf = zf * set_.kernel((zs[:, j] - loc[j]) / bw)
    return zf


def _cells(set_: ScaleSet):
    """A z-local set's cells, its distinct (z_loc, z_bw) rows: rep[c] is a scale of cell c.

    Scale s has cell cell_of[s].
    """
    cells = np.column_stack((set_.z_loc, set_.z_bw))
    _, rep, cell_of = np.unique(cells, axis=0, return_index=True, return_inverse=True)
    return rep, cell_of.reshape(-1)


def _field_engine(sample: Sample, set_: ScaleSet, order: np.ndarray, sig2: np.ndarray, e=None):
    """The blocks of live scales, every scale's window of runs, and the block step.

    The columns are the tie runs of x in sorted order ``order``: run r is
    sorted[first[r] : first[r + 1]].  A scale is live when its window,
    runs lo:hi, holds at least two runs; the others have w = 0 and b = 0
    and are in no block.  ``blocks`` lists the scale ids of each block, at
    most FIELD_BLOCK live scales of one cell, in id order within the cell.

    ``step(rows)`` gives a block's (W, b, V, max|w|, draws).  ``W`` is the
    (rows x span) panel over runs lo.min():hi.max(), zero outside each
    window; observation i of run r has w_i = W_r * zf_i, for zf_i its
    z-cell factor (1 without z-cells).  ``b`` is each scale's test function,
    the sum over its window of (YZ + Z * (y_first - y_lo)) * W, with Z, YZ
    the run sums of zf and zf * (y - y_first), y_first the run's first
    sorted y and y_lo that of the window's first run; its first cell is
    (+0) * (W >= 0), so constant y gives b = +0, and on lattice y a dyadic
    shift of y moves no bit of b.  V sums W * W * S2 over each window, for
    S2 the run sums of zf * zf * sig2 and the sorted variances ``sig2``,
    and max|w| is max |W| * max zf, taken before any scaling.  Given the
    multipliers ``e`` (n x B, in observation order), the step scales W in
    place to W / sqrt(V), 0 where V = 0, and its draws are one product of
    that panel with the span's rows of E, the run sums of zf * e of the
    block's cell; else the draws are None.  A block stepped again has
    the same bits.  A b or V that overflows to inf or NaN raises DataError,
    with no warning.

    With c cells of m runs, c * m <= n, the engine forms every cell's E
    before it returns and keeps no reference to e; otherwise it keeps e
    itself and forms one cell's E at a time, from e's rows in sorted order,
    when the cell changes.  When every run is one observation and the set
    has no z-cells, the runs are the sorted observations, E is the sorted e
    itself, and the step skips Z, YZ and max zf.  Everything runs once per
    block but the window products of a general k, one per scale from the
    block's one pair matrix.
    """
    xs = sample.x[order]
    ys = sample.y[order]
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    xr, yf = xs[first], ys[first]
    sx, sh, k = set_.x, set_.h, set_.k
    # a window never splits a run, since equal x give equal u
    lo, hi = _window_bounds(xr, sx, sh, set_.kernel.support_radius)
    # a pair with nonzero sign needs two runs: other windows keep w = 0 and b = 0
    ids = np.flatnonzero(hi - lo >= 2)
    groups = [ids]
    cell_of = np.zeros(set_.p, dtype=np.intp)
    rep = np.zeros(1, dtype=np.intp)
    zs = None
    if set_.z_loc is not None:
        zs = sample.z[order]
        rep, cell_of = _cells(set_)
        ids = ids[np.argsort(cell_of[ids], kind="stable")]
        groups = np.split(ids, np.flatnonzero(np.diff(cell_of[ids])) + 1)
    blocks = [g[s : s + FIELD_BLOCK] for g in groups for s in range(0, g.size, FIELD_BLOCK)]
    runs_are_obs = zs is None and first.size == xs.size

    def z_factor(c):
        return np.ones(xs.size) if zs is None else _z_factor(set_, zs, rep[c])

    def run_sums(cells):
        # each cell's E from e's rows in sorted order, FIELD_BLOCK columns at a
        # time: no n x B temporary
        Es = [np.empty((first.size, e.shape[1])) for _ in cells]
        for c0 in range(0, e.shape[1], FIELD_BLOCK):
            part = slice(c0, c0 + FIELD_BLOCK)
            chunk = e[order, part]
            for c, E in zip(cells, Es):
                E[:, part] = np.add.reduceat(z_factor(c)[:, None] * chunk, first, axis=0)
        return Es

    held = None
    if e is not None and (runs_are_obs or rep.size * first.size <= xs.size):
        held = [e[order]] if runs_are_obs else run_sums(range(rep.size))
        e = None  # the draws read what is held, so a temporary e can go
    current = {}

    def cell(c):
        # cell c's run sums (Z, YZ, S2, ZM) and E, formed when the cell changes
        if current.get("c") == c:
            return current["sums"], current["E"]
        current.clear()  # the last cell's E goes before this one's is formed
        E = None if held is None else held[c]
        if runs_are_obs:
            sums = (None, None, sig2, None)
        else:
            zf = z_factor(c)
            dy = ys - np.repeat(yf, np.diff(np.append(first, xs.size)))
            Z, YZ, S2 = (np.add.reduceat(v, first) for v in (zf, zf * dy, zf * zf * sig2))
            sums = (Z, YZ, S2, np.maximum.reduceat(zf, first))
            if e is not None:
                E = run_sums([c])[0]
        current.update(c=c, sums=sums, E=E)
        return sums, E

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is raised by name
    def step(rows):
        # a function, so that none of its panels outlives the block
        wlo, whi = lo[rows], hi[rows]
        a = int(wlo.min())
        span = slice(a, int(whi.max()))
        (Z, YZ, S2, ZM), E = cell(cell_of[rows[0]])
        # the kernel is zero where |u| >= support, which is outside the window
        kx = np.asarray(set_.kernel((xr[span] - sx[rows, None]) / sh[rows, None]), dtype=float)
        m = kx if Z is None else kx * Z[span]
        w = _pair_weights(kx, m, xr, wlo, whi, k)
        del kx, m  # before one more panel: b's terms, then |w|, then W * W * S2
        panel = np.subtract(yf[span], yf[wlo][:, None])
        if Z is not None:
            panel *= Z[span]
            panel += YZ[span]
        panel *= w
        b = _window_sums(panel, wlo - a, whi - a)
        np.abs(w, out=panel)
        if ZM is not None:
            panel *= ZM[span]
        absmax = panel.max(axis=1)
        np.multiply(w, w, out=panel)
        panel *= S2[span]
        v = _window_sums(panel, wlo - a, whi - a)
        del panel  # before the draws
        if not (np.isfinite(b).all() and np.isfinite(v).all()):
            raise DataError("the field overflows: b or V is not finite; rescale x or y")
        if E is None:
            return w, b, v, absmax, None
        w *= np.divide(1.0, np.sqrt(v), out=np.zeros(v.size), where=v > 0.0)[:, None]
        return w, b, v, absmax, w @ E[span]

    return blocks, lo, hi, step


def _sigma_values(sigma, n: int) -> np.ndarray:
    """The n per-observation standard deviations of a SigmaEstimate or an array."""
    sig = np.asarray(getattr(sigma, "values", sigma), dtype=float).reshape(-1)
    if sig.size != n:
        raise DataError(f"sigma length {sig.size} does not match sample size {n}")
    return sig


def kept_rows(p: int, B: int) -> int:
    """How many scales' draws a field of p scales and B draws keeps."""
    return min(p, max(1, KEEP_BYTES // (8 * B)))


def field_allocations(sample: Sample, set_: ScaleSet, B: int | None = None) -> list[tuple]:
    """The largest arrays a field allocates, as (name, bytes) pairs; with B draws, theirs too.

    They are a block's panels over the m tie runs of x, a handful at once,
    a general k's pair matrix, and with draws the kept rows and what the
    draws read: the sorted n x B multiplier panel when the runs are the
    observations and there are no z-cells; else, with c cells and
    c * m <= n, every cell's m x B run sums of the multipliers; else the
    multiplier panel itself, not a sorted copy, and one cell's run sums.
    """
    n, m = sample.n, _distinct(sample.x).size
    panel = f"each {FIELD_BLOCK} x {m + 1} block panel ({m} tie runs)"
    out = [(panel, FIELD_BLOCK * (m + 1) * 8)]
    if set_.k not in (0.0, 1.0):
        out.append((f"the {m + 1} x {m + 1} pair matrix of k = {set_.k}", (m + 1) ** 2 * 8))
    if B is not None:
        rows = kept_rows(set_.p, B)
        out.append((f"{rows} kept rows of {B} draws", rows * B * 8))
        c = 1 if set_.z_loc is None else _cells(set_)[0].size
        if m == n and set_.z_loc is None:
            out.append((f"the {n} x {B} multiplier panel", n * B * 8))
        elif c * m <= n:
            out.append((f"the {c} x {m} x {B} run sums", c * m * B * 8))
        else:
            out.append((f"the {m} x {B} run sums of one cell", m * B * 8))
            out.append((f"the {n} x {B} multiplier panel", n * B * 8))
    return out


def _out_of_memory(sample: Sample, set_: ScaleSet, B: int | None) -> MemoryError:
    """The MemoryError of a field or of a block it rebuilds: p, n and every allocation's size."""
    allocs = field_allocations(sample, set_, B)
    need = ", ".join(f"{size / 2**20:.1f} MiB for {name}" for name, size in allocs)
    return MemoryError(
        f"out of memory: {set_.p} scales x {sample.n} observations need {need};"
        " use fewer scales, rows or draws"
    )


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
    set of active ids holds it, so the rule never reads that maximum.  No
    call leaves anything for the next but the count ``rebuilt``: the same
    ids rebuild the same blocks on every call, and the store never holds
    more than its R kept rows.

    The kept scales are, of the scales with V > 0, the at most
    ``kept_rows(p, B)`` with the highest t, less any found inactive, each
    with its row of draws.  ``rebuilt`` counts the blocks built again.
    """

    def __init__(self, p: int, B: int, blocks: list, draw_block):
        self._blocks = blocks
        self._draw_block = draw_block
        self._block_of = np.full(p, -1, dtype=np.intp)
        for j, rows in enumerate(blocks):
            self._block_of[rows] = j
        keep = kept_rows(p, B)
        # the store starts empty: every row has id -1, and rows from _used on
        # have never held a draw
        self._id = np.full(keep, -1, dtype=np.intp)
        self._t = np.empty(keep)
        self._rows = np.empty((keep, B))
        self._used = 0
        self._folded = np.zeros(len(blocks), dtype=np.intp)  # rows in each block maximum
        self._block_max = np.empty((len(blocks), B))
        self.rebuilt = 0

    def _add(self, j: int, b_rows, v_rows, d) -> None:
        """Fold block j's draws d into its maximum and offer its rows with V > 0."""
        live = np.flatnonzero(v_rows > 0.0)
        self._folded[j] = live.size
        if live.size < d.shape[0]:
            d = d[live]
        self._block_max[j] = d.max(axis=0, initial=-np.inf)
        # t exactly as the field computes it
        t = b_rows[live] / np.sqrt(v_rows[live])
        # newcomers first take the rows never used, in order; of the kept rows
        # and the newcomers left over, that many with the lowest t go, and each
        # newcomer that stays takes the row of one that goes
        used = self._used
        top = self._used = min(self._t.size, used + live.size)
        fresh = top - used
        self._rows[used:top] = d[:fresh]
        self._t[used:top] = t[:fresh]
        self._id[used:top] = self._blocks[j][live[:fresh]]
        over = live.size - fresh
        goes = np.zeros(top + over, dtype=bool)
        goes[np.argpartition(np.concatenate((self._t[:top], t[fresh:])), over - 1)[:over]] = True
        out = np.flatnonzero(goes[:top])
        comers = fresh + np.flatnonzero(~goes[top:])
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
        nblocks = self._folded.size
        whole = np.bincount(j_of, minlength=nblocks) == self._folded
        out = self._block_max[whole].max(axis=0, initial=-np.inf)
        # want[-1] is False, so an empty row's id -1 selects nothing
        want = np.zeros(self._block_of.size + 1, dtype=bool)
        want[ids[~whole[j_of]]] = True
        kept = np.flatnonzero(want[self._id])
        want[self._id] = False
        # FIELD_BLOCK rows at a time: no copy is larger than a block's draws
        for k in range(0, kept.size, FIELD_BLOCK):
            np.maximum(out, self._rows[kept[k : k + FIELD_BLOCK]].max(axis=0), out=out)
        for j in np.flatnonzero(np.bincount(j_of[want[ids]], minlength=nblocks)):
            self.rebuilt += 1
            d = self._draw_block(j)[want[self._blocks[j]]]
            np.maximum(out, d.max(axis=0), out=out)
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
        engine's panels.  The field holds the run sums of e of every cell
        when they are no larger than e, and drops its own reference to e,
        so a temporary e is freed before the blocks start; else it holds e
        itself, not a sorted copy.

    Raises
    ------
    DataError
        If z-cells do not match the sample's z columns, sigma or e has the
        wrong length, or b or V overflows.
    DegenerateVarianceError
        If every scale is inactive, which signals a data/bandwidth mismatch.
    MemoryError
        If an array of the field or its draws cannot be allocated, here or in
        a later rebuild; the message gives p, n and each ``field_allocations`` size.
    """
    if set_.z_loc is not None:
        if sample.z is None:
            raise DataError("sample has no z columns")
        d, d_loc = sample.z.shape[1], set_.z_loc.shape[1]
        if d_loc != d:
            raise DataError(f"z_loc dimension {d_loc} does not match z dimension {d}")
    sig = _sigma_values(sigma, sample.n)
    order = _sort_order(sample)
    p = set_.p
    b = np.zeros(p)
    v = np.zeros(p)
    absmax = np.zeros(p)
    B = draws = None
    try:
        if e is not None:
            e = np.asarray(e, dtype=float)
            if e.ndim == 0 or e.shape[0] != sample.n:
                raise DataError(f"e must have one row per observation ({sample.n})")
            e = e.reshape(sample.n, -1)
            B = e.shape[1]
        blocks, _, _, step = _field_engine(sample, set_, order, (sig * sig)[order], e)
        # unless the engine holds e itself, a temporary e goes here
        del e
        if B is not None:
            def rebuild(j):  # the loop's step again, so its draws have the same bits
                try:
                    return step(blocks[j])[4]
                except MemoryError:
                    raise _out_of_memory(sample, set_, B) from None
            draws = KeptDraws(p, B, blocks, rebuild)
        for j, rows in enumerate(blocks):
            w, b[rows], v[rows], absmax[rows], d = step(rows)
            if draws is not None:
                draws._add(j, b[rows], v[rows], d)
            del w, d  # before the engine builds the next block
    except MemoryError:
        raise _out_of_memory(sample, set_, B) from None
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
