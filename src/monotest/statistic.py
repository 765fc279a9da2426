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
block never mixes cells.  Nor does it mix bandwidths, unless one has fewer
than FIELD_BLOCK live scales in the cell: then it shares a block with the
next, so a set of few locations keeps its block count.  The kernel is zero
outside each window, so running sums along the rows give W in O(span) per
scale for k in {0, 1}; any other k forms one pair matrix per block, read
by each window.  The weights of a window sum to zero, so
b(s) = sum_i (Y_i - Y_lo(s)) w_i(s) for the sorted Y_lo(s) at the
window's first point.  The engine sums b that way and V over each
window's own runs, so both depend on the window alone, and a constant Y
gives b = +0 exactly.  When every run is one observation and there are
no z-cells, the runs are the observations and the step skips the run
sums.

Memory: with m runs (m <= n), a block's panels are (FIELD_BLOCK x span)
with span <= m.  Every block of the field's pass writes into the same two
flat panels, sized for the pass's largest block, which go when the pass
ends: the kernel panel, over which W is formed in place, and the scratch
panel, which takes the running sums, one column wider, and a chunk's
temporary as W is formed from them, then the window products of b, |W|
and V, then the block's draws.  A general k adds its (span x span)
pair matrix.  V sums each window on its own, so no window weights outlive
their block.  Given bootstrap multipliers e, n rows in observation order
as one array or as a stream of row chunks, the engine forms each block's
draws as one matrix product of its panel with E, the m x B run sums of
zf * e for the block's cell (the sorted e itself when the runs are the
observations and there are no z-cells), and folds them into the block's
per-draw maximum.  When all p rows of B draws fit in KEEP_BYTES, the
product writes them straight into the block's rows of one held buffer;
else into the scratch panel, and no draw outlives its block.  The
field reads e's chunks once, before the blocks start, into what it holds:
the sorted e, each chunk written to its sorted rows; or, with c cells and
c * m <= n, every cell's E, each chunk added in; otherwise e itself, not
a sorted copy, from which it forms one cell's E at a time.  So a stream
never makes an n x B array beside what the field holds.  A selection
reads a block's maximum if it holds the whole block, and else the
block's held draws, or the per-draw maximum kept from the last selection
that read the same rows of the block; or else it rebuilds the block with
the same block step from what the field holds and the pass's V, in two
panels sized to that block, and keeps only the maximum over the rows it
reads there.
``field_allocations`` lists the largest of these arrays with their sizes,
and a field that cannot allocate one, in its own pass or in a block it
rebuilds later, raises a MemoryError that names them all.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
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

# The field reads the bootstrap multipliers CHUNK_ROWS observations at a
# time: the bootstrap draws them in chunks of that many rows, and the run
# sums add any chunk in slices of that many, so neither makes a temporary
# that grows with n.  At B = 500 a chunk is 250 KiB.
CHUNK_ROWS = 64

# k = 0 combines its running sums into W, and k = 1 on z-cells forms its
# mass times x - x_lo, this many columns at a time, through a (FIELD_BLOCK
# x _CHUNK_COLS) temporary at the end of the scratch panel: 32 KiB, where a
# third panel would be 1 MiB at 2,000 distinct x.  The chunks change no
# bit; each costs fixed Python overhead.
_CHUNK_COLS = 64

# A field with B bootstrap draws holds every draw of its pass when all p
# rows fit in KEEP_BYTES, and else holds none: of each block a selection
# reads in part it keeps only the per-draw maximum over the rows read, so
# a later selection that reads the same rows there rebuilds nothing.
# 8 MiB is 2,097 rows at B = 500: every row of an n = 200 set (p = 800),
# which rebuilds no block.  On the benchmark's seed-0 inputs (n = 2000),
# the partial-linear set's ladder runs 10,000 -> 2,184 -> 2,121 -> 2,116
# scales and rebuilds 8, 7 and 3 of its 160 blocks; the z-cell set with
# ties runs 3,015 -> 1,385 -> 1,375 and rebuilds 21 and 9 of its 60.
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

    ``draws`` is None unless ``evaluate_field`` was given multipliers e, n
    rows in observation order.  Then it is a ``KeptDraws``: the per-draw
    maxima of sum_i a_i(s) * e_i, a_i(s) = w_i(s) / sqrt(v_hat(s)), over
    any set of active scales, read from each block's folded maximum, from
    the pass's draws when they fit in KEEP_BYTES, from a block's maximum
    kept for the rows a selection read, or from a block built again.  With
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


@np.errstate(over="ignore")  # a u of +-inf still falls on its side of the bound
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


def _panel(work: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols entries of a flat workspace, as a C-ordered (rows x cols) panel."""
    return work[: rows * cols].reshape(rows, cols)


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


def _pair_weights(kx, Z, xr, lo, hi, k, scratch):
    """W of one block, formed in place over its kernel panel kx.

    W_r is kx_r times its window's sum of sign(x_j - x_r) * |x_j - x_r|**k
    * m_j, for the mass m = kx * Z, Z the span's run sums of the z-cell
    factor (m = kx when Z is None), over runs lo.min():hi.max().  k = 0 and
    1 take running sums of the mass along the rows in the flat ``scratch``;
    where a step reads them while it writes W, or needs m beside another
    panel, it runs _CHUNK_COLS columns at a time through a temporary at the
    scratch's end, so no third panel exists.  Any other k forms the span's
    pair matrix once, and each window reads its own square of it into the
    scratch, so its sum is its own.
    """
    rows, width = kx.shape
    a = int(lo.min())
    xw = xr[a : a + width]
    if k not in (0.0, 1.0):
        pair = xw - xw[:, None]
        np.abs(pair, out=pair)
        pair **= k
        # the runs are sorted and distinct, so sign(x_j - x_i) is sign(j - i)
        np.negative(pair, out=pair, where=np.tri(width, k=-1, dtype=bool))
        w = _panel(scratch, rows, width)
        w.fill(0.0)
        for r, (l, h) in enumerate(zip((lo - a).tolist(), (hi - a).tolist())):
            w[r, l:h] = pair[l:h, l:h] @ (kx[r, l:h] if Z is None else kx[r, l:h] * Z[l:h])
        kx *= w
        return kx
    # the running sums through each run and through the run before it, after
    # a leading zero column.  A row is zero before its window and an
    # accumulate adds strictly left to right, so within the window they are
    # np.cumsum of the window, bit for bit, whatever the span
    cs = _panel(scratch, rows, width + 1)
    cs[:, 0] = 0.0
    through, before = cs[:, 1:], cs[:, :-1]
    np.cumsum(kx if Z is None else np.multiply(kx, Z, out=through), axis=1, out=through)
    ends = (np.arange(rows), hi - a)
    total = cs[ends][:, None]  # each window's mass
    chunks = [slice(j, min(j + _CHUNK_COLS, width)) for j in range(0, width, _CHUNK_COLS)]
    temps = [_panel(scratch[cs.size :], rows, c.stop - c.start) for c in chunks]
    if k == 0.0:
        # the mass after each run - the mass before it
        for c, t in zip(chunks, temps):
            np.subtract(total, through[:, c], out=t)
            t -= before[:, c]
            kx[:, c] *= t
        return kx
    # the running sums of m * xc, for xc = x - x_lo, window-relative so that
    # nothing cancels far from 0
    x_lo = xr[lo][:, None]
    xc = np.subtract(xw, x_lo, out=through)
    if Z is None:
        xc *= kx
    else:
        for c, m in zip(chunks, temps):
            xc[:, c] *= np.multiply(kx[:, c], Z[c], out=m)
    np.cumsum(through, axis=1, out=through)
    cxg = cs[ends][:, None]
    # the running sums are spent: xc * total takes their panel
    xc = np.subtract(xw, x_lo, out=_panel(scratch, rows, width))
    xc *= total
    np.subtract(cxg, xc, out=xc)
    kx *= xc
    return kx


@np.errstate(over="ignore")  # a z far outside the cell, in units of z_bw, has weight 0
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


def _add_run_sums(E, runs, zf, chunk, work) -> None:
    """Add a chunk of observations' zf * e into their runs' sums E, in observation order.

    E is (cells x m x B), ``runs`` the run of each of the chunk's rows and
    ``zf`` their (cells x rows) z-cell factors, or None for 1.  Each rank
    adds the k-th row of every run in the chunk with one fancy ``+=``, one
    cell at a time; a run is in a rank at most once, so no sum loses an
    addend.  So each run's sum is ((-0.0 + a_1) + a_2) + ... over its rows
    in observation order, the same bits whatever the chunks.  That is not
    ``np.add.reduceat``'s sum, which adds a run's rows after its first
    pairwise, and no streamed sum can give it for a run of three or more.
    ``work`` is three flat buffers of rows x B entries, so the sums
    allocate nothing per chunk.
    """
    B = E.shape[2]
    o = np.argsort(runs, kind="stable")
    start = np.flatnonzero(np.diff(runs[o], prepend=-1))
    count = np.diff(np.append(start, runs.size))
    for k in range(int(count.max(initial=0))):
        at = o[start[count > k] + k]
        r = runs[at]
        # every index is in range: "clip" only spares the copy through a
        # buffer of out's size that take's default mode makes
        a = np.take(chunk, at, axis=0, mode="clip", out=_panel(work[0], at.size, B))
        za = _panel(work[1], at.size, B)
        for c, Ec in enumerate(E):
            add = a if zf is None else np.multiply(zf[c, at, None], a, out=za)
            s = np.take(Ec, r, axis=0, mode="clip", out=_panel(work[2], at.size, B))
            s += add
            Ec[r] = s


def _sum_work(m: int, B: int) -> list:
    """The buffers of ``_add_run_sums`` for chunks of at most CHUNK_ROWS rows over m runs."""
    return [np.empty(min(CHUNK_ROWS, m) * B) for _ in range(3)]


def _field_engine(sample: Sample, set_: ScaleSet, order: np.ndarray, sig2: np.ndarray,
                  e=None, B=None):
    """The blocks of live scales, every scale's window of runs, and the block step.

    The columns are the tie runs of x in sorted order ``order``: run r is
    sorted[first[r] : first[r + 1]].  A scale is live when its window,
    runs lo:hi, holds at least two runs; the others have w = 0 and b = 0
    and are in no block.  ``blocks`` lists the scale ids of each block, at
    most FIELD_BLOCK live scales of one cell, in id order within the cell;
    the ids of a bandwidth with FIELD_BLOCK live scales or more in the cell
    end a block, so only a bandwidth with fewer shares one with the next.

    ``step(rows, work=None, out=None, v=None)`` gives a block's (W, b, V,
    max|w|, draws).
    ``W`` is the (rows x span) panel over runs lo.min():hi.max(), zero
    outside each window; observation i of run r has w_i = W_r * zf_i, for
    zf_i its z-cell factor (1 without z-cells).  ``b`` is each scale's test
    function, the sum over its window of (YZ + Z * (y_first - y_lo)) * W,
    with Z, YZ the run sums of zf and zf * (y - y_first), y_first the run's
    first sorted y and y_lo that of the window's first run; its first cell
    is (+0) * (W >= 0), so constant y gives b = +0, and on lattice y a
    dyadic shift of y moves no bit of b.  V sums W * W * S2 over each window, for
    S2 the run sums of zf * zf * sig2 and the sorted variances ``sig2``,
    and max|w| is max |W| * max zf, taken before any scaling.  Given the
    multipliers ``e``, (start, chunk) pairs of B columns that fill n rows in
    observation order, the step scales W in place to W / sqrt(V), 0 where
    V = 0, and its draws are one product of that panel with the span's rows
    of E, the run sums of zf * e of the block's cell (``_add_run_sums``);
    else the draws are None.  A block stepped again has the same bits.  A b
    or V that overflows to inf or NaN raises DataError, with no warning.
    Given the block's V ``v`` as the pass found it, the step skips b, V,
    max|w| and the overflow check, which the pass made, and gives None for
    b and max|w|: a rebuild needs only the draws.

    The step writes into two flat panels: ``work``, the ``_workspaces`` of
    a group of blocks that the caller holds across their steps, so W is a
    view that the next step overwrites; or, without it, two sized to this
    block, which go with the views it returns.  W is formed over the kernel
    panel; the scratch panel takes the running sums, the window products
    and the draws, unless they go into the first rows of ``out``.  The
    engine reads e's chunks once, before it returns, and keeps none.  When
    every run is one observation and the set has no z-cells, the runs are
    the sorted observations: it writes each chunk to its sorted rows, E is
    that sorted e, and the step skips Z, YZ and max zf.  Else, with c cells
    of m runs and c * m <= n, it adds each chunk into every cell's E;
    otherwise it holds e itself and forms one cell's E at a time when the
    cell changes.  Everything runs once per block but the window products
    of a general k, one per scale from the block's one pair matrix, and
    the chunked steps of ``_pair_weights``, once per chunk of columns.
    """
    n = sample.n
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
    blocks = []
    for g in groups:
        # a bandwidth of FIELD_BLOCK live scales or more ends its cell's block,
        # so only a smaller one shares a block with the next bandwidth
        edges = np.flatnonzero(sh[g][1:] != sh[g][:-1]) + 1
        for part in np.split(g, edges[np.diff(edges, prepend=0) >= FIELD_BLOCK]):
            blocks += [part[s : s + FIELD_BLOCK] for s in range(0, part.size, FIELD_BLOCK)]
    runs_are_obs = zs is None and first.size == n
    # each observation's run, in observation order
    run_of = np.empty(n, dtype=np.intp)
    run_of[order] = np.repeat(np.arange(first.size), np.diff(np.append(first, n)))

    held = None  # (cells x m x B): every cell's E, or the sorted e as one cell's
    if e is not None:
        if runs_are_obs:
            held = np.empty((1, n, B))
            where = np.empty(n, dtype=np.intp)
            where[order] = np.arange(n)
            for i, chunk in e:
                held[0, where[i : i + chunk.shape[0]]] = chunk
        elif rep.size * first.size <= n:
            held = np.full((rep.size, first.size, B), -0.0)
            zf = None if zs is None else np.array([_z_factor(set_, sample.z, c) for c in rep])
            buffers = _sum_work(first.size, B)
            for i, chunk in e:
                for j in range(0, chunk.shape[0], CHUNK_ROWS):
                    part = chunk[j : j + CHUNK_ROWS]
                    r = slice(i + j, i + j + part.shape[0])
                    _add_run_sums(held, run_of[r], None if zf is None else zf[:, r], part, buffers)
            del buffers
        else:
            e_obs = None
            for i, chunk in e:
                if chunk.shape[0] == n:
                    e_obs = chunk  # an array of n rows is held itself, not copied
                    continue
                if e_obs is None:
                    e_obs = np.empty((n, B))
                e_obs[i : i + chunk.shape[0]] = chunk
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
            zf = np.ones(n) if zs is None else _z_factor(set_, zs, rep[c])
            dy = ys - np.repeat(yf, np.diff(np.append(first, n)))
            Z, YZ, S2 = (np.add.reduceat(v, first) for v in (zf, zf * dy, zf * zf * sig2))
            sums = (Z, YZ, S2, np.maximum.reduceat(zf, first))
            if B is not None and held is None:
                E = np.full((1, first.size, B), -0.0)
                zc = _z_factor(set_, sample.z, rep[c])[None]
                buffers = _sum_work(first.size, B)
                for i in range(0, n, CHUNK_ROWS):
                    r = slice(i, i + CHUNK_ROWS)
                    _add_run_sums(E, run_of[r], zc[:, r], e_obs[r], buffers)
                E = E[0]
        current.update(c=c, sums=sums, E=E)
        return sums, E

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is raised by name
    def step(rows, work=None, out=None, v=None):
        kernel, scratch = work or _workspaces([rows], lo, hi, B or 0)
        wlo, whi = lo[rows], hi[rows]
        a = int(wlo.min())
        span = slice(a, int(whi.max()))
        width = span.stop - a
        (Z, YZ, S2, ZM), E = cell(cell_of[rows[0]])
        # the kernel is zero where |u| >= support, which is outside the window
        kx = np.subtract(xr[span], sx[rows, None], out=_panel(kernel, rows.size, width))
        kx /= sh[rows, None]
        set_.kernel(kx, out=kx)
        w = _pair_weights(kx, None if Z is None else Z[span], xr, wlo, whi, k, scratch)
        b = absmax = None
        if v is None:
            # b's terms, then |w|, then W * W * S2 take the scratch panel
            panel = np.subtract(yf[span], yf[wlo][:, None], out=_panel(scratch, rows.size, width))
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
            if not (np.isfinite(b).all() and np.isfinite(v).all()):
                raise DataError("the field overflows: b or V is not finite; rescale x or y")
        if E is None:
            return w, b, v, absmax, None
        w *= np.divide(1.0, np.sqrt(v), out=np.zeros(v.size), where=v > 0.0)[:, None]
        out = _panel(scratch, rows.size, B) if out is None else out[: rows.size]
        return w, b, v, absmax, np.matmul(w, E[span], out=out)

    return blocks, lo, hi, step


def _workspaces(blocks, lo, hi, B=0):
    """The flat kernel and scratch panels that fit each of the blocks' steps.

    The scratch takes a block's running sums, one more column than its
    span, and the temporary of a chunk of columns, or its B draws.
    """
    shapes = [(rows.size, int(hi[rows].max() - lo[rows].min())) for rows in blocks]
    kernel = max((r * c for r, c in shapes), default=0)
    scratch = max((r * max(c + 1 + min(_CHUNK_COLS, c), B) for r, c in shapes), default=0)
    return np.empty(kernel), np.empty(scratch)


def _sigma_values(sigma, n: int) -> np.ndarray:
    """The n per-observation standard deviations of a SigmaEstimate or an array."""
    sig = np.asarray(getattr(sigma, "values", sigma), dtype=float).reshape(-1)
    if sig.size != n:
        raise DataError(f"sigma length {sig.size} does not match sample size {n}")
    return sig


def field_allocations(sample: Sample, set_: ScaleSet, B: int | None = None) -> list[tuple]:
    """The largest arrays a field allocates, as (name, bytes) pairs; with B draws, theirs too.

    They are the two panels of a block over the m tie runs of x, at most
    FIELD_BLOCK rows each: the kernel panel, in which W is formed, and the
    scratch panel, which takes the running sums and a chunk's temporary,
    the window products, and the block's draws unless the pass holds them;
    a general k's pair matrix; and with draws the draws that the pass holds
    when all p rows fit in KEEP_BYTES, and what the draws read: the sorted
    n x B multiplier panel when the runs are the observations and there are
    no z-cells; else, with c cells and c * m <= n, every cell's m x B run
    sums of the multipliers; else the multiplier panel itself, not a sorted
    copy, and one cell's run sums.  The multipliers are read a chunk of
    rows at a time, so no other n x B array is made.
    """
    n, m = sample.n, _distinct(sample.x).size
    held = B is not None and set_.p * B * 8 <= KEEP_BYTES
    cols = max(m + 1 + min(_CHUNK_COLS, m), 0 if B is None or held else B)
    out = [
        (f"the {FIELD_BLOCK} x {m} kernel panel ({m} tie runs)", FIELD_BLOCK * m * 8),
        (f"the {FIELD_BLOCK} x {cols} scratch panel", FIELD_BLOCK * cols * 8),
    ]
    if set_.k not in (0.0, 1.0):
        out.append((f"the {m + 1} x {m + 1} pair matrix of k = {set_.k}", (m + 1) ** 2 * 8))
    if B is not None:
        if held:
            out.append((f"at most {set_.p} x {B} held draws", set_.p * B * 8))
        c = 1 if set_.z_loc is None else _cells(set_)[0].size
        if m == n and set_.z_loc is None:
            out.append((f"the {n} x {B} sorted multiplier panel", n * B * 8))
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


def _masked_max(d: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The columns' maxima over the rows of d where ``rows`` is True, without copying them."""
    return d.max(axis=0, where=rows[:, None], initial=-np.inf)


class KeptDraws:
    """A field's bootstrap draws, held in memory that does not grow with p.

    ``maxima(ids)`` gives the per-draw maxima of the draws over any set of
    active scale ids, by one rule for every block.  A block whose rows with
    V > 0 are all in the set answers with the maximum folded in as the
    engine formed it.  Any other block it touches answers with the maximum
    over its rows in the set: read from the pass's draws when the store
    holds them, else kept from the last call whose rows there were the
    same, else taken from the block rebuilt.  A rebuilt block has the same
    panel, scaling and product shape, so every draw has the same bits
    whichever way it is read, and the maxima are exact.  A block with a row
    of 0 < V <= tau folded that row in, but no set of active ids holds it,
    so the rule never reads that maximum.

    The store holds the draws of every block of the pass, in one
    (live scales x B) buffer that the pass writes into, when all p rows of
    B draws fit in KEEP_BYTES; then it never rebuilds.  Else it holds no
    draw: the pass writes each block's draws into its scratch panel, and
    the store keeps, for each block it read in part, that block's rows in
    the call's ids and their per-draw maximum.  A rebuild forms the
    block's draws in a scratch panel of its own, from the pass's V, and
    drops them as soon as it has reduced them.  The ladder's sets are nested
    upper sets of t, so a later rung rebuilds only the blocks whose rows in
    the set change.  ``rebuilt`` counts the blocks built again.
    """

    def __init__(self, p: int, B: int, blocks: list, draw_block):
        self._blocks = blocks
        self._draw_block = draw_block
        self._block_of = np.full(p, -1, dtype=np.intp)
        for j, rows in enumerate(blocks):
            self._block_of[rows] = j
        self._held = None  # each block's draws of the pass, views of one buffer
        if p * B * 8 <= KEEP_BYTES:
            held = np.empty((sum(map(len, blocks)), B))
            self._held = np.split(held, np.cumsum([len(rows) for rows in blocks[:-1]]))
        self._parts = {}  # block -> (its rows in the last call's ids, their per-draw maximum)
        self._folded = np.zeros(len(blocks), dtype=np.intp)  # rows in each block maximum
        self._block_max = np.empty((len(blocks), B))
        self.rebuilt = 0

    def _add(self, j: int, v_rows, d) -> None:
        """Fold block j's draws d into its maximum over its rows with V > 0."""
        live = v_rows > 0.0
        self._folded[j] = np.count_nonzero(live)
        self._block_max[j] = (d if live.all() else d[live]).max(axis=0, initial=-np.inf)

    def _part_max(self, j: int, rows) -> np.ndarray:
        """Block j's per-draw maximum over ``rows``, a mask of its rows."""
        if self._held is not None:
            return _masked_max(self._held[j], rows)
        kept = self._parts.get(j)
        if kept is None or not np.array_equal(kept[0], rows):
            self.rebuilt += 1
            kept = self._parts[j] = rows, _masked_max(self._draw_block(j), rows)
        return kept[1]

    def maxima(self, ids) -> np.ndarray:
        """Per-draw maxima of the draws over the given active scale ids."""
        ids = np.asarray(ids, dtype=np.intp)
        count = np.bincount(self._block_of[ids], minlength=self._folded.size)
        out = _masked_max(self._block_max, count == self._folded)
        want = np.zeros(self._block_of.size, dtype=bool)
        want[ids] = True
        for j in np.flatnonzero((count > 0) & (count != self._folded)):
            np.maximum(out, self._part_max(j, want[self._blocks[j]]), out=out)
        return out


def _row_chunks(e, n: int):
    """e's rows in observation order as (start, chunk) pairs of 2-D chunks.

    An iterator is a stream of chunks; anything else is an array of n rows,
    one chunk (a 1-D e is one draw).  The chunks must fill n rows, all with
    the first chunk's columns, or DataError is raised as they are read.
    """
    if not isinstance(e, Iterator):
        e = np.asarray(e, dtype=float)
        if e.ndim == 0 or e.shape[0] != n:
            raise DataError(f"e must have one row per observation ({n})")
        e = iter([e.reshape(n, -1)])
    start, B = 0, None
    for chunk in e:
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim != 2 or B not in (None, chunk.shape[1]):
            raise DataError(f"each chunk of e must be 2-D with {B} columns, got shape {chunk.shape}")
        B = chunk.shape[1]
        start += chunk.shape[0]
        if start > n:
            break
        yield start - chunk.shape[0], chunk
    if start != n:
        raise DataError(f"the chunks of e must give one row per observation ({n})")


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
    e : array_like or iterator of array_like, optional
        n rows in observation order, one column per draw: an array, or an
        iterator of 2-D row chunks in order that together give the n rows
        (the bootstrap's stream).  If given, the field's ``draws`` is a
        ``KeptDraws`` of sum_i w_i(s) / sqrt(V(s)) * e_i, formed block by
        block from the engine's panels.  The field reads the chunks once
        into what it holds: the sorted e without ties or z-cells, else the
        run sums of e of every cell when they are no larger than e, else e
        itself, not a sorted copy.  An array and any chunking of its rows
        give the same bits.

    Raises
    ------
    DataError
        If z-cells do not match the sample's z columns, sigma or e has the
        wrong length, e's chunks do not give n rows of one width, or b or V
        overflows.
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
            e = _row_chunks(e, sample.n)
            head = next(e)
            B = head[1].shape[1]
            e = itertools.chain([head], e)
            del head  # so that the engine holds no chunk once it has read it
        blocks, lo, hi, step = _field_engine(sample, set_, order, (sig * sig)[order], e, B)
        del e
        held = None
        if B is not None:
            def rebuild(j):  # the loop's step with the pass's V, so its draws have the same bits
                try:
                    return step(blocks[j], v=v[blocks[j]])[4]
                except MemoryError:
                    raise _out_of_memory(sample, set_, B) from None
            draws = KeptDraws(p, B, blocks, rebuild)
            held = draws._held
        # the pass's panels fit its widest block and go when it ends: a
        # rebuild forms its block in panels of its own size.  The scratch
        # takes each block's draws unless the pass holds them
        work = _workspaces(blocks, lo, hi, (B or 0) if held is None else 0)
        outs = itertools.repeat(None) if held is None else held
        for j, (rows, out) in enumerate(zip(blocks, outs)):
            w, b[rows], v[rows], absmax[rows], d = step(rows, work, out)
            if draws is not None:
                draws._add(j, v[rows], d)
            del w, d, out  # before the engine builds the next block
        del work, outs
    except MemoryError:
        raise _out_of_memory(sample, set_, B) from None
    tau = max(VAR_RTOL * float(v.max(initial=0.0)), VAR_FLOOR)
    active = v > tau
    if not active.any():
        raise DegenerateVarianceError("degenerate variance on every scale")
    active_ids = np.flatnonzero(active)
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
