"""Naive oracles for the CSV loader, the field engine and the ladder; dense weights and draws."""

import csv
import math

import numpy as np

from monotest import DataError, quantile_upper, statistic
from monotest.scales import EPANECHNIKOV


def _column_positions(path: str, reader, names) -> list[int]:
    """Read the header row and give each name's position in it."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    positions = []
    for name in names:
        at = [j for j, h in enumerate(header) if h == name]
        if not at:
            raise DataError(f"{path}: missing column {name!r} (header: {header})")
        if len(at) > 1:
            raise DataError(
                f"{path}: column {name!r} appears more than once in the header "
                f"(positions {', '.join(str(j + 1) for j in at)})"
            )
        positions.append(at[0])
    return positions


def parse_cells(path: str, names) -> np.ndarray:
    """The named columns cell by cell, naming the first bad cell's row and column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        idx = dict(zip(names, _column_positions(path, reader, names)))
        cols: dict[str, list[float]] = {name: [] for name in names}
        for rownum, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            for name in names:
                j = idx[name]
                cell = row[j].strip() if j < len(row) else ""
                if cell == "":
                    raise DataError(f"{path}: blank cell at row {rownum}, column {name!r}")
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {cell!r} at row {rownum}, column {name!r}"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: non-finite value {cell!r} at row {rownum}, column {name!r}"
                    )
                cols[name].append(v)
    return np.array(list(cols.values()), dtype=float).T


def load_columns(path, names):
    """``cli.load_columns`` by the cell loop: a dict of contiguous columns, or its DataError."""
    names = list(dict.fromkeys(names))
    table = parse_cells(path, names)
    n = table.shape[0]
    if n < 2:
        raise DataError(f"{path}: need at least two data rows, found {n}")
    return {name: np.ascontiguousarray(table[:, j]) for j, name in enumerate(names)}


def draw_rows(draws, ids):
    """The draws of the given active scales, one row each: scale s's row is ``maxima([s])``."""
    return np.array([draws.maxima([s]) for s in ids])


def kernel_Q(x1, x2, x, h, k=0.0, kernel=EPANECHNIKOV):
    """Pairwise weight |x1 - x2|**k * K((x1 - x)/h) * K((x2 - x)/h) for the scale (x, h)."""
    base = kernel((x1 - x) / h) * kernel((x2 - x) / h)
    # 0.0 ** 0.0 == 1.0, so the k == 0 case needs no special treatment
    return abs(x1 - x2) ** k * base


def naive_w_b(sample, set_, r):
    """Direct double sums for w and b of scale r, with the z-cell product weighting.

    Also returns the error scales of the fast path.  It forms suffix sums as
    the window total minus a prefix sum, so its rounding error follows the
    window's kernel mass G (and GX = sum g * |x - x_first|**k), not the size
    of w or b: pairs with a tiny kernel weight next to a heavy window lose
    relative accuracy.
    """
    x, y, k = sample.x, sample.y, set_.k
    kx = np.asarray(set_.kernel((x - set_.x[r]) / set_.h[r]), dtype=float)
    g = kx
    if set_.z_loc is not None:
        for j in range(sample.z.shape[1]):
            zf = set_.kernel((sample.z[:, j] - set_.z_loc[r, j]) / set_.z_bw[r])
            g = g * np.asarray(zf, dtype=float)
    dx = x[None, :] - x[:, None]
    coef = np.sign(dx) * np.abs(dx) ** k * g[:, None] * g[None, :]
    w = coef.sum(axis=1)
    dy = y[:, None] - y[None, :]
    b = 0.5 * float(np.sum(dy * coef))
    inside = kx > 0
    if not inside.any():
        return w, b, 1e-300, 1e-300
    xw = x[inside]
    big_g = float(g.sum())
    big_gx = float(np.sum(g[inside] * np.abs(xw - xw.min()) ** k))
    span = float(xw.max() - xw.min()) ** k
    scale_w = float(np.max(np.abs(w))) + float(g.max()) * (big_g * span + big_gx)
    # the total variation of y along the window bounds every |y_i - y_lo|
    tv_y = np.abs(np.diff(y[inside][np.argsort(xw, kind="stable")])).sum()
    pairs = 0.5 * float(np.sum(np.abs(dy) * np.abs(dx) ** k * g[:, None] * g[None, :]))
    scale_b = pairs + float(tv_y) * big_g * (big_gx + big_g * span)
    return w, b, scale_w, scale_b


def window_weights(xw, kw, mw, k):
    """W on one sorted window of runs for a general k, by a double loop over the window.

    ``kw`` is each run's kernel factor and ``mw`` its mass, the kernel factor
    times the run's summed z-cell factor; a tied pair has dx = 0 and adds
    nothing.  The engine's pair matrix must give these bits.
    """
    dx = xw[None, :] - xw[:, None]
    return kw * ((np.sign(dx) * np.abs(dx) ** k) @ mw)


def _runs(sample, order):
    """Each sorted observation's tie run, and each run's first sorted observation."""
    xs = sample.x[order]
    run_of = np.cumsum(np.concatenate(([True], xs[1:] != xs[:-1]))) - 1
    return run_of, np.searchsorted(run_of, np.arange(run_of[-1] + 2))


def _z_factor(sample, set_, order, r):
    """Scale r's z-cell factor of each sorted observation, as the engine forms it, or None."""
    if set_.z_loc is None:
        return None
    zs = sample.z[order]
    zf = set_.kernel((zs[:, 0] - set_.z_loc[r, 0]) / set_.z_bw[r])
    for j in range(1, zs.shape[1]):
        zf = zf * set_.kernel((zs[:, j] - set_.z_loc[r, j]) / set_.z_bw[r])
    return zf


def run_blocks(sample, set_, order):
    """The engine's (rows, lo, hi, W, b) per block, in its block order, on run columns.

    The block step runs without multipliers, so W is the raw panel, in
    panels of the block's own, as a rebuild forms it; lo and hi bound each
    window in runs.
    """
    blocks, lo, hi, step = statistic._field_engine(sample, set_, order, np.ones(sample.n))
    for rows in blocks:
        W, b = step(rows)[:2]
        yield rows, lo[rows], hi[rows], W, b


def field_blocks(sample, set_, order, scale=None):
    """Generate the engine's (rows, lo, hi, w, b) per block, with w on observation columns.

    The engine's columns are tie runs; each is expanded back to its sorted
    observations, w_i = W_r * zf_i with the engine's association, so lo and
    hi bound each window in sorted observations.  Given a p-vector
    ``scale``, each row of W is multiplied by its scale first, as the engine
    scales W to W / sqrt(V) before its draw product.
    """
    run_of, start = _runs(sample, order)
    for rows, lo, hi, W, b in run_blocks(sample, set_, order):
        if scale is not None:
            W = W * scale[rows][:, None]
        a = start[lo.min()]
        cols = run_of[a : start[hi.max()]] - lo.min()
        w = W[:, cols]
        zf = _z_factor(sample, set_, order, rows[0])
        if zf is not None:
            w *= zf[a : a + cols.size]
        yield rows, start[lo], start[hi], w, b


def dense_w(sample, set_, scale=None):
    """The engine's weights, window by window, in a dense p x n matrix W, with b.

    Only each row's window cells are copied, so W is +0 outside the windows.
    ``scale`` is passed to ``field_blocks``.
    """
    order = statistic._sort_order(sample)
    W = np.zeros((set_.p, sample.n))
    b = np.zeros(set_.p)
    for rows, lo, hi, w, b_rows in field_blocks(sample, set_, order, scale):
        a = lo.min()
        for r, l, h, w_row in zip(rows, lo, hi, w):
            W[r, order[l:h]] = w_row[l - a : h - a]
        b[rows] = b_rows
    return W, b


def run_sums(values, start):
    """Each run's sum of the rows of values, added one row at a time from -0.0 in sorted order.

    The engine's run sums of zf * e, by rank in the run rather than by
    chunk: rank j adds the j-th row of every run that has one.
    """
    E = np.full((start.size - 1, values.shape[1]), -0.0)
    length = np.diff(start)
    for j in range(length.max()):
        has = length > j
        E[has] += values[start[:-1][has] + j]
    return E


def dense_draws(sample, set_, sigma, e):
    """Every scale's draws for the columns of e, in a dense p x B matrix.

    Each block of the engine gives the rows of its scales as one product of
    its run panel, scaled to W / sqrt(V), with the block's span of the run
    sums E_r of zf_i * e_i (``run_sums``; the sorted e itself when every run
    is one observation and there are no z-cells): the shape the engine
    uses, so the rows have its bits.  The rows of inactive scales are -inf,
    so they attain no maximum.
    """
    field = statistic.evaluate_field(sample, set_, sigma)
    order = statistic._sort_order(sample)
    es = np.asarray(e, dtype=float).reshape(sample.n, -1)[order]
    start = _runs(sample, order)[1]
    draws = np.full((set_.p, es.shape[1]), -np.inf)
    for rows, lo, hi, W, _ in run_blocks(sample, set_, order):
        zf = _z_factor(sample, set_, order, rows[0])
        E = es
        if zf is not None:
            E = run_sums(zf[:, None] * es, start)
        elif start.size <= sample.n:
            E = run_sums(es, start)
        v = field.v_hat[rows]
        f = np.zeros(rows.size)
        f[v > 0.0] = 1.0 / np.sqrt(v[v > 0.0])
        a = lo.min()
        draws[rows] = (W * f[:, None]) @ E[a : a + W.shape[1]]
    inactive = np.ones(set_.p, dtype=bool)
    inactive[field.active_ids] = False
    draws[inactive] = -np.inf
    return draws


def run_draws(sample, set_, sigma, cfg):
    """``dense_draws`` for the multiplier panel sigma_i * eps[i, b] of a bootstrap run."""
    sig = statistic._sigma_values(sigma, sample.n)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    return dense_draws(sample, set_, sig, gen.standard_normal((sample.n, cfg.B)) * sig[:, None])


def naive_ladder(field, draws, cfg):
    """The plug-in, one-step and step-down selections as three separate blocks.

    ``draws`` is the run's ``dense_draws``.  Returns the ladder as (ids,
    maxima, c, c_gamma) tuples in step order (PI, OS, then every set a
    step-down pass moves to), the number of step-down passes, and the
    warnings.  A selection that keeps no scale keeps every scale with t = T.
    """
    t = field.t

    def rung(ids):
        maxima = draws[ids].max(axis=0)
        c, c_gamma = (quantile_upper(maxima, 1 - level) for level in (cfg.alpha, cfg.gamma))
        return ids, maxima, c, c_gamma

    pi = rung(field.active_ids)
    c_pi_gamma = pi[3]
    top = np.flatnonzero(t == field.T)
    warnings = []

    os_ids = np.flatnonzero(t > -2.0 * c_pi_gamma)
    if not os_ids.size:
        os_ids = top
        warnings.append("one-step selection was empty; kept the scales that attain T")
    ladder = [pi, rung(os_ids)]

    iterations = 0
    while True:
        iterations += 1
        cur_ids, c_cur = ladder[-1][0], ladder[-1][3]
        keep = t[cur_ids] > -c_pi_gamma - c_cur
        if keep.all() or np.array_equal(cur_ids, top):
            break
        if keep.any():
            ladder.append(rung(cur_ids[keep]))
        else:
            ladder.append(rung(top))
            warnings.append("step-down selection emptied; kept the scales that attain T")
    return ladder, iterations, warnings


def power_series_fitted(columns, y, degree):
    """Fitted values of y on an intercept plus powers 1..degree of each column.

    The arithmetic of the package's former power-basis additive fit: each
    column is mapped onto [-1, 1] by (2v - (hi + lo)) / (hi - lo), its
    powers are stacked after the intercept, and lstsq solves the design.
    The span is that of the Chebyshev blocks, so the fitted values agree up
    to rounding.
    """
    columns = np.asarray(columns, dtype=float)
    parts = [np.ones(columns.shape[0])]
    for v in columns.T:
        lo, hi = v.min(), v.max()
        u = (2.0 * v - (hi + lo)) / (hi - lo)
        parts += [u**p for p in range(1, degree + 1)]
    design = np.column_stack(parts)
    return design @ np.linalg.lstsq(design, y, rcond=None)[0]
