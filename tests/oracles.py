"""Naive oracles for the field engine and the bootstrap ladder, and a dense view of the weights."""

import numpy as np

from monotest import quantile_upper, statistic
from monotest.scales import EPANECHNIKOV


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


def dense_w(sample, set_):
    """The engine's weights, window by window, in a dense p x n matrix W, with b.

    Only each row's window cells are copied, so W is +0 outside the windows.
    """
    order = statistic._sort_order(sample)
    W = np.zeros((set_.p, sample.n))
    b = np.zeros(set_.p)
    for rows, lo, hi, w, b_rows in statistic._field_blocks(sample, set_, order):
        a = lo.min()
        for r, l, h, w_row in zip(rows, lo, hi, w):
            W[r, order[l:h]] = w_row[l - a : h - a]
        b[rows] = b_rows
    return W, b


def naive_ladder(field, n, cfg):
    """The plug-in, one-step and step-down selections as three separate blocks.

    Returns the ladder as (ids, maxima, c, c_gamma) tuples in step order (PI,
    OS, then every set a step-down pass moves to), the number of step-down
    passes, and the warnings.  A fallback scale is drawn from the run's own
    Philox stream, replayed past its n x B multipliers.
    """
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    gen.standard_normal((n, cfg.B))
    draws, t = field.draws.T, field.t

    def rung(ids):
        maxima = draws[:, ids].max(axis=1)
        c, c_gamma = (quantile_upper(maxima, 1 - level) for level in (cfg.alpha, cfg.gamma))
        return ids, maxima, c, c_gamma

    def fallback(ids):
        i = int(gen.integers(ids.size))
        return ids[i : i + 1]

    pi = rung(field.active_ids)
    c_pi_gamma = pi[3]
    warnings = []

    os_ids = np.flatnonzero(t > -2.0 * c_pi_gamma)
    if not os_ids.size:
        os_ids = fallback(field.active_ids)
        warnings.append("one-step selection was empty; kept a single fallback scale")
    ladder = [pi, rung(os_ids)]

    iterations = 0
    while True:
        iterations += 1
        cur_ids, c_cur = ladder[-1][0], ladder[-1][3]
        keep = t[cur_ids] > -c_pi_gamma - c_cur
        if not keep.any():
            ladder.append(rung(fallback(cur_ids)))
            warnings.append("step-down selection emptied; kept a single fallback scale")
            break
        if keep.all():
            break
        ladder.append(rung(cur_ids[keep]))
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
