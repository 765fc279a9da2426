"""Adapters reducing richer regression models to the univariate test.

Each adapter takes a ``Sample`` and returns the ``Sample`` on which the
monotonicity of x alone is tested, its y stripped of what the controls add:
partialling-out for partially linear models, subtraction of the fitted
additive z component, a control-function step for endogenous regressors
(the exogenous u columns arrive as the sample's z), and a
selection-correction step based on the propensity of being observed.
All auxiliary regressions are ``sigma.series_fit`` calls: least squares on an
intercept plus Chebyshev polynomials of each variable, rescaled to [-1, 1]
over its observed range.  An adapter subtracts the share of the z (or
control, or propensity) blocks of its fit, read with ``SeriesFit.part`` at
the rows the fit was made on.  The degree defaults live in the adapters'
signatures only: the CLI passes a degree only when its flag was given.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .scales import _distinct
from .sigma import SeriesFit, poly_series_fit, series_fit
from .statistic import Sample

__all__ = ["partial_linear_adjust", "additive_adjust", "endogenous_adjust", "selection_adjust"]

PSCORE_CLAMP = 1e-3


def _check_correction_degree(L: int) -> None:
    """Reject L < 1: a degree-0 series has no g or lambda block, so it subtracts nothing."""
    if L < 1:
        raise DataError(f"--L must be >= 1, got {L}: a degree-0 series has no correction block")


def _additive_fit(x, z, y, L: int) -> SeriesFit:
    """Series fit of y on block 0, x with the intercept (f), and a block per column of z (g)."""
    cols = np.column_stack([x, z])
    names = ["x block"] + [f"z[{j}] block" for j in range(cols.shape[1] - 1)]
    return series_fit(cols, y, L, names)


def partial_linear_adjust(sample: Sample, first_stage_degree: int = 3) -> Sample:
    """Remove z'beta from y in a partially linear model y = f(x) + z'beta + noise.

    beta is estimated by partialling-out: one polynomial fit of the z columns
    and y on x gives residuals z-hat and y-hat, and beta solves the normal
    equations of y-hat on z-hat.  The adjusted response is y - z'beta.
    """
    if sample.z is None:
        raise DataError("partial-linear adjustment needs z columns")
    x, y, Z = sample.x, sample.y, sample.z
    d = Z.shape[1]
    # z over one power of two near its largest |z|: beta scales exactly, so
    # y - z'beta keeps its bits, and no sum of squares below can overflow
    Zs = np.ldexp(Z, -np.frexp(np.max(np.abs(Z)))[1])
    ZY = np.column_stack([Zs, y])
    resid = ZY - poly_series_fit(x, ZY, first_stage_degree).fitted
    z_resid, y_resid = resid[:, :d], resid[:, d]
    spanned = np.sum(z_resid**2, axis=0) <= 1e-24 * np.maximum(np.sum(Zs**2, axis=0), 1.0)
    if spanned.any():
        raise DataError(
            "collinear controls after partialling-out: "
            f"z column {int(np.argmax(spanned))} lies in the polynomial span of x"
        )

    M = z_resid.T @ z_resid
    scale = np.sqrt(np.diag(M))
    cond = np.linalg.cond(M / np.outer(scale, scale))
    if not np.isfinite(cond) or cond > 1e10:
        raise DataError(f"collinear controls after partialling-out (condition {cond:.3e})")
    beta = np.linalg.solve(M, z_resid.T @ y_resid)
    return Sample(x, y - Zs @ beta, z=Z)


def additive_adjust(sample: Sample, L: int = 4) -> Sample:
    """Subtract the z blocks g of an additive series fit of y on x and z: y-tilde = y - g(z).

    The intercept stays with the x block f, so y-tilde keeps the level of y.
    """
    if sample.z is None:
        raise DataError("additive adjustment needs z columns")
    _check_correction_degree(L)
    g = _additive_fit(sample.x, sample.z, sample.y, L).part(range(1, 1 + sample.z.shape[1]))
    return Sample(sample.x, sample.y - g, z=sample.z)


def endogenous_adjust(sample: Sample, first_stage_degree: int = 3, L: int = 4) -> Sample:
    """Control-function adjustment when x is endogenous and the z columns u are exogenous.

    The first stage regresses x on polynomials in u; the residual
    z-hat = x - E[x | u] is the control variable.  A joint additive series
    fit of y on (x, z-hat) then identifies the endogeneity component g, and
    the adjusted response is y - g(z-hat).  The result has no z columns.
    """
    if sample.z is None:
        raise DataError("endogenous adjustment needs the exogenous u columns as z")
    _check_correction_degree(L)
    x, u = sample.x, sample.z
    names = [f"u[{j}] block" for j in range(u.shape[1])]
    z_hat = x - series_fit(u, x, first_stage_degree, names).fitted
    # np.std of v / 2**e, scaled back: the same bits, and no square of |x| near 1e300 overflows
    e = np.frexp(np.max(np.abs(x)))[1]
    sd_z, sd_x = (float(np.ldexp(np.std(np.ldexp(v, -e)), e)) for v in (z_hat, x))
    if sd_z <= 1e-10 * max(sd_x, 1.0):
        raise DataError(
            "control variable is degenerate (x is a polynomial in u): "
            "the g block has nothing to fit"
        )
    return Sample(x, sample.y - _additive_fit(x, z_hat, sample.y, L).part(range(1, 2)))


def selection_adjust(
    sample: Sample, d, pscore_degree: int = 3, L: int = 4
) -> tuple[Sample, tuple[str, ...]]:
    """Correct for nonrandom selection using the estimated propensity score.

    A linear-probability series fit of the selection indicator d on
    polynomials in (x, z) gives p-hat, clamped away from 0 and 1.  On the
    selected rows an additive series fit of y on (x, p-hat) identifies the
    selection correction lambda, and the adjusted response is
    y - lambda(p-hat), on the selected rows only (original order kept).
    Returns that sample and the warnings for the report.
    """
    if sample.z is None:
        raise DataError("selection adjustment needs z columns")
    _check_correction_degree(L)
    d = np.asarray(d)
    if d.size != sample.n:
        raise DataError(f"selection indicator has {d.size} values for {sample.n} rows")
    d_vals = _distinct(d)
    if not np.all((d_vals == 0) | (d_vals == 1)):
        raise DataError(f"selection indicator must be binary 0/1, found values {d_vals}")
    mask = np.asarray(d, dtype=float).reshape(-1) == 1.0
    if not mask.any():
        raise DataError("no selected rows (d == 1)")

    fitted = _additive_fit(sample.x, sample.z, mask.astype(float), pscore_degree).fitted
    pscore = np.clip(fitted, PSCORE_CLAMP, 1.0 - PSCORE_CLAMP)

    x_sel, y_sel, z_sel, p_sel = sample.x[mask], sample.y[mask], sample.z[mask], pscore[mask]
    if float(np.ptp(p_sel)) <= 1e-10:
        # constant propensity: lambda is just a constant, absorbed by f
        warning = "propensity constant on selected rows; lambda set to zero"
        return Sample(x_sel, y_sel, z=z_sel), (warning,)
    lam = _additive_fit(x_sel, p_sel, y_sel, L).part(range(1, 2))
    return Sample(x_sel, y_sel - lam, z=z_sel), ()
