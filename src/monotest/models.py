"""Adapters reducing richer regression models to the univariate test.

Each adapter removes the contribution of auxiliary variables from y and
returns an adjusted sample on which the monotonicity of x alone can be
tested: partialling-out for partially linear models, subtraction of an
additive component, a control-function step for endogenous regressors, and
a selection-correction step based on the propensity of being observed.
All nuisance regressions are ``sigma.series_fit`` calls: least squares on an
intercept plus Chebyshev polynomials of each variable, rescaled to [-1, 1]
over its observed range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError
from .sigma import SeriesFit, poly_series_fit, series_fit
from .statistic import Sample

__all__ = [
    "AdjustedSample",
    "additive_series_fit",
    "partial_linear_adjust",
    "additive_adjust",
    "endogenous_adjust",
    "selection_adjust",
]

PSCORE_CLAMP = 1e-3


@dataclass(frozen=True)
class AdjustedSample:
    """An adjusted sample (y replaced by y-tilde) plus the estimated nuisances."""

    base: Sample
    adjustment: str
    nuisance: dict


def check_correction_degree(L: int) -> None:
    """Reject L < 1: a degree-0 series has no g or lambda block, so it subtracts nothing."""
    if L < 1:
        raise DataError(f"--L must be >= 1, got {L}: a degree-0 series has no correction block")


def additive_series_fit(x, z, y, L: int = 4) -> SeriesFit:
    """Fit y on additive polynomial blocks in x and in each column of z.

    Block 0 is x and carries the shared intercept (f); blocks 1..d are the
    z columns (g), whose constants are not separately identified.

    Parameters
    ----------
    x, y : array_like, length n
    z : array_like, n or n x d
    L : int
        Chebyshev degree per block.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z.reshape(-1, 1)
    n, d = z.shape
    if x.size != n or y.size != n:
        raise DataError("x, y, z must share the number of rows")
    names = ["x block"] + [f"z[{j}] block" for j in range(d)]
    return series_fit(np.column_stack([x, z]), y, L, names)


def partial_linear_adjust(sample: Sample, first_stage_degree: int = 3) -> AdjustedSample:
    """Remove z'beta from y in a partially linear model y = f(x) + z'beta + noise.

    beta is estimated by partialling-out: one polynomial fit of the z columns
    and y on x gives residuals z-hat and y-hat, and beta solves the normal
    equations of y-hat on z-hat.  The adjusted response is y - z'beta.
    """
    if sample.z is None:
        raise DataError("partial-linear adjustment needs z columns")
    x, y, Z = sample.x, sample.y, sample.z
    d = Z.shape[1]
    ZY = np.column_stack([Z, y])
    resid = ZY - poly_series_fit(x, ZY, first_stage_degree).fitted
    z_resid, y_resid = resid[:, :d], resid[:, d]
    spanned = np.sum(z_resid**2, axis=0) <= 1e-24 * np.maximum(np.sum(Z**2, axis=0), 1.0)
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
    y_tilde = y - Z @ beta
    return AdjustedSample(
        base=Sample(x, y_tilde, z=Z),
        adjustment="partial-linear",
        nuisance={"beta": beta, "first_stage_degree": int(first_stage_degree)},
    )


def additive_adjust(sample: Sample, g_hat) -> AdjustedSample:
    """Subtract a known or pre-estimated additive component: y-tilde = y - g_hat(z)."""
    if sample.z is None:
        raise DataError("additive adjustment needs z columns")
    g = np.asarray(g_hat(sample.z), dtype=float).reshape(-1)
    if g.size != sample.n:
        raise DataError("g_hat must return one value per observation")
    return AdjustedSample(
        base=Sample(sample.x, sample.y - g, z=sample.z),
        adjustment="additive",
        nuisance={"g_hat": g_hat},
    )


def endogenous_adjust(x, u, y, first_stage_degree: int = 3, L: int = 4) -> AdjustedSample:
    """Control-function adjustment when x is endogenous and u is exogenous.

    The first stage regresses x on polynomials in u; the residual
    z-hat = x - E[x | u] is the control variable.  A joint additive series
    fit of y on (x, z-hat) then identifies the endogeneity component g, and
    the adjusted response is y - g(z-hat).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if x.size != y.size or u.shape[0] != x.size:
        raise DataError("x, u, y must share the number of rows")
    check_correction_degree(L)

    names = [f"u[{j}] block" for j in range(u.shape[1])]
    z_hat = x - series_fit(u, x, first_stage_degree, names).fitted
    if float(np.std(z_hat)) <= 1e-10 * max(float(np.std(x)), 1.0):
        raise DataError(
            "control variable is degenerate (x is a polynomial in u): "
            "the g block has nothing to fit"
        )
    fit = additive_series_fit(x, z_hat, y, L=L)
    y_tilde = y - fit.predict(z_hat, [1])
    return AdjustedSample(
        base=Sample(x, y_tilde),
        adjustment="endogenous",
        nuisance={
            "f_hat": partial(fit.predict, blocks=[0]),
            "g_hat": partial(fit.predict, blocks=[1]),
            "z_hat": z_hat,
            "first_stage_degree": int(first_stage_degree),
            "L": int(L),
        },
    )


def selection_adjust(x, z, d, y, pscore_degree: int = 3, L: int = 4) -> AdjustedSample:
    """Correct for nonrandom selection using the estimated propensity score.

    A linear-probability series fit of the selection indicator d on
    polynomials in (x, z) gives p-hat, clamped away from 0 and 1.  On the
    selected rows an additive series fit of y on (x, p-hat) identifies the
    selection correction lambda, and the adjusted response is
    y - lambda(p-hat), on the selected rows only (original order kept).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    d = np.asarray(d)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z.reshape(-1, 1)
    n = x.size
    if y.size != n or d.size != n or z.shape[0] != n:
        raise DataError("x, z, d, y must share the number of rows")
    check_correction_degree(L)
    d_vals = np.unique(d)
    if not np.all(np.isin(d_vals, (0, 1))):
        raise DataError(f"selection indicator must be binary 0/1, found values {d_vals}")
    mask = np.asarray(d, dtype=float) == 1.0
    n1 = int(mask.sum())
    if n1 == 0:
        raise DataError("no selected rows (d == 1)")
    if n1 <= 1 + 2 * L:
        raise DataError(f"too few selected rows ({n1}) for the second-stage series fit")

    fitted = additive_series_fit(x, z, mask.astype(float), L=pscore_degree).fitted
    pscore = np.clip(fitted, PSCORE_CLAMP, 1.0 - PSCORE_CLAMP)

    x_sel, y_sel, p_sel = x[mask], y[mask], pscore[mask]
    warnings = []
    if float(np.ptp(p_sel)) <= 1e-10:
        # constant propensity: lambda is just a constant, absorbed by f
        def lambda_hat(pv):
            return np.zeros(np.asarray(pv, dtype=float).reshape(-1).size)

        warnings.append("propensity constant on selected rows; lambda set to zero")
    else:
        lambda_hat = partial(additive_series_fit(x_sel, p_sel, y_sel, L=L).predict, blocks=[1])

    y_tilde = y_sel - lambda_hat(p_sel)
    return AdjustedSample(
        base=Sample(x_sel, y_tilde, z=z[mask]),
        adjustment="selection",
        nuisance={
            "pscore": pscore,
            "lambda_hat": lambda_hat,
            "retained": mask,
            "pscore_degree": int(pscore_degree),
            "L": int(L),
            "warnings": tuple(warnings),
        },
    )
