"""Adapters reducing richer regression models to the univariate test.

Each adapter removes the contribution of auxiliary variables from y and
returns an adjusted sample on which the monotonicity of x alone can be
tested: partialling-out for partially linear models, subtraction of an
additive component, a control-function step for endogenous regressors, and
a selection-correction step based on the propensity of being observed.
All nuisance regressions are polynomial series least squares on variables
rescaled to [-1, 1] over their observed range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError
from .sigma import PolyFit, poly_series_fit
from .statistic import Sample

__all__ = [
    "AdjustedSample",
    "AdditiveFit",
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


class _PowerBlock:
    """Powers 1..L of one variable, affinely mapped onto [-1, 1] over its range."""

    def __init__(self, values: np.ndarray, L: int, name: str):
        values = np.asarray(values, dtype=float).reshape(-1)
        lo, hi = float(values.min()), float(values.max())
        if not hi > lo:
            raise DataError(f"{name}: zero range, cannot build a polynomial block")
        self.lo, self.hi, self.L, self.name = lo, hi, int(L), name

    def design(self, v) -> np.ndarray:
        u = (2.0 * np.asarray(v, dtype=float).reshape(-1) - (self.hi + self.lo)) / (self.hi - self.lo)
        return np.column_stack([u**p for p in range(1, self.L + 1)])


@dataclass(frozen=True)
class AdditiveFit:
    """Joint additive series fit y ~ intercept + f(x) + g(z), shared intercept.

    The intercept is reported with f; g carries no constant since the two
    blocks' constants are not separately identified.
    """

    f_hat: Callable[[np.ndarray], np.ndarray]
    g_hat: Callable[[np.ndarray], np.ndarray]
    fitted: np.ndarray
    intercept: float


def _lstsq_checked(design: np.ndarray, y: np.ndarray, block_names) -> np.ndarray:
    beta, _, rank, sv = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        raise DataError(
            f"rank-deficient additive design over blocks {list(block_names)} "
            f"(rank {rank} < {design.shape[1]}, condition {cond:.3e})"
        )
    return beta


def additive_series_fit(x, z, y, L: int = 4) -> AdditiveFit:
    """Fit y on additive polynomial blocks in x and in each column of z.

    Parameters
    ----------
    x, y : array_like, length n
    z : array_like, n or n x d
    L : int
        Number of powers per block.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z.reshape(-1, 1)
    n, d = z.shape
    if x.size != n or y.size != n:
        raise DataError("x, y, z must share the number of rows")
    if n <= 1 + L * (1 + d):
        raise DataError(f"too few rows ({n}) for {1 + L * (1 + d)} series coefficients")

    bx = _PowerBlock(x, L, "x block")
    bzs = [_PowerBlock(z[:, j], L, f"z[{j}] block") for j in range(d)]
    design = np.column_stack(
        [np.ones(n), bx.design(x)] + [b.design(z[:, j]) for j, b in enumerate(bzs)]
    )
    beta = _lstsq_checked(design, y, [b.name for b in [bx] + bzs])

    intercept = float(beta[0])
    cx = beta[1 : 1 + L]
    czs = [beta[1 + L * (j + 1) : 1 + L * (j + 2)] for j in range(d)]

    def f_hat(xv):
        return intercept + bx.design(xv) @ cx

    def g_hat(zv):
        zv = np.asarray(zv, dtype=float)
        if zv.ndim == 1 and d == 1:
            zv = zv.reshape(-1, 1)
        out = np.zeros(zv.shape[0])
        for j, (b, cz) in enumerate(zip(bzs, czs)):
            out += b.design(zv[:, j]) @ cz
        return out

    return AdditiveFit(f_hat=f_hat, g_hat=g_hat, fitted=design @ beta, intercept=intercept)


def partial_linear_adjust(sample: Sample, first_stage_degree: int = 3) -> AdjustedSample:
    """Remove z'beta from y in a partially linear model y = f(x) + z'beta + noise.

    beta is estimated by partialling-out: polynomial fits of each z column
    and of y on x give residuals z-hat and y-hat, and beta solves the normal
    equations of y-hat on z-hat.  The adjusted response is y - z'beta.
    """
    if sample.z is None:
        raise DataError("partial-linear adjustment needs z columns")
    x, y, Z = sample.x, sample.y, sample.z
    n, d = Z.shape
    z_resid = np.empty_like(Z)
    for j in range(d):
        z_resid[:, j] = Z[:, j] - poly_series_fit(x, Z[:, j], first_stage_degree).fitted
        if np.sum(z_resid[:, j] ** 2) <= 1e-24 * max(float(np.sum(Z[:, j] ** 2)), 1.0):
            raise DataError(
                "collinear controls after partialling-out: "
                f"z column {j} lies in the polynomial span of x"
            )
    y_resid = y - poly_series_fit(x, y, first_stage_degree).fitted

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


def _first_stage_fit(u: np.ndarray, x: np.ndarray, degree: int) -> np.ndarray:
    """Fitted values of x on additive polynomials in the columns of u."""
    if u.shape[1] == 1:
        return poly_series_fit(u[:, 0], x, degree).fitted
    blocks = [_PowerBlock(u[:, j], degree, f"u[{j}] block") for j in range(u.shape[1])]
    design = np.column_stack([np.ones(u.shape[0])] + [b.design(u[:, j]) for j, b in enumerate(blocks)])
    beta = _lstsq_checked(design, x, [b.name for b in blocks])
    return design @ beta


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

    z_hat = x - _first_stage_fit(u, x, first_stage_degree)
    if float(np.std(z_hat)) <= 1e-10 * max(float(np.std(x)), 1.0):
        raise DataError(
            "control variable is degenerate (x is a polynomial in u): "
            "the g block has nothing to fit"
        )
    fit = additive_series_fit(x, z_hat, y, L=L)
    y_tilde = y - fit.g_hat(z_hat.reshape(-1, 1))
    return AdjustedSample(
        base=Sample(x, y_tilde),
        adjustment="endogenous",
        nuisance={
            "f_hat": fit.f_hat,
            "g_hat": fit.g_hat,
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
        fit = additive_series_fit(x_sel, p_sel, y_sel, L=L)

        def lambda_hat(pv):
            return fit.g_hat(np.asarray(pv, dtype=float).reshape(-1, 1))

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
