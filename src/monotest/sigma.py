"""Estimators of the per-observation noise level sigma_i.

Four estimators are provided: the global difference-based (Rice) estimator,
a windowed local version of it, signed regression residuals from a
polynomial series fit, and a two-step procedure that projects squared
residuals back onto the polynomial basis to capture heteroscedasticity.
Residual-based values may be negative; only their squares enter variances
downstream.  ``estimate_sigma`` reads each method's estimator from one
table, ``SIGMA_ESTIMATORS``; only the estimators' signatures hold option
defaults.  ``series_fit``, the one polynomial-design helper, also fits
every auxiliary regression of the model adapters; ``SeriesFit.part`` reads
a group of blocks' share of the fit at the rows the fit was made on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .statistic import Sample, _sort_order

__all__ = [
    "SIGMA_METHODS",
    "SigmaEstimate",
    "SeriesFit",
    "rice_global",
    "rice_local",
    "default_local_bandwidth",
    "series_fit",
    "poly_series_fit",
    "default_series_degree",
    "residual_sigma",
    "two_step_poly_variance",
    "estimate_sigma",
]


@dataclass(frozen=True)
class SigmaEstimate:
    """Per-observation sigma values, finite when squared, plus the method tag and its parameters."""

    values: np.ndarray
    method: str
    params: dict

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if not np.all(np.isfinite(values)):
            raise DataError("sigma estimate contains non-finite values")
        if np.any(np.abs(values) > math.sqrt(np.finfo(float).max)):
            raise DataError("sigma estimate overflows when squared")
        if self.method != "residual" and np.any(values < 0):
            raise ValueError(f"negative sigma values are only valid for method='residual', not {self.method!r}")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


def rice_global(sample: Sample) -> SigmaEstimate:
    """Constant sigma from mean squared differences of y between x-neighbors.

    After sorting by x, sigma_hat = sqrt(sum of (y_{i+1} - y_i)^2 / (2n)).
    """
    d = np.diff(sample.y[_sort_order(sample)])
    value = math.sqrt(float(np.sum(d * d)) / (2.0 * sample.n))
    return SigmaEstimate(np.full(sample.n, value), "rice", {})


def default_local_bandwidth(sample: Sample) -> float:
    """range(x) * (log(n) / n) ** (1/3); shrinks slowly enough to keep windows filled."""
    n = sample.n
    return float(np.ptp(sample.x)) * (math.log(n) / n) ** (1.0 / 3.0)


def rice_local(sample: Sample, b_n: float | None = None) -> SigmaEstimate:
    """Windowed difference-based sigma: neighbors within b_n of each x_i.

    For J(i) = {j : |x_j - x_i| <= b_n} (x sorted),
    sigma_i^2 = sum over adjacent pairs inside J(i) of squared y-differences,
    divided by 2 |J(i)|.  The window always contains i itself.
    """
    if b_n is None:
        b_n = default_local_bandwidth(sample)
    if not b_n > 0:
        raise ValueError(f"b_n must be positive, got {b_n!r}")
    order = _sort_order(sample)
    xs = sample.x[order]
    d2 = np.diff(sample.y[order]) ** 2
    csum = np.concatenate(([0.0], np.cumsum(d2)))
    lo = np.searchsorted(xs, xs - b_n, side="left")
    hi = np.searchsorted(xs, xs + b_n, side="right")
    count = hi - lo
    pair_sum = csum[hi - 1] - csum[lo]
    sig_sorted = np.sqrt(pair_sum / (2.0 * count))
    values = np.empty(sample.n)
    values[order] = sig_sorted
    return SigmaEstimate(values, "local-rice", {"b_n": float(b_n)})


@dataclass(frozen=True)
class SeriesFit:
    """Least-squares fit of y on an intercept plus T_1..T_degree of each column.

    T_q is the Chebyshev polynomial of degree q; column j enters as block j,
    its values ``u[:, j]`` mapped onto [-1, 1] over its observed range.
    Block 0 (f) carries the intercept; ``part`` reads the others (g, lambda).
    """

    fitted: np.ndarray
    coef: np.ndarray
    u: np.ndarray
    degree: int

    def part(self, blocks: range) -> np.ndarray:
        """The share of ``fitted`` of consecutive blocks after block 0, at the fit's own ``u``."""
        if blocks.step != 1 or not 0 < blocks.start <= blocks.stop <= self.u.shape[1]:
            raise ValueError(f"{blocks} is not a range of consecutive blocks after block 0")
        d, u = self.degree, self.u[:, blocks.start : blocks.stop]
        return _chebyshev_blocks(u, d) @ self.coef[1 + blocks.start * d : 1 + blocks.stop * d]


def _chebyshev_blocks(u: np.ndarray, degree: int) -> np.ndarray:
    """T_1..T_degree of each column of u, block after block."""
    return np.polynomial.chebyshev.chebvander(u, degree)[..., 1:].reshape(len(u), -1)


def series_fit(columns, y, degree: int, names) -> SeriesFit:
    """Fit y (n, or n x k for k responses) on Chebyshev blocks of an n x m array's columns.

    ``names`` labels the m blocks.  Before the design is built, DataError
    naming the blocks rejects a degree that is not a non-negative integer,
    mismatched rows, no more rows than the 1 + m * degree coefficients, a
    non-finite value, and (with degree >= 1) a column of zero range or of a
    range whose map onto [-1, 1] overflows, below about 1e-308 or above
    about 1.8e308.  A rank-deficient design raises DataError with its
    condition number.
    """
    columns = np.asarray(columns, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = columns.shape
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise DataError(f"degree {degree!r} over blocks {names} is not a non-negative integer")
    if y.shape[:1] != (n,):
        raise DataError(f"blocks {names} have {n} rows but the response has shape {y.shape}")
    if n <= 1 + m * degree:
        raise DataError(f"too few rows ({n}) for {1 + m * degree} coefficients over blocks {names}")
    if not np.isfinite(y).all():
        raise DataError(f"non-finite response in the series fit over blocks {names}")
    lo, hi = columns.min(axis=0), columns.max(axis=0)
    with np.errstate(over="ignore", divide="ignore"):
        width = hi - lo
        scale = 2.0 / width  # maps each column's range onto [-1, 1]
    for name, a, b, w, c in zip(names, lo, hi, width, scale):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DataError(f"{name}: non-finite value, cannot build a polynomial block")
        if degree and not b > a:
            raise DataError(f"{name}: zero range, cannot build a polynomial block")
        if degree and not 0.0 < c < math.inf:
            raise DataError(
                f"{name}: range {w:.3g} overflows its map onto [-1, 1]; rescale the column"
            )
    u = (columns - lo) * scale - 1.0 if degree else columns
    design = np.hstack([np.ones((n, 1)), _chebyshev_blocks(u, degree)])
    coef, _, rank, sv = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        raise DataError(
            f"rank-deficient polynomial design over blocks {names} "
            f"(rank {rank} < {design.shape[1]}, condition {cond:.3e})"
        )
    return SeriesFit(design @ coef, coef, u, int(degree))


def poly_series_fit(x, y, degree: int) -> SeriesFit:
    """Fit y (n, or n x k) on Chebyshev polynomials of x up to ``degree``: one block.

    The basis is evaluated on the data range mapped to [-1, 1], which keeps
    the design well conditioned up to the degrees used here.
    """
    return series_fit(np.reshape(x, (-1, 1)), y, degree, ["x block"])


def default_series_degree(n: int) -> int:
    """Polynomial degree for series fits: 5 up to n=100, 6 up to 200, 8 beyond."""
    if n <= 100:
        return 5
    if n <= 200:
        return 6
    return 8


def residual_sigma(sample: Sample, degree: int | None = None) -> SigmaEstimate:
    """Signed residuals y_i - f_hat(x_i) of a degree-``degree`` series fit; negatives are kept.

    The degree defaults to ``default_series_degree(n)``.
    """
    degree = default_series_degree(sample.n) if degree is None else degree
    fitted = poly_series_fit(sample.x, sample.y, degree).fitted
    return SigmaEstimate(sample.y - fitted, "residual", {"degree": int(degree)})


def two_step_poly_variance(sample: Sample, degree: int = 3) -> SigmaEstimate:
    """Project squared residuals of a polynomial fit back onto the same basis.

    Step 1 regresses y on polynomials of x up to ``degree`` and takes
    residuals; step 2 regresses the squared residuals on the same basis.
    The fitted values are the variance estimates, clamped below at
    1e-12 * var(y) (or 1e-12 if y is constant) since the projection can
    dip negative.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    fit1 = poly_series_fit(sample.x, sample.y, degree)
    resid = sample.y - fit1.fitted
    fit2 = poly_series_fit(sample.x, resid * resid, degree)
    var_y = float(np.var(sample.y))
    floor = 1e-12 * (var_y if var_y > 0 else 1.0)
    values = np.sqrt(np.maximum(fit2.fitted, floor))
    return SigmaEstimate(values, "two-step-poly", {"degree": int(degree)})


# method -> estimator.  A method's index in this order is part of every
# Monte Carlo seed: append only.
SIGMA_ESTIMATORS = {
    "rice": rice_global, "local-rice": rice_local,
    "residual": residual_sigma, "two-step-poly": two_step_poly_variance,
}
SIGMA_METHODS = tuple(SIGMA_ESTIMATORS)


def estimate_sigma(sample: Sample, method: str, **opts) -> SigmaEstimate:
    """The method's estimate; ``opts`` go to its estimator, which raises TypeError on others."""
    if method not in SIGMA_ESTIMATORS:
        raise ValueError(f"unknown sigma method {method!r}; choose from {SIGMA_METHODS}")
    # an overflow warns nothing: the estimate's non-finite or too large values raise DataError
    with np.errstate(over="ignore", invalid="ignore"):
        return SIGMA_ESTIMATORS[method](sample, **opts)
