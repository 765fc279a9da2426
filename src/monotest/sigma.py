"""Estimators of the per-observation noise level sigma_i.

Four estimators are provided: the global difference-based (Rice) estimator,
a windowed local version of it, signed regression residuals from a
polynomial series fit, and a two-step procedure that projects squared
residuals back onto the polynomial basis to capture heteroscedasticity.
Residual-based values may be negative; only their squares enter variances
downstream.  ``series_fit``, the one polynomial-design helper, also fits
every auxiliary regression of the model adapters.
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

# a method's index here is part of every Monte Carlo seed: append only
SIGMA_METHODS = ("rice", "local-rice", "residual", "two-step-poly")


@dataclass(frozen=True)
class SigmaEstimate:
    """Per-observation sigma values plus the method tag and its parameters."""

    values: np.ndarray
    method: str
    params: dict

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if not np.all(np.isfinite(values)):
            raise DataError("sigma estimate contains non-finite values")
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
    mapped onto [-1, 1] over its range [lo[j], hi[j]].  Block 0 carries the
    intercept, so a block sum at new values predicts f, g or lambda alike.
    """

    fitted: np.ndarray
    coef: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    degree: int

    def predict(self, values, blocks) -> np.ndarray:
        """Sum of the given blocks at new values, one column per block."""
        blocks = list(blocks)
        v = np.asarray(values, dtype=float).reshape(-1, len(blocks))
        design = _design(v, self.lo[blocks], self.hi[blocks], self.degree, intercept=0 in blocks)
        cols = [1 + j * self.degree + q for j in blocks for q in range(self.degree)]
        return design @ self.coef[[0] + cols if 0 in blocks else cols]


def _design(values: np.ndarray, lo, hi, degree: int, intercept: bool = True) -> np.ndarray:
    n, m = values.shape
    u = (values - lo) * (2.0 / (hi - lo)) - 1.0 if degree else values
    blocks = np.polynomial.chebyshev.chebvander(u, degree)[..., 1:].reshape(n, m * degree)
    return np.hstack([np.ones((n, 1)), blocks]) if intercept else blocks


def series_fit(columns, y, degree: int, names) -> SeriesFit:
    """Fit y (n, or n x k for k responses) on Chebyshev blocks of an n x m array's columns.

    ``names`` labels the m blocks.  Before the design is built, DataError
    naming the blocks rejects a degree that is not a non-negative integer,
    mismatched rows, no more rows than the 1 + m * degree coefficients, a
    non-finite value, and (with degree >= 1) a column of zero range.  A
    rank-deficient design raises DataError with its condition number.
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
    for name, a, b in zip(names, lo, hi):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DataError(f"{name}: non-finite value, cannot build a polynomial block")
        if degree and not b > a:
            raise DataError(f"{name}: zero range, cannot build a polynomial block")
    design = _design(columns, lo, hi, degree)
    coef, _, rank, sv = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        raise DataError(
            f"rank-deficient polynomial design over blocks {names} "
            f"(rank {rank} < {design.shape[1]}, condition {cond:.3e})"
        )
    return SeriesFit(design @ coef, coef, lo, hi, int(degree))


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


def residual_sigma(sample: Sample, degree: int) -> SigmaEstimate:
    """Signed residuals y_i - f_hat(x_i) of a degree-``degree`` series fit; negatives are kept."""
    fitted = poly_series_fit(sample.x, sample.y, degree).fitted
    return SigmaEstimate(sample.y - fitted, "residual", {"degree": int(degree)})


def two_step_poly_variance(sample: Sample, degree: int) -> SigmaEstimate:
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


def estimate_sigma(
    sample: Sample,
    method: str,
    b_n: float | None = None,
    degree: int | None = None,
) -> SigmaEstimate:
    """Dispatch on the method tag; shared by the CLI and the Monte Carlo harness."""
    if method == "rice":
        return rice_global(sample)
    if method == "local-rice":
        return rice_local(sample, b_n)
    if method == "residual":
        deg = degree if degree is not None else default_series_degree(sample.n)
        return residual_sigma(sample, deg)
    if method == "two-step-poly":
        return two_step_poly_variance(sample, degree if degree is not None else 3)
    raise ValueError(f"unknown sigma method {method!r}; choose from {SIGMA_METHODS}")
