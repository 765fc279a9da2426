"""Estimators of the per-observation noise level sigma_i.

Four estimators are provided: the global difference-based (Rice) estimator,
a windowed local version of it, signed regression residuals from a
polynomial series fit, and a two-step procedure that projects squared
residuals back onto the polynomial basis to capture heteroscedasticity.
Residual-based values may be negative; only their squares enter variances
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .statistic import Sample, _sort_order

__all__ = [
    "SigmaEstimate",
    "PolyFit",
    "rice_global",
    "rice_local",
    "default_local_bandwidth",
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


class PolyFit:
    """Least-squares polynomial fit on a rescaled domain, usable as a predictor."""

    def __init__(self, series, fitted: np.ndarray, degree: int):
        self._series = series
        self.fitted = fitted
        self.degree = degree

    def __call__(self, xnew):
        if self._series is None:
            arr = np.asarray(xnew, dtype=float)
            return np.full(arr.shape, self.fitted[0]) if arr.ndim else float(self.fitted[0])
        return self._series(np.asarray(xnew, dtype=float))


def poly_series_fit(x, y, degree: int) -> PolyFit:
    """Fit y on polynomials of x up to ``degree`` in an orthogonal (Chebyshev) basis.

    The basis is evaluated on the data range mapped to [-1, 1], which keeps
    the design well conditioned up to the degrees used here.  Raises on rank
    deficiency, reporting the condition diagnostic.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if x.size != y.size:
        raise ValueError("x and y lengths differ")
    if x.size <= degree:
        raise ValueError(f"need more than degree={degree} observations, got {x.size}")
    if np.ptp(x) == 0.0:
        if degree == 0:
            mean = float(np.mean(y))
            return PolyFit(None, np.full(x.size, mean), 0)
        raise DataError(f"x is constant: cannot fit a degree {degree} polynomial")
    series, diag = np.polynomial.Chebyshev.fit(x, y, degree, full=True)
    _, rank, sv, _ = diag
    if rank < degree + 1:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        raise DataError(
            f"rank-deficient polynomial design: rank {rank} < {degree + 1} (condition {cond:.3e})"
        )
    return PolyFit(series, series(x), degree)


def default_series_degree(n: int) -> int:
    """Polynomial degree for series fits: 5 up to n=100, 6 up to 200, 8 beyond."""
    if n <= 100:
        return 5
    if n <= 200:
        return 6
    return 8


def residual_sigma(sample: Sample, f_hat) -> SigmaEstimate:
    """Signed residuals sigma_i = y_i - f_hat(x_i); negative values are kept."""
    fitted = np.asarray(f_hat(sample.x), dtype=float).reshape(-1)
    if fitted.size != sample.n:
        raise ValueError("f_hat returned the wrong number of values")
    return SigmaEstimate(sample.y - fitted, "residual", {})


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
        return residual_sigma(sample, poly_series_fit(sample.x, sample.y, deg))
    if method == "two-step-poly":
        return two_step_poly_variance(sample, degree if degree is not None else 3)
    raise ValueError(f"unknown sigma method {method!r}; choose from {SIGMA_METHODS}")
