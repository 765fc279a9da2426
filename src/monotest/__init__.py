"""Adaptive kernel-weighted tests of regression monotonicity.

The test statistic is the maximum, over a grid of location-bandwidth scales,
of a studentized pairwise-comparison test function whose expectation is
nonpositive when the regression function is nondecreasing.  Critical values
come from a wild multiplier bootstrap, either on the full scale set
(plug-in) or after one-step or step-down selection of the relevant scales.
Model adapters reduce partially linear, additive, endogenous, and
sample-selection designs to the same univariate core, and a Monte Carlo
harness estimates size and power over reference designs.
"""

from .bootstrap import (
    BootConfig,
    BootRun,
    Rung,
    TestReport,
    bootstrap_run,
    p_value,
    quantile_upper,
    run_report,
)
from .errors import DataError, DegenerateVarianceError
from .models import (
    AdjustedSample,
    additive_adjust,
    additive_series_fit,
    endogenous_adjust,
    partial_linear_adjust,
    selection_adjust,
)
from .scales import (
    EPANECHNIKOV,
    KERNELS,
    UNIFORM,
    Kernel,
    ScaleSet,
    build_basic_set,
    build_custom_set,
    build_z_local_set,
    epanechnikov,
    uniform,
)
from .sigma import (
    SIGMA_METHODS,
    SeriesFit,
    SigmaEstimate,
    default_local_bandwidth,
    default_series_degree,
    estimate_sigma,
    poly_series_fit,
    residual_sigma,
    rice_global,
    rice_local,
    series_fit,
    two_step_poly_variance,
)
from .simlab import (
    CASES,
    McDesign,
    McResult,
    gen_design,
    regression_f,
    results_to_csv,
    results_to_text,
    run_mc,
)
from .statistic import (
    Sample,
    StudentizedField,
    evaluate_field,
)

__version__ = "0.1.0"

__all__ = [
    "BootConfig",
    "BootRun",
    "Rung",
    "TestReport",
    "bootstrap_run",
    "p_value",
    "quantile_upper",
    "run_report",
    "DataError",
    "DegenerateVarianceError",
    "AdjustedSample",
    "additive_adjust",
    "additive_series_fit",
    "endogenous_adjust",
    "partial_linear_adjust",
    "selection_adjust",
    "EPANECHNIKOV",
    "KERNELS",
    "UNIFORM",
    "Kernel",
    "ScaleSet",
    "build_basic_set",
    "build_custom_set",
    "build_z_local_set",
    "epanechnikov",
    "uniform",
    "SIGMA_METHODS",
    "SeriesFit",
    "SigmaEstimate",
    "default_local_bandwidth",
    "default_series_degree",
    "estimate_sigma",
    "poly_series_fit",
    "residual_sigma",
    "rice_global",
    "rice_local",
    "series_fit",
    "two_step_poly_variance",
    "CASES",
    "McDesign",
    "McResult",
    "gen_design",
    "regression_f",
    "results_to_csv",
    "results_to_text",
    "run_mc",
    "Sample",
    "StudentizedField",
    "evaluate_field",
    "__version__",
]
