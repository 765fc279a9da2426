"""Adaptive kernel-weighted tests of regression monotonicity.

The test statistic is the maximum, over a grid of location-bandwidth scales,
of a studentized pairwise-comparison test function whose expectation is
nonpositive when the regression function is nondecreasing.  Critical values
come from a wild multiplier bootstrap, either on the full scale set
(plug-in) or after one-step or step-down selection of the relevant scales.
Model adapters reduce partially linear, additive, endogenous, and
sample-selection designs to the same univariate core, and a Monte Carlo
harness estimates size and power over reference designs.

The package exports each library module's ``__all__``; the command line is
:mod:`monotest.cli`.
"""

from . import bootstrap, errors, models, scales, sigma, simlab, statistic
from .bootstrap import *
from .errors import *
from .models import *
from .scales import *
from .sigma import *
from .simlab import *
from .statistic import *

__version__ = "0.1.0"

__all__ = [
    *bootstrap.__all__, *errors.__all__, *models.__all__, *scales.__all__,
    *sigma.__all__, *simlab.__all__, *statistic.__all__, "__version__",
]
