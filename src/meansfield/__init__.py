"""Power means of SPD matrices and mean-field classification pipelines.

The package spans the full stack: geometry of symmetric
positive-definite matrices, the power-mean family with fixed-point
solving (each mean of a field started at the interpolant in ``h`` of
those already solved) and robust estimation, shrinkage covariance
estimation, spatial filtering, four covariance classifiers,
cross-validated evaluation, and meta-analytic comparison of pipeline
score tables.
"""

__version__ = "0.1.0"

# the public API is the union of these modules' ``__all__`` lists
from .exceptions import *
from .geometry import *
from .means import *
from .covariance import *
from .spatial import *
from .classifiers import *
from .evaluation import *
from .stats import *
from .archive import *
from .synth import *
from .reports import *
