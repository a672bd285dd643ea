"""Concentration bounds for the empirical CDF of a uniform point on a sphere.

The empirical distribution of the coordinates of sqrt(N) X, for X uniform on
the unit sphere in R^N, concentrates around the standard Gaussian CDF.  This
package evaluates an explicit non-asymptotic three-term tail bound for its
Kolmogorov-Smirnov deviation, verifies every auxiliary inequality behind it
numerically, certifies the bounds by reproducible Monte Carlo, and inverts
them into a conservative sphere-uniformity hypothesis test.
"""

__version__ = "0.1.0"

from . import deformation, empirical, montecarlo, sampling, tail_bounds
from .deformation import *
from .empirical import *
from .errors import DomainError
from .montecarlo import *
from .sampling import *
from .tail_bounds import *

__all__ = ["__version__", "DomainError", *deformation.__all__, *tail_bounds.__all__,
           *sampling.__all__, *empirical.__all__, *montecarlo.__all__]
