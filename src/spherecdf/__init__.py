"""Concentration bounds for the empirical CDF of a uniform point on a sphere.

The empirical distribution of the coordinates of sqrt(N) X, for X uniform on
the unit sphere in R^N, concentrates around the standard Gaussian CDF.  This
package evaluates an explicit non-asymptotic three-term tail bound for its
Kolmogorov-Smirnov deviation, verifies every auxiliary inequality behind it
numerically, certifies the bounds by reproducible Monte Carlo, and inverts
them into a conservative sphere-uniformity hypothesis test.
"""

__version__ = "0.1.0"

from .deformation import (DeformationParam, GapEvaluation, TANGENT_SLOPE,
                          alpha, alpha_prime, f_minus, f_minus_prime, f_plus,
                          gamma_closed, gamma_oracle, phi_deformed,
                          secant_interval, std_normal_cdf, x_minus, x_plus)
from .empirical import (EmpiricalCdfView, KsResult, build_ecdf,
                        check_tube_inflation, ks_to_normal, rescale_cdf)
from .errors import DomainError
from .montecarlo import (CheckResult, LambdaTrialReport, MonteCarloReport,
                         TrialConfig, VerificationReport, run_chisq_trials,
                         run_dkw_trials, run_lambda_trials, run_theorem_trials,
                         verify_lemmas, wilson_interval)
from .sampling import (RngStream, SphereSample, gaussian_vector, lambda_of,
                       sphere_sample)
from .tail_bounds import (BoundBreakdown, BoundInputs, LaurentMassartBound,
                          OptimizedBound, chisq_tail_lower, chisq_tail_upper,
                          corollary_bound, dkw_bound, g_minus, g_plus,
                          lambda_concentration_bound, lm_lower, lm_upper,
                          optimize_split, p_value_bound, theorem_bound)

__all__ = [
    "__version__",
    "DomainError",
    # deformation
    "DeformationParam", "GapEvaluation", "TANGENT_SLOPE", "std_normal_cdf",
    "phi_deformed", "x_plus", "x_minus", "gamma_closed", "gamma_oracle",
    "f_minus", "f_plus", "alpha", "alpha_prime", "f_minus_prime",
    "secant_interval",
    # tail bounds
    "BoundInputs", "BoundBreakdown", "OptimizedBound", "LaurentMassartBound",
    "g_plus", "g_minus", "dkw_bound", "lm_upper", "lm_lower", "chisq_tail_upper",
    "chisq_tail_lower",
    "lambda_concentration_bound", "theorem_bound", "corollary_bound",
    "optimize_split", "p_value_bound",
    # sampling
    "RngStream", "SphereSample", "gaussian_vector", "sphere_sample", "lambda_of",
    # empirical
    "EmpiricalCdfView", "KsResult", "build_ecdf", "ks_to_normal", "rescale_cdf",
    "check_tube_inflation",
    # monte carlo
    "TrialConfig", "MonteCarloReport", "LambdaTrialReport", "CheckResult",
    "VerificationReport", "wilson_interval", "run_theorem_trials",
    "run_dkw_trials", "run_lambda_trials", "run_chisq_trials", "verify_lemmas",
]
