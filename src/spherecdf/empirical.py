"""Empirical CDFs, exact Kolmogorov-Smirnov distance to the Gaussian, rescaling.

For a sorted sample the one-sample KS statistic against a continuous CDF is
attained at a jump point, so it reduces to the exact maximum over

    i/N - Phi(x_(i))   and   Phi(x_(i)) - (i-1)/N

in sorted order; no grid search is involved.  Rescaling a sample by a positive
factor rescales its empirical CDF's argument, which is the mechanism behind
the tube-inflation property: an empirical CDF within epsilon of Phi stays
within epsilon + gamma(t) after rescaling by any lambda with |1-lambda| <= t.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .deformation import _gamma, _t_value
from .errors import DomainError, check_real, check_reals, prevalidated

__all__ = ["EmpiricalCdfView", "KsResult", "build_ecdf", "ks_to_normal",
           "rescale_cdf", "check_tube_inflation"]


@dataclass(frozen=True, eq=False)
class EmpiricalCdfView:
    """Sorted sample values; evaluation counts entries <= x (right-continuous)."""

    sorted_values: np.ndarray

    def __post_init__(self):
        v = np.array(check_reals(self.sorted_values, "sample values"))
        _check_sample_shape(v)
        if np.any(np.diff(v) < 0.0):
            raise DomainError("values must be sorted ascending; use build_ecdf")
        v.setflags(write=False)
        object.__setattr__(self, "sorted_values", v)

    @property
    def n(self) -> int:
        return self.sorted_values.size

    def evaluate(self, x):
        """Fraction of sample values <= x; scalar in, scalar out."""
        out = np.searchsorted(self.sorted_values, check_reals(x, "x"), side="right") / self.n
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class KsResult:
    """Exact KS statistic, the sorted value attaining it, and which side wins.

    side is "upper" when the empirical CDF exceeds Phi at the witness and
    "lower" when Phi exceeds the empirical CDF just before the jump.
    """

    statistic: float
    argmax_location: float
    side: str


def _check_sample_shape(v: np.ndarray):
    if v.ndim != 1 or v.size == 0:
        raise DomainError("an empirical CDF needs a nonempty 1-D sample")


def build_ecdf(values) -> EmpiricalCdfView:
    """Sort a copy of the sample into an empirical CDF view; ties stack."""
    v = check_reals(values, "sample values")
    _check_sample_shape(v)
    v = np.sort(v)
    v.setflags(write=False)
    return prevalidated(EmpiricalCdfView, sorted_values=v)


def _sorted_ks_gaps(sorted_values: np.ndarray):
    """Upper and lower jump-point gap arrays against the standard Gaussian CDF.

    Works on a 1-D sample or a (batch, N) matrix of row-sorted samples; the
    gap maxima along the last axis give the exact statistic.
    """
    n = sorted_values.shape[-1]
    p = special.ndtr(sorted_values)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return hi - p, p - lo


def _ks_statistics(values: np.ndarray, cdf=special.ndtr):
    """Exact KS statistic of a float64 sample or of each matrix row.

    Overwrites values: each row is sorted and then replaced by Phi of it, so a
    caller passes a matrix it owns and does not read afterwards.  The gaps are
    those of _sorted_ks_gaps, formed one side at a time in one scratch buffer;
    max is exact, so the statistics equal ks_to_normal's bit for bit.  With
    cdf=None the CDF step is skipped: the values are probabilities, scored
    against the uniform CDF, and are left sorted.
    """
    values.sort(axis=-1)
    n = values.shape[-1]
    p = values if cdf is None else cdf(values, out=values)
    gap = np.arange(1, n + 1) / n - p
    stat = gap.max(axis=-1)
    np.subtract(p, np.arange(0, n) / n, out=gap)
    return np.maximum(stat, gap.max(axis=-1))


def ks_to_normal(ecdf: EmpiricalCdfView) -> KsResult:
    """Exact KS distance between the empirical CDF and the standard Gaussian.

    Ties in the gap value resolve to the upper side first and then to the
    lowest index, so the reported witness is deterministic.
    """
    v = ecdf.sorted_values
    upper, lower = _sorted_ks_gaps(v)
    iu = int(np.argmax(upper))
    il = int(np.argmax(lower))
    if upper[iu] >= lower[il]:
        return KsResult(statistic=float(upper[iu]), argmax_location=float(v[iu]),
                        side="upper")
    return KsResult(statistic=float(lower[il]), argmax_location=float(v[il]),
                    side="lower")


def rescale_cdf(ecdf: EmpiricalCdfView, lam: float) -> EmpiricalCdfView:
    """View of the sample rescaled by lam > 0 (its CDF maps x to F(x/lam))."""
    lv = check_real(lam, "rescale factor", 0.0)
    return EmpiricalCdfView(ecdf.sorted_values * lv)


def check_tube_inflation(ecdf: EmpiricalCdfView, lam: float, epsilon: float, t,
                         tol: float = 1e-12) -> bool:
    """Tube-inflation predicate for one instance.

    When the hypotheses hold (the sample's KS distance to Phi is at most
    epsilon and |1 - lam| <= t), checks that the rescaled sample stays within
    epsilon + gamma(t) + tol.  Returns vacuous True when a hypothesis fails.
    """
    lv = check_real(lam, "rescale factor", 0.0)
    ev = check_real(epsilon, "epsilon", 0.0)
    tv = _t_value(t)
    tol = check_real(tol, "tol", 0.0, interval="[)")
    if ks_to_normal(ecdf).statistic > ev or abs(1.0 - lv) > tv:
        return True
    inflated = ks_to_normal(rescale_cdf(ecdf, lv)).statistic
    return inflated <= ev + _gamma(tv) + tol
