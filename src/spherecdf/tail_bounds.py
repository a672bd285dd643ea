"""Tail bounds for the sphere empirical-CDF deviation and its ingredients.

The deviation of the empirical CDF of sqrt(N) * X, for X uniform on the unit
sphere in R^N, splits into an i.i.d. Gaussian part controlled by the
Dvoretzky-Kiefer-Wolfowitz inequality and a scale part controlled by
chi-square tails (Laurent and Massart, 2000).  For every epsilon > 0 and
t in [0, 1) the three-term bound

    Pr( KS distance > epsilon + gamma(t) )
        <= 2 exp(-2 N epsilon^2) + exp(-N g_plus(t)^2) + exp(-N g_minus(t)^2)

holds, where g_plus and g_minus are the exponent rates of the scale factor
lambda = sqrt(N)/|Z| leaving [1-t, 1+t].  Replacing gamma(t), g_plus(t),
g_minus(t) by their global secant bounds t/2, (3/8) t, t gives the simplified
variant with explicit constants.

This module evaluates both bounds term by term, exposes the chi-square tail
inequalities in the raw deviation form and the rearranged threshold form, and
optimizes the free (epsilon, t) split for a total deviation budget, which
inverts the bound into a conservative p-value for observed KS statistics.

Exponents are assembled in log space before exponentiation, so dimensions up
to 1e9 and beyond do not overflow.  All functions are pure and thread-safe.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .deformation import (_bisect, _g_minus, _g_plus, _gamma, _gamma_np, _golden_min, _t_array,
                          _t_value)
from .errors import DomainError, check_choice, check_int, check_real

__all__ = [
    "BoundInputs",
    "BoundBreakdown",
    "OptimizedBound",
    "LaurentMassartBound",
    "g_plus",
    "g_minus",
    "dkw_bound",
    "lm_upper",
    "lm_lower",
    "chisq_tail_upper",
    "chisq_tail_lower",
    "lambda_concentration_bound",
    "theorem_bound",
    "corollary_bound",
    "optimize_split",
    "p_value_bound",
]

@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the three-term bound: dimension N, tube half-width epsilon, scale window t."""

    N: int
    epsilon: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "N", check_int(self.N, "N"))
        object.__setattr__(self, "epsilon", check_real(self.epsilon, "epsilon", 0.0))
        object.__setattr__(self, "t", _t_value(self.t))


@dataclass(frozen=True)
class BoundBreakdown:
    """Per-term values of a three-term tail bound.

    threshold is the deviation being bounded (epsilon + gamma(t), or
    epsilon + t/2 for the simplified variant).  total may exceed 1; a vacuous
    bound is legal and is reported as is.
    """

    dkw_term: float
    gplus_term: float
    gminus_term: float
    total: float
    threshold: float

    def __post_init__(self):
        if abs(self.total - (self.dkw_term + self.gplus_term + self.gminus_term)) > 1e-12:
            raise DomainError("total must equal the sum of the three terms")


@dataclass(frozen=True)
class OptimizedBound:
    """Result of minimizing the bound total over splits epsilon + cost(t) = delta."""

    delta: float
    best_epsilon: float
    best_t: float
    best_total: float
    mode: str


class LaurentMassartBound(NamedTuple):
    """A tail probability bound together with the deviation threshold it certifies."""

    bound: float
    threshold: float


def g_plus(t):
    """Exponent rate for the upper scale excursion: (1 - (1+t)^-2) / 2.

    Zero at t = 0, strictly increasing, with limit 3/8 as t -> 1.  Accepts a
    scalar or ndarray with entries in [0, 1).  The corollary's rate 3t/8 is a
    lower bound: g_plus(t) - 3t/8 = t (1 - t)(5 + 3t) / (8 (1 + t)^2) >= 0.
    """
    out = _g_plus(_t_array(t))
    return float(out) if np.ndim(t) == 0 else out


def g_minus(t):
    """Exponent rate for the lower scale excursion: (sqrt(2 (1-t)^-2 - 1) - 1) / 2.

    Zero at t = 0, strictly increasing, and divergent as t -> 1.  Accepts a
    scalar or ndarray with entries in [0, 1).  The corollary's rate t is a lower
    bound: squared, g_minus(t) >= t reads (1 + 2t + 2t^2)(1 - t)^2 <= 1, and the
    left side is 1 - t^2 (1 + 2t - 2t^2).
    """
    out = _g_minus(_t_array(t))
    return float(out) if np.ndim(t) == 0 else out


def dkw_bound(N, epsilon) -> float:
    """Two-sided DKW tail 2 exp(-2 N epsilon^2) for an i.i.d. empirical CDF."""
    n = check_int(N, "N")
    eps = check_real(epsilon, "epsilon", 0.0)
    return _dkw_term(n, eps)


def lm_upper(N, x) -> LaurentMassartBound:
    """Upper chi-square tail: Pr(U - N >= 2 sqrt(N x) + 2 x) <= exp(-x).

    Returns the bound exp(-x) paired with the certified deviation threshold
    2 sqrt(N x) + 2 x (Laurent and Massart, 2000).
    """
    n = check_int(N, "N")
    xv = check_real(x, "chi-square deviation x", 0.0, interval="[)")
    return LaurentMassartBound(math.exp(-xv), 2.0 * math.sqrt(n * xv) + 2.0 * xv)


def lm_lower(N, x) -> LaurentMassartBound:
    """Lower chi-square tail: Pr(N - U >= 2 sqrt(N x)) <= exp(-x).

    Returns the bound exp(-x) paired with the certified deviation threshold
    2 sqrt(N x).
    """
    n = check_int(N, "N")
    xv = check_real(x, "chi-square deviation x", 0.0, interval="[)")
    return LaurentMassartBound(math.exp(-xv), 2.0 * math.sqrt(n * xv))


def chisq_tail_upper(N, y) -> float:
    """Pr(U > y) <= exp(-(N/4) (sqrt(2 y / N - 1) - 1)^2) for y >= N.

    The threshold form of the upper chi-square tail; substituting
    y = N + 2 sqrt(N x) + 2 x recovers exp(-x) exactly.
    """
    n = check_int(N, "N")
    yv = check_real(y, "upper threshold y", n, interval="[)")
    root = math.sqrt(1.0 - 2.0 * (1.0 - yv / n))
    return math.exp(-0.25 * n * (root - 1.0) ** 2)


def chisq_tail_lower(N, y) -> float:
    """Pr(U < y) <= exp(-(N/4) (y/N - 1)^2) for 0 <= y <= N.

    The threshold form of the lower chi-square tail; substituting
    y = N - 2 sqrt(N x) recovers exp(-x) exactly.
    """
    n = check_int(N, "N")
    yv = check_real(y, "lower threshold y", 0.0, n, "[]")
    return math.exp(-0.25 * n * (yv / n - 1.0) ** 2)


def _dkw_term(n: int, eps: float, exp=math.exp) -> float:
    return 2.0 * exp(-2.0 * n * eps * eps)


def _scale_terms(n: int, t: float, mode: str, exp=math.exp):
    """Upper and lower scale terms at a validated t: exact rates, or their secant bounds."""
    if mode == "exact_gamma":
        return exp(-n * _g_plus(t) ** 2), exp(-n * _g_minus(t) ** 2)
    return exp(-(9.0 / 64.0) * n * t * t), exp(-n * t * t)


def _cost(t, mode: str):
    """Threshold price of the scale window t: gamma(t), or its secant bound t/2.

    t is a float or a 1-D array, whose entries equal the float calls bit for bit.
    """
    return _gamma(t) if mode == "exact_gamma" else 0.5 * t


def _total(n: int, eps: float, t: float, mode: str, exp=math.exp) -> float:
    gp, gm = _scale_terms(n, t, mode, exp)
    return _dkw_term(n, eps, exp) + gp + gm


def _breakdown(n: int, eps: float, t: float, mode: str) -> BoundBreakdown:
    dkw = _dkw_term(n, eps)
    gp, gm = _scale_terms(n, t, mode)
    return BoundBreakdown(dkw_term=dkw, gplus_term=gp, gminus_term=gm,
                          total=dkw + gp + gm, threshold=eps + _cost(t, mode))


def lambda_concentration_bound(N, t) -> float:
    """Pr(|1 - lambda| > t) <= exp(-N g_plus(t)^2) + exp(-N g_minus(t)^2)."""
    n = check_int(N, "N")
    tv = _t_value(t)
    gp, gm = _scale_terms(n, tv, "exact_gamma")
    return gp + gm


def theorem_bound(inputs: BoundInputs) -> BoundBreakdown:
    """Three-term bound with the exact gap and exponent-rate functions.

    threshold = epsilon + gamma(t); total = DKW term + both scale terms.
    """
    if not isinstance(inputs, BoundInputs):
        raise DomainError("theorem_bound expects a BoundInputs")
    return _breakdown(inputs.N, inputs.epsilon, inputs.t, "exact_gamma")


def corollary_bound(N, epsilon, t) -> BoundBreakdown:
    """Simplified three-term bound with explicit constants.

    threshold = epsilon + t/2;
    total = 2 exp(-2 N eps^2) + exp(-(9/64) N t^2) + exp(-N t^2).
    Dominates the exact-variant total at every (N, epsilon, t).
    """
    b = BoundInputs(N, epsilon, t)
    return _breakdown(b.N, b.epsilon, b.t, "corollary")


def _best_split(n: int, dv: float, mode: str):
    """(epsilon, t, total) of the best split of budget dv; arguments already validated.

    One numpy pass (_gamma_np, np.exp) prices the 512-point grid; the exact
    scalar totals (math.exp, libm pow) are paid only for the points whose
    approximate total is at most min (1 + m) + 1e-299, m = 1e-11 (1 + sqrt(n)).
    With u = 2^-53: each ndtr value is within 2^-46 of Phi (cephes' erfc peak
    error) and the peak height's x-derivative is 0, so the cost moves by at
    most 2^-44 + u; for a term with exponent y <= 692, y = 2 n eps^2 moves by
    4 sqrt(n y / 2) (2^-44 + u) + 12u y (growing like sqrt(n) ulp), y = n g^2,
    with |d g| <= 8u (1 + g) from x*x against pow, by 16u (sqrt(n y) + y) + 8u y,
    and each exp errs by <= 4u.  A term with y > 692 is below 1.2e-300 in both.
    So |approx - exact| <= rho exact + alpha with rho <= 2.1e-12 + 4.4e-12
    sqrt(n) <= 0.019 (n < 2^64) and alpha <= 2.3e-300; m >= 2 rho / (1 - rho)
    and 1e-299 >= alpha (2 + m) then give every skipped point an exact total
    above the exact minimum, so k, the bracket and the incumbent equal a full
    scalar scan's bit for bit.  Flat totals just keep more candidates.
    """
    # feasible range: cost is strictly increasing from 0 toward 1/2
    if dv < 0.5:
        t_max = _bisect(lambda t: _cost(t, mode) < dv, 0.0, 1.0 - 1e-12, 1e-12)[0]
    else:
        t_max = 1.0 - 1e-12
    if t_max == 0.0:
        # the feasible range is {0} (dv below about 2.4e-13 in exact_gamma mode)
        return dv, 0.0, _total(n, dv, 0.0, mode)

    # the numpy pass filters the grid; only its candidates get exact scalar totals
    grid = np.linspace(0.0, t_max, 512, endpoint=False)
    cost = _gamma_np(grid) if mode == "exact_gamma" else 0.5 * grid
    approx = _total(n, dv - cost, grid, mode, np.exp)
    limit = approx.min() * (1.0 + 1e-11 * (1.0 + math.sqrt(n))) + 1e-299
    # a NaN or infinite approximation is a candidate too
    cand = np.flatnonzero(~(np.isfinite(approx) & (approx > limit)))
    ts = grid[cand]
    totals = []
    for t in ts.tolist():  # float calls: an array _cost costs more on so few points
        totals.append(_total(n, dv - _cost(t, mode), t, mode))
        if totals[-1] == 0.0:  # totals are never negative: nothing later can beat it
            break
    j = int(np.argmin(totals))
    k = int(cand[j])
    a = float(grid[max(k - 1, 0)])
    b = float(grid[k + 1]) if k + 1 < len(grid) else t_max

    def objective(t):
        eps = dv - _cost(t, mode)
        if eps <= 0.0:
            return math.inf
        return _total(n, eps, t, mode)

    best = (float(grid[k]), totals[j])  # under _golden_min's strict <, no probe beats 0.0
    best_t, best_total = best if totals[j] == 0.0 else _golden_min(objective, a, b, 1e-12, best)
    best_eps = dv - _cost(best_t, mode)
    if best_eps <= 0.0:
        best_t, best_eps = 0.0, dv
        best_total = _total(n, dv, 0.0, mode)
    return best_eps, best_t, best_total


def optimize_split(N, delta, mode: str = "exact_gamma") -> OptimizedBound:
    """Best split of a total deviation budget delta into epsilon + cost(t).

    Minimizes the bound total over the one-parameter family
    epsilon(t) = delta - cost(t) > 0, where cost(t) is gamma(t) in
    "exact_gamma" mode and t/2 in "corollary" mode.  A 512-point coarse grid
    over the feasible t range is refined by golden-section search; the result
    never exceeds any probed value.

    Note the t = 0 endpoint keeps both (vacuous) scale terms, so its total is
    the DKW term plus 2; dropping them has no backing once the sample lives on
    the sphere rather than being i.i.d.
    """
    n = check_int(N, "N")
    dv = check_real(delta, "delta", 0.0)
    mode = check_choice(mode, "mode", ("exact_gamma", "corollary"))
    best_eps, best_t, best_total = _best_split(n, dv, mode)
    return OptimizedBound(delta=dv, best_epsilon=best_eps, best_t=best_t,
                          best_total=best_total, mode=mode)


def p_value_bound(N, observed_ks) -> float:
    """Conservative p-value for an observed KS deviation under the uniform-sphere null.

    Optimizes the (epsilon, t) split of the exact bound at budget observed_ks
    and clamps the total at 1.  Monotone nonincreasing in the observed value.
    """
    n = check_int(N, "N")
    ks = check_real(observed_ks, "observed KS statistic", 0.0, 1.0, "(]")
    return min(1.0, _best_split(n, ks, "exact_gamma")[2])
