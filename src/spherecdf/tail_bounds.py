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

from .deformation import (TANGENT_SLOPE, _bisect, _f_minus_prime, _g_minus, _g_plus, _gamma,
                          _gamma_np, _golden_min, _t_array, _t_value)
from .errors import DomainError, check_choice, check_int, check_real, check_reals

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


def _cost(t, mode: str, gamma=_gamma):
    """Threshold price of the scale window t: gamma(t), or its secant bound t/2.

    The one map from a mode to its price.  t is a float, priced by _gamma, or
    the split filter's grid, priced by gamma=_gamma_np (see _best_split).
    """
    return gamma(t) if mode == "exact_gamma" else 0.5 * t


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


_MODES = ("exact_gamma", "corollary")  # the Theorem's gamma and rates, the Corollary's t/2, 3t/8, t

# grid points of the split search, and the grid entries its numpy filter prices per block
# (64 rows), which caps the filter's temporaries at a few MiB whatever the row count
_GRID_POINTS = 512
_FILTER_BLOCK = 1 << 15

# half-width of the band around gamma(t) = dv's approximate root inside which the exact
# t_max bisection evaluates its predicate (see _best_split)
_ROOT_BAND = 2.0 ** -40


def _t_max(dv: float, mode: str) -> float:
    """The top of the feasible t range: _bisect's lo on cost(t) < dv over [0, 1 - 1e-12].

    Every bisection step takes the verdict of _cost(mid, mode) < dv.  In exact
    mode only a mid inside the band [lo, up] is evaluated: the certified
    [below - 2^-40, above + 2^-40] of _best_split, or (-inf, inf) without it.
    """
    hi = 1.0 - 1e-12
    if dv >= 0.5:  # cost is strictly increasing from 0 toward 1/2
        return hi
    if mode == "corollary":
        # 0.5 mid < dv exactly when mid < 2 dv: both products are exact here
        cut = 2.0 * dv
        return _bisect(lambda t: t < cut, 0.0, hi, 1e-12)[0]
    # Newton from the right of gamma(t) = dv, as gamma(t) >= TANGENT_SLOPE t; it stops
    # once a step is so short that the next error, about step^2 / (1 - t), is far
    # below 2^-44, once steps are a few ulps of t, or once it is held at hi
    r = min(dv / TANGENT_SLOPE, hi)
    for _ in range(40):
        step = (_cost(r, mode) - dv) / _f_minus_prime(-r)  # gamma'(t) = f_minus'(-t)
        r, last = min(max(r - step, 0.0), hi), r
        if abs(step) <= max(2.0 ** -26 * (1.0 - r), 2.0 ** -50) or r == last:
            break
    # a root at or past hi needs no upper certificate: every mid lies below hi
    below, above = max(r - 2.0 ** -44, 0.0), min(r + 2.0 ** -44, hi)
    lo, up = -math.inf, math.inf  # uncertified: every step is evaluated
    if _cost(below, mode) < dv and (above == hi or not _cost(above, mode) < dv):
        lo, up = below - _ROOT_BAND, above + _ROOT_BAND
    return _bisect(lambda t: t < lo or (t <= up and _cost(t, mode) < dv), 0.0, hi, 1e-12)[0]


def _refine(n: int, dv: float, mode: str, t_max: float, grid, cand):
    """(epsilon, t, total) of one row from its grid and its filter's candidate indices."""
    if t_max == 0.0:  # the feasible range is {0} (dv below about 2.4e-13 in exact_gamma mode)
        return dv, 0.0, _total(n, dv, 0.0, mode)
    totals = []
    for t in grid[cand].tolist():  # float calls: an array _cost costs more on so few points
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


def _best_split(n: int, dvs, mode: str):
    """The (epsilon, t, total) of the best split of each budget in dvs, a list of floats.

    Arguments are already validated.  Each budget's result is the same, bit
    for bit, whichever other budgets share the call.

    The feasible range is [0, t_max], t_max being what a 40-step bisection of
    cost(t) < dv over [0, 1 - 1e-12] returns; _t_max takes those very steps
    but evaluates few of their verdicts.  In corollary mode a verdict is
    mid < 2 dv, with no _cost call.  In exact mode the certificate is: gamma
    is convex with slope at least s = TANGENT_SLOPE, and the computed cost is
    within E = 2^-44 of gamma (two ndtr errors of 2^-46, as below, and a few
    u of rounding; an error in x moves the peak height only to second order,
    its x-derivative being 0).  Newton from the right puts r near the root,
    and two exact calls check cost(L) < dv and cost(R) >= dv at
    L, R = r -+ 2^-44.  A mid below L - M then has
    gamma(mid) <= gamma(L) - s M < dv + E - 2E, so cost(mid) < dv, and a mid
    above R + M has cost(mid) >= dv likewise, for M = _ROOT_BAND = 2^-40,
    about twice 2E / s = 4.7e-13.  So each step's verdict is the one predicate
    mid < L - M or (mid <= R + M and cost(mid) < dv), evaluated only in the
    band: with Newton's steps and the two checks, 3 to 11 _cost calls where
    the bisection alone makes 40.  When a check fails, the band is (-inf, inf).

    One numpy pass (_cost by _gamma_np, _total by np.exp) prices the 512-point
    grids of all rows, in blocks of _FILTER_BLOCK = 2^15 grid entries (64 rows,
    a few MiB of temporaries); the exact scalar totals (math.exp, libm pow) are
    paid only for the points whose approximate total is at most min (1 + m) +
    1e-299, m = 1e-11 (1 + sqrt(n)), each row then running the refinement.
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
    rows = [(d, _t_max(d, mode)) for d in dvs]
    margin = 1.0 + 1e-11 * (1.0 + math.sqrt(n))
    per_block = _FILTER_BLOCK // _GRID_POINTS
    out = []
    for start in range(0, len(rows), per_block):
        block = rows[start:start + per_block]
        dv_t = np.array(block)  # columns dv and t_max
        # each row's np.linspace(0.0, t_max, 512, endpoint=False): i * (t_max / 512)
        grid = np.arange(float(_GRID_POINTS)) * (dv_t[:, 1:] / _GRID_POINTS)
        approx = _total(n, dv_t[:, :1] - _cost(grid, mode, _gamma_np), grid, mode, np.exp)
        limit = approx.min(axis=1, keepdims=True) * margin + 1e-299
        # a NaN or infinite approximation is a candidate too
        keep = ~(np.isfinite(approx) & (approx > limit))
        out += [_refine(n, d, mode, t, row, np.flatnonzero(kept))
                for (d, t), row, kept in zip(block, grid, keep)]
    return out


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
    mode = check_choice(mode, "mode", _MODES)
    (best_eps, best_t, best_total), = _best_split(n, [dv], mode)
    return OptimizedBound(delta=dv, best_epsilon=best_eps, best_t=best_t,
                          best_total=best_total, mode=mode)


def p_value_bound(N, observed_ks):
    """Conservative p-value for an observed KS deviation under the uniform-sphere null.

    Optimizes the (epsilon, t) split of the exact bound at budget observed_ks
    and clamps the total at 1.  Monotone nonincreasing in the observed value.
    Accepts a scalar or an ndarray of observed values; an array is priced in
    one split search, and each entry equals the scalar call's bit for bit.  A
    0-d array is priced as its scalar and returns a float.
    """
    n = check_int(N, "N")
    ks = check_reals(observed_ks, "observed KS statistic", 0.0, 1.0, "(]")
    totals = [min(1.0, split[2]) for split in _best_split(n, ks.ravel().tolist(), "exact_gamma")]
    return totals[0] if ks.ndim == 0 else np.array(totals).reshape(ks.shape)
