"""Deformed Gaussian CDFs and the worst-case gap they open over the standard one.

Rescaling the argument of the standard Gaussian CDF Phi by any factor lambda
with |1 - lambda| <= t keeps Phi(x / lambda) inside the envelope spanned by the
two deformed CDFs

    plus:   Phi(x / (1 - sgn(x) t))        (lifts the curve everywhere)
    minus:  Phi(x / (1 + sgn(x) t))        (lowers the curve everywhere)

for t in [0, 1).  The gap function

    gamma(t) = sup_x [ Phi(x / (1 - sgn(x) t)) - Phi(x) ]

is the uniform price of such a rescaling: any CDF within epsilon of Phi stays
within epsilon + gamma(t) of Phi after rescaling.  This module provides the
envelope CDFs, a closed form for gamma via the critical points of the
difference curve, an independent brute-force supremum oracle, the one-sided
peak values f_minus / f_plus together with the auxiliary log-ratio function
alpha and the closed-form derivative of f_minus, and a constructive secant
search that trades the global bounds gamma(t) <= t/2 and g_plus(t) >= 3t/8 for
sharper slopes valid on sub-intervals.

All functions are pure and safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, check_int, check_open

__all__ = [
    "DeformationParam",
    "GapEvaluation",
    "TANGENT_SLOPE",
    "SUP_WINDOW",
    "std_normal_cdf",
    "phi_deformed",
    "x_plus",
    "x_minus",
    "gamma_closed",
    "gamma_oracle",
    "f_minus",
    "f_plus",
    "alpha",
    "alpha_prime",
    "f_minus_prime",
    "secant_interval",
]

# Common slope of f_minus and f_plus at t = 0: 1/sqrt(2*pi*e).
TANGENT_SLOPE = 1.0 / math.sqrt(2.0 * math.pi * math.e)

# Supremum search window.  Beyond |x| = 12 both CDFs in the difference are tail
# values below ~1e-30 (for t <= 0.99 the inner argument still exceeds 12/1.99),
# so the difference cannot host the maximum, which is of order t.
SUP_WINDOW = 12.0

# Removable singularities such as log(1+u)/u switch to a 6-term series here.
_SERIES_CUTOFF = 1e-4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink ratio


@dataclass(frozen=True)
class DeformationParam:
    """Scale-deviation parameter t; valid values live in [0, 1)."""

    t: float

    def __post_init__(self):
        t = self.t
        if not (isinstance(t, (int, float)) and math.isfinite(t)):
            raise DomainError(f"deformation parameter must be finite, got {t!r}")
        if not 0.0 <= t < 1.0:
            raise DomainError(f"deformation parameter must lie in [0, 1), got {t}")
        object.__setattr__(self, "t", float(t))


@dataclass(frozen=True)
class GapEvaluation:
    """Value of gamma at t together with the location of the positive peak.

    maximizer_x is NaN at t = 0 where the difference curve is identically zero
    and the critical-point formula degenerates to 0/0.
    """

    t: float
    gamma: float
    maximizer_x: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 0.5:
            raise DomainError(f"gap value out of [0, 1/2): {self.gamma}")


def _t_value(t) -> float:
    """Coerce a float or DeformationParam to a validated float in [0, 1)."""
    if isinstance(t, DeformationParam):
        return t.t
    return DeformationParam(t).t


def std_normal_cdf(x):
    """Standard Gaussian CDF, evaluated through the complementary error function.

    Accepts a scalar or an ndarray.  Tail arguments keep full relative accuracy
    because the underlying erfc avoids the 1 - (tiny) cancellation; outputs lie
    in [0, 1].

    Raises DomainError on non-finite input.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("std_normal_cdf requires finite input")
    out = special.ndtr(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def phi_deformed(x, t, sign: str):
    """Deformed Gaussian CDF Phi(x / (1 -/+ sgn(x) t)).

    sign="plus" divides by 1 - sgn(x) t and lies on or above Phi; sign="minus"
    divides by 1 + sgn(x) t and lies on or below it.  Both reduce to Phi at
    t = 0 and are nondecreasing in x.  Accepts scalar or ndarray x.
    """
    tv = _t_value(t)
    if sign == "plus":
        s = -1.0
    elif sign == "minus":
        s = 1.0
    else:
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    arr = np.asarray(x, dtype=np.float64)
    denom = 1.0 + s * np.sign(arr) * tv
    out = special.ndtr(arr / denom)
    if arr.ndim == 0:
        return float(out)
    return out


def _log1p_over(u: float) -> float:
    # log(1+u)/u; series keeps the removable singularity smooth through u = 0
    if abs(u) < _SERIES_CUTOFF:
        return 1.0 + u * (-1 / 2 + u * (1 / 3 + u * (-1 / 4 + u * (1 / 5 + u * (-1 / 6)))))
    return math.log1p(u) / u


def _log1p_over_prime(u: float) -> float:
    # d/du [log(1+u)/u]; the direct quotient cancels near 0, so use the series
    # on a wider window than _log1p_over (difference of two near-1 terms)
    if abs(u) < 1e-3:
        return -1 / 2 + u * (2 / 3 + u * (-3 / 4 + u * (4 / 5 + u * (-5 / 6 + u * (6 / 7)))))
    return (1.0 / (1.0 + u) - _log1p_over(u)) / u


def _x_plus_ext(t: float) -> float:
    # positive critical point, smooth continuation over (-1, 1) with value 1 at 0
    return math.sqrt(2.0 * (1.0 - t) ** 2 / (2.0 - t) * _log1p_over(-t))


def _x_minus_ext(t: float) -> float:
    # negative critical point, smooth continuation over (-1, 1) with value -1 at 0
    return -math.sqrt(2.0 * (1.0 + t) ** 2 / (2.0 + t) * _log1p_over(t))


def x_plus(t: float) -> float:
    """Positive critical point of the plus-deformed difference curve.

    The factor log(1-t)/(-t) is evaluated by series near 0, so the formula
    extends continuously with limit 1 as t -> 0+.  Requires 0 < t < 1.
    """
    return _x_plus_ext(check_open(t, 0.0, 1.0, "t"))


def x_minus(t: float) -> float:
    """Negative critical point of the plus-deformed difference curve.

    Continuous extension -1 as t -> 0.  Requires 0 < t < 1.
    """
    return _x_minus_ext(check_open(t, 0.0, 1.0, "t"))


def _plus_peak(t: float):
    """Location x_plus(t) and height of the positive-side peak, for -1 < t < 1."""
    xp = _x_plus_ext(t)
    return xp, float(special.ndtr(xp / (1.0 - t)) - special.ndtr(xp))


def _gamma(t: float) -> float:
    """gamma(t) as a bare float, for inner loops whose t values skip _t_value.

    Keeps gamma_closed's invariants, 0 <= t < 1 and 0 <= gamma < 1/2, as
    scalar compares instead of DeformationParam and GapEvaluation objects.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"deformation parameter must lie in [0, 1), got {t}")
    gamma = max(_plus_peak(t)[1], 0.0) if t > 0.0 else 0.0
    if not gamma < 0.5:
        raise DomainError(f"gap value out of [0, 1/2): {gamma}")
    return gamma


def gamma_closed(t) -> GapEvaluation:
    """Gap function gamma(t) via its closed form.

    The difference Phi(x/(1 - sgn(x) t)) - Phi(x) has exactly one positive and
    one negative local maximum; the positive one dominates, so

        gamma(t) = Phi(x_plus(t) / (1 - t)) - Phi(x_plus(t))

    with gamma(0) = 0 handled separately (the critical-point formula is 0/0
    there, and the difference curve is identically zero).
    """
    tv = _t_value(t)
    if tv == 0.0:
        return GapEvaluation(t=0.0, gamma=0.0, maximizer_x=math.nan)
    xp, height = _plus_peak(tv)
    return GapEvaluation(t=tv, gamma=max(height, 0.0), maximizer_x=xp)


def _golden_min(fn, a: float, b: float, tol: float, best=None):
    """Golden-section search for a minimum of fn on [a, b]; returns (x_best, f_best).

    The bracket shrinks until it is at most tol wide, or until a step leaves
    it unchanged (a bracket a few ulps wide can shrink no further, whatever
    tol is).  After each shrink the two interior probes, left one first,
    replace the best point only when strictly lower, so ties keep the earlier
    point.  best is an (x, f) incumbent to beat; without one, the lower
    opening probe seeds it.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    if best is None:
        best = (d, fd) if fd < fc else (c, fc)
    best_x, best_f = best
    while b - a > tol:
        bracket = (a, b)
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        for x, f in ((c, fc), (d, fd)):
            if f < best_f:
                best_x, best_f = x, f
        if (a, b) == bracket:
            break
    return best_x, best_f


def gamma_oracle(t, grid_points: int = 2001, refine_tolerance: float = 1e-10,
                 side: str = "plus") -> float:
    """Brute-force supremum of the deformation gap, independent of the closed form.

    Scans x in [-SUP_WINDOW, SUP_WINDOW] on a uniform grid (mirrored exactly
    around 0), then refines the best grid point on each half-line by
    golden-section search down to refine_tolerance in x.  Shares only the
    Gaussian CDF with gamma_closed.

    side="plus" maximizes Phi_plus - Phi; side="minus" maximizes Phi - Phi_minus.
    The two agree by the reflection symmetry of the deformation family.

    Args:
      t: deformation parameter in [0, 1)
      grid_points: coarse grid size, at least 1000
      refine_tolerance: bracket width at which refinement stops
      side: which one-sided gap to maximize
    """
    tv = _t_value(t)
    grid_points = check_int(grid_points, "grid_points", 1000)
    if side not in ("plus", "minus"):
        raise DomainError(f"side must be 'plus' or 'minus', got {side!r}")
    half = np.linspace(0.0, SUP_WINDOW, grid_points // 2 + 1)
    xs = np.concatenate([-half[:0:-1], half])
    if side == "plus":
        vals = special.ndtr(xs / (1.0 - np.sign(xs) * tv)) - special.ndtr(xs)

        def neg_diff(x):
            return -float(special.ndtr(x / (1.0 - math.copysign(tv, x))) - special.ndtr(x))
    else:
        vals = special.ndtr(xs) - special.ndtr(xs / (1.0 + np.sign(xs) * tv))

        def neg_diff(x):
            return -float(special.ndtr(x) - special.ndtr(x / (1.0 + math.copysign(tv, x))))

    best = float(vals.max())
    n = len(xs)
    # refine both half-lines: the two humps are nearly equal at small t, so the
    # coarse global argmax alone could land on the slightly lower one
    for region in (xs < 0.0, xs > 0.0):
        idx = np.nonzero(region)[0]
        k = int(idx[np.argmax(vals[idx])])
        lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, n - 1)]
        best = max(best, -_golden_min(neg_diff, float(lo), float(hi), refine_tolerance)[1])
    return best


def f_minus(t: float) -> float:
    """Height of the negative-side peak of the deformation gap, smooth on (-1, 1)."""
    tv = check_open(t, -1.0, 1.0, "t")
    xm = _x_minus_ext(tv)
    return float(special.ndtr(xm / (1.0 + tv)) - special.ndtr(xm))


def f_plus(t: float) -> float:
    """Height of the positive-side peak; satisfies f_plus(t) = -f_minus(-t)."""
    return _plus_peak(check_open(t, -1.0, 1.0, "t"))[1]


def alpha(t: float) -> float:
    """Auxiliary log-ratio log(1+t) / (t (2+t)) with alpha(0) = 1/2 exactly.

    Writing x_minus(t) = -(1+t) sqrt(2 alpha(t)) turns the peak-height algebra
    for f_minus into expressions in alpha alone.
    """
    tv = check_open(t, -1.0, 1.0, "t")
    return _log1p_over(tv) / (2.0 + tv)


def alpha_prime(t: float) -> float:
    """Derivative of alpha, differentiated in closed form with a series near 0."""
    tv = check_open(t, -1.0, 1.0, "t")
    lv = _log1p_over(tv)
    lp = _log1p_over_prime(tv)
    return lp / (2.0 + tv) - lv / (2.0 + tv) ** 2


def f_minus_prime(t: float) -> float:
    """Closed-form derivative of f_minus: exp(-alpha) sqrt(2 alpha) / (sqrt(2 pi) (1+t)).

    Strictly positive on (-1, 1); equals 1/sqrt(2 pi e) at t = 0.
    """
    tv = check_open(t, -1.0, 1.0, "t")
    a = alpha(tv)
    return math.exp(-a) * math.sqrt(2.0 * a) / (math.sqrt(2.0 * math.pi) * (1.0 + tv))


def secant_interval(target_slope: float, which: str) -> float:
    """Largest t* such that a secant line with the given slope bounds the curve on [0, t*].

    which="gamma_upper" finds the largest t* with gamma(t) <= slope * t for all
    t in [0, t*]; valid slopes lie in (1/sqrt(2 pi e), 1/2].  Because gamma is
    convex with gamma(0) = 0, the ratio gamma(t)/t is nondecreasing, so t* is
    the unique root of gamma(t) - slope * t and bisection applies.

    which="gplus_lower" does the same for g_plus(t) >= slope * t with slopes in
    [3/8, 1); g_plus is concave, so the ratio g_plus(t)/t is nonincreasing and
    the root is again unique.

    Returns 1.0 when the inequality holds on all of [0, 1).  The root residual
    |curve(t*) - slope * t*| is at most 1e-9.
    """
    slope = float(target_slope)
    if which == "gamma_upper":
        if not TANGENT_SLOPE < slope <= 0.5:
            raise DomainError(
                f"gamma_upper slope must lie in (1/sqrt(2*pi*e), 1/2], got {slope}")

        def h(t):
            return _gamma(t) - slope * t

        # h < 0 strictly inside the valid stretch, h > 0 beyond the root
        inside_sign = -1.0
    elif which == "gplus_lower":
        if not 0.375 <= slope < 1.0:
            raise DomainError(f"gplus_lower slope must lie in [3/8, 1), got {slope}")
        from .tail_bounds import _g_plus  # deferred: tail_bounds imports this module

        def h(t):
            return _g_plus(t) - slope * t

        inside_sign = 1.0
    else:
        raise DomainError(f"which must be 'gamma_upper' or 'gplus_lower', got {which!r}")

    hi = 1.0 - 1e-12
    if inside_sign * h(hi) >= 0.0:
        return 1.0
    lo = 1e-9
    if inside_sign * h(lo) <= 0.0:
        # slope is barely past the tangent slope; the root sits below lo and
        # the residual there is already under 1e-9
        return lo
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if inside_sign * h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
