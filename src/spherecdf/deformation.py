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

from .errors import DomainError, check_int, check_real

__all__ = [
    "DeformationParam",
    "GapEvaluation",
    "TANGENT_SLOPE",
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
        object.__setattr__(self, "t", check_real(self.t, "deformation parameter", 0.0, 1.0, "[)"))


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
    return t.t if isinstance(t, DeformationParam) else DeformationParam(t).t


def _t_array(t):
    """Validate a float, ndarray or DeformationParam of t values in [0, 1)."""
    if isinstance(t, DeformationParam):
        return t.t
    arr = np.asarray(t)
    # check_real's type rule; NaN fails both comparisons, so it is refused with +-inf
    if arr.dtype.kind not in "iuf" or not ((arr >= 0.0) & (arr < 1.0)).all():
        raise DomainError(f"t must lie in [0, 1), got {t!r}")
    return arr.astype(np.float64, copy=False)


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
    t = 0 and are nondecreasing in x.  Accepts scalar or ndarray x and t, which
    broadcast against each other.
    """
    tv = _t_array(t)
    if sign == "plus":
        s = -1.0
    elif sign == "minus":
        s = 1.0
    else:
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    out = _phi_def(np.asarray(x, dtype=np.float64), tv, s)
    return float(out) if out.ndim == 0 else out


def _phi_def(x, t, s):
    # Phi(x / (1 + s sgn(x) t)) on validated arrays: s = -1 is the plus side,
    # s = 1 the minus side; at x = 0 the quotient is 0 for any t
    return special.ndtr(x / (1.0 + s * np.sign(x) * t))


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


def x_plus(t: float) -> float:
    """Positive critical point of the plus-deformed difference curve.

    The factor log(1-t)/(-t) is evaluated by series near 0, so the formula
    extends continuously with limit 1 as t -> 0+.  Requires 0 < t < 1.
    """
    return _x_plus_ext(check_real(t, "t", 0.0, 1.0))


def x_minus(t: float) -> float:
    """Negative critical point of the plus-deformed difference curve.

    The reflection t -> -t of x_plus (term by term the same floating-point
    expression), with continuous extension -1 as t -> 0.  Requires 0 < t < 1.
    """
    return -_x_plus_ext(-check_real(t, "t", 0.0, 1.0))


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


def _g_plus(t):
    # kernel of tail_bounds.g_plus on a validated float or ndarray
    return 0.5 * (1.0 - 1.0 / (1.0 + t) ** 2)


def _g_minus(t):
    # kernel of tail_bounds.g_minus on a validated float or ndarray
    return 0.5 * (np.sqrt(2.0 / (1.0 - t) ** 2 - 1.0) - 1.0)


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


def _bisect(pred, lo: float, hi: float, tol: float):
    """Halve [lo, hi] until it is at most tol wide, keeping pred true at lo; returns (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _golden_min(fn, a: float, b: float, tol: float, best):
    """Golden-section search for a minimum of fn on [a, b]; returns (x_best, f_best).

    The bracket shrinks until it is at most tol wide, or until a step leaves
    it unchanged (a bracket a few ulps wide can shrink no further, whatever
    tol is).  After each shrink the two interior probes, left one first,
    replace the best point only when strictly lower, so ties keep the earlier
    point.  best is the (x, f) incumbent to beat.

    Serves tail_bounds._best_split, whose objective must keep math.exp (np.exp
    rounds differently on some arguments); a one-lane _golden_lanes search on
    it costs about 8x more.  gamma_oracle uses _golden_lanes instead.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
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


def _golden_lanes(fn, a, b, tol):
    """Golden-section minima of fn over arrays of brackets [a, b], run in lockstep.

    Every lane takes exactly _golden_min's steps on its own bracket, with the
    lower of its two opening probes as the incumbent, so each returned minimum
    equals that scalar search's bit for bit.  fn maps an array holding one
    probe per lane to their values; a lane that has stopped keeps its state
    while the others finish.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    best = np.where(fd < fc, fd, fc)
    live = b - a > tol
    while live.any():
        keep = fc <= fd
        left, right = live & keep, live & ~keep
        a0, b0 = a, b
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        probe = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fp = fn(probe)
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
        # left probe first; a stopped lane's best is already <= its frozen fc and fd
        best = np.where(fc < best, fc, best)
        best = np.where(fd < best, fd, best)
        live &= (b - a > tol) & ((a != a0) | (b != b0))
    return best


# t values per coarse-scan matrix: (16, grid_points) blocks keep the scan
# vectorised and add under 1% to the peak memory of verify_lemmas(1000);
# 64-t blocks add 5%
_ORACLE_BLOCK = 16


def gamma_oracle(t, grid_points: int = 2001, refine_tolerance: float = 1e-10,
                 side: str = "plus"):
    """Brute-force supremum of the deformation gap, independent of the closed form.

    Scans x in [-SUP_WINDOW, SUP_WINDOW] on a uniform grid (mirrored exactly
    around 0), then refines the best grid point on each half-line by
    golden-section search down to refine_tolerance in x.  Shares only the
    Gaussian CDF with gamma_closed.

    side="plus" maximizes Phi_plus - Phi; side="minus" maximizes Phi - Phi_minus.
    The two agree by the reflection symmetry of the deformation family.

    A scalar t returns a float; an array of t returns an array of the same
    shape whose entries equal the scalar calls bit for bit.  Pass a whole t
    grid in one call: the scan and the refinement then run over all t at
    once, which is many times faster than a loop of scalar calls.

    Args:
      t: deformation parameter in [0, 1), or an array of them
      grid_points: coarse grid size, at least 1000
      refine_tolerance: bracket width at which refinement stops
      side: which one-sided gap to maximize
    """
    tv = _t_array(t)
    grid_points = check_int(grid_points, "grid_points", 1000)
    refine_tolerance = check_real(refine_tolerance, "refine_tolerance", 0.0, interval="[)")
    if side not in ("plus", "minus"):
        raise DomainError(f"side must be 'plus' or 'minus', got {side!r}")
    ts = np.ravel(tv)
    half = np.linspace(0.0, SUP_WINDOW, grid_points // 2 + 1)
    xs = np.concatenate([-half[:0:-1], half])
    n, m = len(xs), len(half) - 1  # xs[m] == 0 splits the two half-lines

    def diff(x, tt):
        if side == "plus":
            return _phi_def(x, tt, -1.0) - special.ndtr(x)
        return special.ndtr(x) - _phi_def(x, tt, 1.0)

    best = np.empty(ts.size)
    lo = np.empty((2, ts.size))
    hi = np.empty((2, ts.size))
    for s in range(0, ts.size, _ORACLE_BLOCK):
        vals = diff(xs, ts[s:s + _ORACLE_BLOCK, None])
        best[s:s + _ORACLE_BLOCK] = vals.max(axis=1)
        # refine both half-lines: the two humps are nearly equal at small t, so the
        # coarse global argmax alone could land on the slightly lower one
        for h, (start, stop) in enumerate(((0, m), (m + 1, n))):
            k = start + np.argmax(vals[:, start:stop], axis=1)
            lo[h, s:s + _ORACLE_BLOCK] = xs[np.maximum(k - 1, 0)]
            hi[h, s:s + _ORACLE_BLOCK] = xs[np.minimum(k + 1, n - 1)]
    lane_t = np.concatenate([ts, ts])
    f = _golden_lanes(lambda x: -diff(x, lane_t), lo.ravel(), hi.ravel(), refine_tolerance)
    for peak in -f.reshape(2, -1):  # negative half-line first, as max(best, peak)
        best = np.where(peak > best, peak, best)
    return float(best[0]) if np.ndim(t) == 0 else best.reshape(np.shape(tv))


def f_minus(t: float) -> float:
    """Height of the negative-side peak of the deformation gap, smooth on (-1, 1)."""
    tv = check_real(t, "t", -1.0, 1.0)
    xm = -_x_plus_ext(-tv)
    return float(special.ndtr(xm / (1.0 + tv)) - special.ndtr(xm))


def f_plus(t: float) -> float:
    """Height of the positive-side peak; satisfies f_plus(t) = -f_minus(-t)."""
    return _plus_peak(check_real(t, "t", -1.0, 1.0))[1]


def alpha(t: float) -> float:
    """Auxiliary log-ratio log(1+t) / (t (2+t)) with alpha(0) = 1/2 exactly.

    Writing x_minus(t) = -(1+t) sqrt(2 alpha(t)) turns the peak-height algebra
    for f_minus into expressions in alpha alone.
    """
    tv = check_real(t, "t", -1.0, 1.0)
    return _log1p_over(tv) / (2.0 + tv)


def alpha_prime(t: float) -> float:
    """Derivative of alpha, differentiated in closed form with a series near 0."""
    tv = check_real(t, "t", -1.0, 1.0)
    lv = _log1p_over(tv)
    lp = _log1p_over_prime(tv)
    return lp / (2.0 + tv) - lv / (2.0 + tv) ** 2


def f_minus_prime(t: float) -> float:
    """Closed-form derivative of f_minus: exp(-alpha) sqrt(2 alpha) / (sqrt(2 pi) (1+t)).

    Strictly positive on (-1, 1); equals 1/sqrt(2 pi e) at t = 0.
    """
    tv = check_real(t, "t", -1.0, 1.0)
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
    if which == "gamma_upper":
        slope = check_real(target_slope, "gamma_upper slope", TANGENT_SLOPE, 0.5, "(]")

        def h(t):
            return _gamma(t) - slope * t

        # h < 0 strictly inside the valid stretch, h > 0 beyond the root
        inside_sign = -1.0
    elif which == "gplus_lower":
        slope = check_real(target_slope, "gplus_lower slope", 0.375, 1.0, "[)")

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
    lo, hi = _bisect(lambda t: inside_sign * h(t) > 0.0, lo, hi, 1e-13)
    return 0.5 * (lo + hi)
