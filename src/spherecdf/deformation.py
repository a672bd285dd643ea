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
from types import SimpleNamespace

import numpy as np
from scipy import special

from .errors import SIZE_MAX, DomainError, check_choice, check_int, check_real, check_reals

__all__ = [
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

# Supremum search window.  Beyond |x| = 12 the gap is below Phi(-12) ~ 2e-33 on
# the half-line whose divisor is 1 - t, and below 6 phi(6) t ~ 4e-8 t on the
# other (gamma_oracle's mean-value bound, as |x| / (1 + t) > 6 there), while
# its supremum gamma(t) is at least t / sqrt(2 pi e) ~ 0.24 t.
SUP_WINDOW = 12.0

# Removable singularities such as log(1+u)/u switch to a 6-term series here.
_SERIES_CUTOFF = 1e-4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink ratio


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
    """A scalar deformation parameter t, validated: a float in [0, 1)."""
    return check_real(t, "deformation parameter", 0.0, 1.0, "[)")


def _t_array(t):
    """A scalar or array of t values in [0, 1), validated: a float64 ndarray."""
    return check_reals(t, "t", 0.0, 1.0, "[)")


def std_normal_cdf(x):
    """Standard Gaussian CDF, evaluated through the complementary error function.

    Accepts a scalar or an ndarray.  Tail arguments keep full relative accuracy
    because the underlying erfc avoids the 1 - (tiny) cancellation; outputs lie
    in [0, 1].

    Raises DomainError on non-finite input.
    """
    out = special.ndtr(check_reals(x, "x"))
    return float(out) if out.ndim == 0 else out


def phi_deformed(x, t, sign: str):
    """Deformed Gaussian CDF Phi(x / (1 -/+ sgn(x) t)).

    sign="plus" divides by 1 - sgn(x) t and lies on or above Phi; sign="minus"
    divides by 1 + sgn(x) t and lies on or below it.  Both reduce to Phi at
    t = 0 and are nondecreasing in x.  Accepts scalar or ndarray x and t, which
    broadcast against each other.
    """
    tv = _t_array(t)
    s = 1.0 if check_choice(sign, "sign", ("plus", "minus")) == "minus" else -1.0
    xv = check_reals(x, "x")
    try:
        np.broadcast_shapes(xv.shape, tv.shape)
    except ValueError:
        raise DomainError(f"x shape {xv.shape} and t shape {tv.shape} do not broadcast") from None
    out = _phi_def(xv, 1.0 + s * np.sign(xv) * tv)
    return float(out) if out.ndim == 0 else out


def _phi_def(x, div):
    # Phi(x / div) on validated arrays, div being 1 + s sgn(x) t: s = -1 on the plus
    # side, s = 1 on the minus side; x = 0 gives 0.5 whatever the divisor, as div > 0
    return special.ndtr(x / div)


# libm for the kernels below, which take a float or a 1-D array: math's functions, or the
# same mapped over the entries, as numpy's own log1p, exp and x**2 round differently on some
# arguments (its sqrt and + - * / round correctly, as math's do)
_MAPPED = SimpleNamespace(sqrt=np.sqrt, **{
    fn.__name__: lambda x, *args, fn=fn: np.fromiter(
        map(fn, x.tolist(), *([a] * x.size for a in args)), float, x.size)
    for fn in (math.log1p, math.pow, math.exp)})


def _libm(x):
    return math if isinstance(x, float) else _MAPPED


def _near0(u, cutoff, series, direct):
    # series(u) where |u| < cutoff, else direct(u): on a float, or entry by entry
    if isinstance(u, float):
        return series(u) if abs(u) < cutoff else direct(u)
    small = np.abs(u) < cutoff
    return np.where(small, series(u), direct(np.where(small, 1.0, u)))


def _log1p_over_series(u):
    return 1.0 + u * (-1 / 2 + u * (1 / 3 + u * (-1 / 4 + u * (1 / 5 + u * (-1 / 6)))))


def _log1p_over(u):
    # log(1+u)/u; series keeps the removable singularity smooth through u = 0
    if isinstance(u, float):  # inline, as the split search's float _gamma calls land here
        return _log1p_over_series(u) if abs(u) < _SERIES_CUTOFF else math.log1p(u) / u
    return _near0(u, _SERIES_CUTOFF, _log1p_over_series, lambda v: _MAPPED.log1p(v) / v)


def _log1p_over_prime(u):
    # d/du [log(1+u)/u]; the direct quotient cancels near 0 (difference of two
    # near-1 terms), so use a 9-term series on a wider window than _log1p_over
    return _near0(u, 1e-2, lambda u: -1 / 2 + u * (2 / 3 + u * (-3 / 4 + u * (4 / 5 + u * (
        -5 / 6 + u * (6 / 7 + u * (-7 / 8 + u * (8 / 9 + u * (-9 / 10)))))))),
                  lambda u: (1.0 / (1.0 + u) - _log1p_over(u)) / u)


def _x_plus_ext(t):
    # positive critical point, smooth continuation over (-1, 1) with value 1 at 0
    m = math if isinstance(t, float) else _MAPPED  # _libm(t), inline on the hot float path
    return m.sqrt(2.0 * m.pow(1.0 - t, 2.0) / (2.0 - t) * _log1p_over(-t))


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


def _peak(t, side):
    """Location x and height ndtr(x / (1 - side t)) - ndtr(x) of a peak, for -1 < t < 1.

    side = 1.0 gives x_plus(t) and f_plus(t), side = -1.0 their reflection
    t -> -t, x_minus(t) and f_minus(t): x = side * _x_plus_ext(side * t).  side
    is the sign of x, opposite to _phi_def's s.  The height is +0.0 at t = 0.
    A 1-D array t runs _x_plus_ext's numpy arithmetic over all its entries,
    with libm's log1p and pow(x, 2.0) mapped over them, and makes one ndtr
    pair, so each entry equals the float call bit for bit.
    """
    st = side * t
    x = side * _x_plus_ext(st)
    height = special.ndtr(x / (1.0 - st)) - special.ndtr(x)
    return x, float(height) if isinstance(t, float) else height


def _gamma(t):
    """gamma(t) on a bare float or 1-D array, for inner loops whose t values skip _t_value.

    Keeps gamma_closed's invariants, 0 <= t < 1 and 0 <= gamma < 1/2, as
    plain compares instead of check_real and a GapEvaluation.  An array
    returns an array whose entries equal the float calls bit for bit.
    """
    if isinstance(t, float):
        if not 0.0 <= t < 1.0:
            raise DomainError(f"deformation parameter must lie in [0, 1), got {t}")
        gamma = top = max(_peak(t, 1.0)[1], 0.0)
    else:
        if not (0.0 <= t.min() and t.max() < 1.0):
            raise DomainError(f"deformation parameters must lie in [0, 1), got {t}")
        gamma = np.maximum(_peak(t, 1.0)[1], 0.0)
        top = gamma.max()
    if not top < 0.5:
        raise DomainError(f"gap value out of [0, 1/2): {top}")
    return gamma


def _gamma_np(t):
    # _gamma on an unchecked 1-D array in one numpy pass; np.log1p and x*x round unlike
    # math.log1p and libm pow, so entries may be a few ulps off (see tail_bounds._best_split)
    # log1p(-t) / -t, with its limit 1 at t = 0, where no 0/0 is evaluated
    ratio = np.divide(np.log1p(-t), -t, out=np.ones_like(t), where=t > 0.0)
    x = np.sqrt(2.0 * (1.0 - t) ** 2 / (2.0 - t) * ratio)
    return np.maximum(special.ndtr(x / (1.0 - t)) - special.ndtr(x), 0.0)


def _g_plus(t):
    # kernel of tail_bounds.g_plus on a validated float or ndarray
    return 0.5 * (1.0 - 1.0 / (1.0 + t) ** 2)


def _g_minus(t):
    # kernel of tail_bounds.g_minus on a validated float or ndarray; math.sqrt
    # and np.sqrt both round correctly, and math.sqrt is far cheaper on a float
    sqrt = math.sqrt if isinstance(t, float) else np.sqrt
    return 0.5 * (sqrt(2.0 / (1.0 - t) ** 2 - 1.0) - 1.0)


def gamma_closed(t) -> GapEvaluation:
    """Gap function gamma(t) via its closed form.

    The difference Phi(x/(1 - sgn(x) t)) - Phi(x) has exactly one positive and
    one negative local maximum; the positive one dominates, so

        gamma(t) = Phi(x_plus(t) / (1 - t)) - Phi(x_plus(t))

    and gamma(0) = 0 with maximizer_x NaN: the difference curve is identically 0.
    """
    tv = _t_value(t)
    if tv == 0.0:
        return GapEvaluation(t=0.0, gamma=0.0, maximizer_x=math.nan)
    xp, height = _peak(tv, 1.0)
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

    Serves tail_bounds._best_split, whose refinement, like its exact grid
    totals, must keep math.exp (np.exp rounds differently on some arguments,
    which only its grid filter may tolerate); a one-lane _golden_lanes search
    on it costs about 8x more.  gamma_oracle uses _golden_lanes instead.
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


def _golden_lanes(fn, a, b, tol, *args):
    """Golden-section minima of fn over arrays of brackets [a, b], run in lockstep.

    Every lane takes exactly _golden_min's steps on its own bracket, with the
    lower of its two opening probes as the incumbent, so each returned minimum
    equals that scalar search's bit for bit.  fn(x, *args) maps one probe per
    lane to their values, args being per-lane parameter arrays.  A lane that
    stops keeps stepping with the others, but its minimum no longer changes.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c, *args), fn(d, *args)
    best = np.where(fd < fc, fd, fc)
    live = b - a > tol
    while live.any():
        left = fc <= fd  # keep [a, d] and probe anew inside it, else keep [c, b]
        a0, b0 = a, b
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = b - a
        step = _INVPHI * width
        probe = np.where(left, b - step, a + step)
        fp = fn(probe, *args)
        c, d, fc, fd = (np.where(left, probe, d), np.where(left, c, probe),
                        np.where(left, fp, fd), np.where(left, fc, fp))
        # only the new probe can beat best: the kept one was compared when it was new
        best = np.where(live & (fp < best), fp, best)
        live &= (width > tol) & ((a != a0) | (b != b0))
    return best


# grid points per flat evaluation of the scan's windows, past each chunk's first t
_ORACLE_POINTS = 1 << 13


def _gap_bound(b, c):
    # the mean-value bound min(Phi(-b), c b phi(b)) on gamma_oracle's gap
    return np.minimum(special.ndtr(-b), c * b * np.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi))


def _oracle_scan(diff, ts, grid_points, near, probes=(0.1, 0.25, 0.5, 0.75, 1.0, 1.25)):
    """gamma_oracle's scan of diff over a 1-D t array: grid maxima and kept lanes.

    A lane is a (half-line, t) pair; near is the sign of x where the divisor
    is 1 - t.  diff(x, phi, div) is the gap at x given phi = Phi(x), which
    the scan reads off the Phi it computes once over its grid, and the
    divisor div of x's lane.  Returns the grid maximum per t, then per kept
    lane, in t-major order, its half-line h (0 negative, 1 positive), its t
    index i, its divisor and the bracket (lo, hi) around its first argmax.
    The caps come from the grid points at or just beyond the |x| in probes,
    which set the speed, never the results (see gamma_oracle).
    """
    half = np.linspace(0.0, SUP_WINDOW, grid_points // 2 + 1)
    xs = np.concatenate([-half[:0:-1], half])
    n, m = len(xs), len(half) - 1  # xs[m - j] == -half[j] and xs[m + j] == half[j]
    phi = special.ndtr(xs)
    sgn = np.array([[-1], [1]])  # half-line h: 0 negative, 1 positive
    # per half-line and t: the gap's divisor, and the bound's factor c and argument half[j] / den
    div = np.where(sgn == near, 1.0 - ts, 1.0 + ts)
    c = np.where(sgn == near, ts / div, ts)
    den = np.where(sgn == near, 1.0, div)
    pj = np.searchsorted(half, probes)  # each probe's j
    px = m + sgn * pj  # and its grid index on each half-line
    vals = diff(xs[px][:, None], phi[px][:, None], div[..., None])
    thr = vals.max(axis=2) - 1e-12
    # keep a half-line unless its whole bound c phi(1) is below the other's cap
    i, h = np.nonzero((c * TANGENT_SLOPE >= thr[::-1]).T)
    div, c, den, thr = div[h, i], c[h, i], den[h, i], thr[h, i]
    # widen each window from its cap's probe by binary steps: the bound is unimodal
    ends = np.stack([pj[vals.argmax(axis=2)[h, i]]] * 2)
    outward = np.array([[-1], [1]])
    for step in 2 ** np.arange(m.bit_length())[::-1]:
        out = np.clip(ends + outward * step, 1, m)
        ends = np.where(_gap_bound(half[out] / den, c) > thr, out, ends)
    lens = ends[1] - ends[0] + 1
    starts = np.where(h == 1, m + ends[0], m - ends[1])
    top, k = np.empty(h.size), np.empty(h.size, dtype=np.intp)
    # a chunk starts at each lane where the running point count passes a multiple of it
    firsts = np.flatnonzero(np.diff(lens.cumsum() // _ORACLE_POINTS, prepend=-1))
    for block in map(slice, firsts, [*firsts[1:], h.size]):
        size = lens[block]
        offs = np.cumsum(size) - size
        idx = np.repeat(starts[block] - offs, size) + np.arange(size.sum())
        vals = diff(xs[idx], phi[idx], np.repeat(div[block], size))
        top[block] = np.maximum.reduceat(vals, offs)
        hit = np.flatnonzero(vals == np.repeat(top[block], size))
        k[block] = idx[hit[np.searchsorted(hit, offs)]]  # first argmax of each
    # a t's lanes are adjacent, negative first; the gap at x = 0 is 0
    best = np.maximum(np.maximum.reduceat(top, np.flatnonzero(np.diff(i, prepend=-1))), 0.0)
    # bracket every kept lane: at small t both humps are kept and nearly equal, so
    # the coarse global argmax alone could land on the slightly lower one
    return best, h, i, div, xs[np.maximum(k - 1, 0)], xs[np.minimum(k + 1, n - 1)]


def gamma_oracle(t, grid_points: int = 2001, refine_tolerance: float = 1e-10,
                 side: str = "plus"):
    """Brute-force supremum of the deformation gap, independent of the closed form.

    Scans x in [-SUP_WINDOW, SUP_WINDOW] on a uniform grid (mirrored exactly
    around 0), then refines the best grid point on each half-line that can
    hold the maximum by golden-section search down to refine_tolerance in x.
    Shares only the Gaussian CDF with gamma_closed.  The scan takes Phi once
    over its grid and reads each window point's Phi(x) off it.  A half-line's
    x never changes sign (its brackets reach x = 0 only as an end), so its
    divisor 1 -/+ t is formed once per t and passed to every deformed-CDF
    evaluation, on the grid and at each refinement probe.

    side="plus" maximizes Phi_plus - Phi; side="minus" maximizes Phi - Phi_minus.
    The two agree by the reflection symmetry of the deformation family.

    The scan skips the x that cannot hold a half-line's maximum.  Write
    a = |x|.  By the mean value theorem the gap is at most

        min(Phi(-a), phi(a) a t / (1 - t))            where the divisor is 1 - t
        min(Phi(-b), phi(b) b t),  b = a / (1 + t)    where it is 1 + t

    (on the plus side x > 0 and x < 0; the minus side is their mirror
    x -> -x), and each bound is unimodal in a.  Per t and half-line the cap
    is the largest gap at a few probe points; binary steps out from the best
    probe find the window of grid points whose bound exceeds the cap less
    1e-12, and only the window is evaluated.  The slack covers ndtr's absolute
    error (below 1e-15), the rounding of the quotient x / (1 -/+ t) (below
    2^-52 max phi(y) y ~ 6e-17) and the bound's relative rounding on values
    of at most 1/2.  So a skipped x has a computed gap below the cap, which is
    at most its half-line's maximum: the grid maximum and each half-line's
    first argmax equal those of a scan of every grid point.
    As b phi(b) <= phi(1), a whole half-line's gap is at most its factor
    times TANGENT_SLOPE; a half-line whose such bound lies below the other
    half-line's cap less 1e-12 is dropped, neither scanned nor refined (for
    t > 0 the half-line whose divisor is 1 + t nearly always is).  By the same
    slack its every computed gap, refined peaks included, lies below that
    cap, so it could change neither the grid maximum nor the strict update
    peak > best.  Both half-lines are never dropped for one t: a cap is at
    most its own bound, and the bound where the divisor is 1 - t is the
    larger.

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
    grid_points = check_int(grid_points, "grid_points", 1000, SIZE_MAX)
    refine_tolerance = check_real(refine_tolerance, "refine_tolerance", 0.0, interval="[)")
    side = check_choice(side, "side", ("plus", "minus"))
    ts = np.ravel(tv)
    plus = side == "plus"

    def gap(x, phi, div):  # the gap at x, from Phi(x) and the divisor of x's lane
        return _phi_def(x, div) - phi if plus else phi - _phi_def(x, div)

    def drop(x, div):  # minus the gap, the refinement's objective
        return special.ndtr(x) - _phi_def(x, div) if plus else _phi_def(x, div) - special.ndtr(x)

    best, h, i, div, lo, hi = _oracle_scan(gap, ts, grid_points, 1.0 if plus else -1.0)
    peak = -_golden_lanes(drop, lo, hi, refine_tolerance, div)
    for lanes in (h == 0, h == 1):  # negative half-line first, as max(best, peak)
        j = i[lanes]
        best[j] = np.where(peak[lanes] > best[j], peak[lanes], best[j])
    return float(best[0]) if np.ndim(t) == 0 else best.reshape(np.shape(tv))


# kernels for t in (-1, 1), on a float or a 1-D array (libm through _libm)
def _alpha(t):
    return _log1p_over(t) / (2.0 + t)


def _alpha_prime(t):
    return _log1p_over_prime(t) / (2.0 + t) - _log1p_over(t) / _libm(t).pow(2.0 + t, 2.0)


def _f_minus_prime(t):
    a, m = _alpha(t), _libm(t)
    return m.exp(-a) * m.sqrt(2.0 * a) / (math.sqrt(2.0 * math.pi) * (1.0 + t))


def f_minus(t: float) -> float:
    """Height of the negative-side peak of the deformation gap, smooth on (-1, 1)."""
    return _peak(check_real(t, "t", -1.0, 1.0), -1.0)[1]


def f_plus(t: float) -> float:
    """Height of the positive-side peak; satisfies f_plus(t) = -f_minus(-t)."""
    return _peak(check_real(t, "t", -1.0, 1.0), 1.0)[1]


def alpha(t: float) -> float:
    """Auxiliary log-ratio log(1+t) / (t (2+t)) with alpha(0) = 1/2 exactly.

    Writing x_minus(t) = -(1+t) sqrt(2 alpha(t)) turns the peak-height algebra
    for f_minus into expressions in alpha alone.
    """
    return _alpha(check_real(t, "t", -1.0, 1.0))


def alpha_prime(t: float) -> float:
    """Derivative of alpha, differentiated in closed form with a series near 0."""
    return _alpha_prime(check_real(t, "t", -1.0, 1.0))


def f_minus_prime(t: float) -> float:
    """Closed-form derivative of f_minus: exp(-alpha) sqrt(2 alpha) / (sqrt(2 pi) (1+t)).

    Strictly positive on (-1, 1); equals 1/sqrt(2 pi e) at t = 0.
    """
    return _f_minus_prime(check_real(t, "t", -1.0, 1.0))


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
    if check_choice(which, "which", ("gamma_upper", "gplus_lower")) == "gamma_upper":
        slope = check_real(target_slope, "gamma_upper slope", TANGENT_SLOPE, 0.5, "(]")

        # each residual is > 0 strictly inside the valid stretch, < 0 beyond the root
        def residual(t):
            return slope * t - _gamma(t)
    else:
        slope = check_real(target_slope, "gplus_lower slope", 0.375, 1.0, "[)")

        def residual(t):
            return _g_plus(t) - slope * t

    hi = 1.0 - 1e-12
    if residual(hi) >= 0.0:
        return 1.0
    lo = 1e-9
    if residual(lo) <= 0.0:
        # slope is barely past the tangent slope; the root sits below lo and
        # the residual there is already under 1e-9
        return lo
    lo, hi = _bisect(lambda t: residual(t) > 0.0, lo, hi, 1e-13)
    return 0.5 * (lo + hi)
