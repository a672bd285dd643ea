"""Monte Carlo certification of the tail bounds and numerical lemma verification.

Each trial owns a counter-based random stream keyed by (seed, trial_index), so
runs are reproducible bit for bit, trials can execute in any order or in
parallel, and event counting is a pure function of the configuration.  The
runners estimate the probabilities that the bounds dominate:

  * the KS deviation of a scaled uniform sphere point (three-term bound),
  * the KS deviation of an i.i.d. Gaussian sample (DKW),
  * the scale factor lambda leaving [1-t, 1+t],
  * the two one-sided chi-square deviations of |Z|^2 (Laurent-Massart).

_per_trial is the one trial loop: it draws and blocks the trials for all four
runners and returns each trial's value in trial order; each runner counts its
own events.  It cuts a run into cache-sized blocks and, for long rows, runs the
blocks on up to two threads; since every trial is keyed, the values depend on
neither the block size, nor the block order, nor the number of threads.

A block is a matrix of keyed uniforms u; its Gaussian rows are ndtri(u).  The
two KS runners count KS > thr through one edge rule, _ks_exceeds: sorted CDF
values p have KS > s exactly when some p_i < i/N - s or p_i > (i-1)/N + s.  A
row that crosses the edges of s = thr + 2 _BAND is an event, a row inside those
of s = thr - 2 _BAND is not, and only the rows in between reach
_ks_statistics.  The DKW runner tests its sorted uniforms against these edges,
the theorem runner the sorted x-space rows its uniform-space filter leaves
open against their ndtri images.
Order statistics are 1-Lipschitz in the sup norm; |ndtr(ndtri(u)) - u| is at
most 2.8e-16 (over keyed draws, a dense grid of [0, 1] and the extremes 2^-k
and 1 - 2^-k), ndtr steps down by at most 2.2e-16 between consecutive
doubles, and edge and gap rounding add about 2.2e-16 each (scipy 1.17.1), so
an edge test misplaces a row by less than 1e-15, 2000 times inside the
2 _BAND margin, and the counts equal those of the exact statistic of every
row.

The lambda and chi-square runners count events of U = z . z, the float that
np.vecdot(ndtri(u), ndtri(u)) returns, and _sq_norms decides most rows without
ndtri.  w = min(u, 1 - u) is exact (1 - u is exact for u >= 1/2, Sterbenz)
and ndtri(u)^2 = ndtri(w)^2 up to rounding; the bits of w index one of 2^8
bins per octave, from 2^-54 (the smallest keyed uniform) to 1/2, and
_sq_table holds bounds on ndtri^2 over each bin: its squared ndtri at the
bin's edges (|ndtri| falls as w rises to 1/2), widened by 1e-9 relative,
about a million times scipy's error (pinned by the tests, mirrors 1 - w
included).  Any summation order, BLAS ddot with or without FMA or numpy's
pairwise sum, is within gamma_n = n u / (1 - n u) of the exact sum (u =
2^-53, Higham 2002, section 3.1), so U, the sum of the bin lows and that of
the highs each carry at most that relative error; while 4 n u < 1/2 the
sums widened by 4 n u relative, L and H, bracket U with room for their own
roundings, and for larger n every row takes the exact path.  Correctly
rounded -, / and sqrt are monotone, so each runner's verdict (U - n >= a,
n - U >= b, or sqrt(n) / sqrt(U) - 1 against +-t) is monotone in U: where
the verdicts at L and H agree, U has the same one, and L stands in for it.
Only the rows whose verdicts differ reach ndtri and ddot.

Rows of at least _U_MIN_N entries get |Z|^2 bounds from their sorted uniforms
too.  q(u) = ndtri(u)^2 is convex on (0, 1) (q'' = 2 (1 + z^2) / phi(z)^2):
for k sorted entries between entries a <= b, k q(mean) bounds their sum of q
below (Jensen) and k times the chord from (a, q(a)) to (b, q(b)) at the mean
above.  _sq_bounds cuts a sorted row into about 24 n^(1/4) segments uniform in
z, sums each by np.add.reduceat and calls ndtri only at segment ends and
means.  A computed mean is within (k - 1) 2^-51 relative (gamma_(k-1) and a
division), so Jensen takes that bracket's point nearest 1/2 and the chord its
worse end; the sums, widened as above, bracket U.  _sq_norms sends the rows its
bins leave open through these bounds, on sorted copies, before any ndtri.

The theorem runner decides its rows in uniform space (_u_verdicts), with L
and H from the bins below _U_MIN_N (4 n u < 1/2 there) and from _sq_bounds
from there on; what follows holds for any L <= U <= H.
The exact sample x_i = Phi^-1(u_i) / rho, rho = |Z| / sqrt(N), has
Phi(x_i) < e exactly when u_i < F(rho) = Phi(rho B), B = Phi^-1(e), at each
edge e of KS > thr, and likewise for >.  With rho - 1 in [d_L, d_H] (from L
and H), (rho - 1)^2 in [q_L, q_H], d = max(-d_L, d_H), b = B phi(B) and
c = -B^2 b / 2, F(rho) = e + b (rho - 1) + c (rho - 1)^2 + R with
|R| <= 0.2468 d^3 / (1 - d)^3 (a sixth of sup |x^3 (x^2 - 1) phi(x)| =
1.48051, over min(1, rho)^3).  With d_M and q_M the midpoints of
[d_L, d_H] and [q_L, q_H], the midpoint edge e + b d_M + c q_M is within
|b| (d_H - d_L) / 2 + |c| (q_H - q_L) / 2 <= 0.1210 (d_H - d_L) +
0.1157 (q_H - q_L) of e + b (rho - 1) + c (rho - 1)^2 (|b| <= phi(1) <
0.2420, and |c| is at most half of sup |x^3 phi(x)| = 0.46254).  One matmul
of the rows' (d_M, q_M, 1) with (b, c, e) per edge family forms the midpoint
edges, each e plus two products whatever the BLAS.  The margin is that
spread plus the bound on R plus mu = 1e-9 + N 2^-45: a row inside both
families' midpoint edges by the margin is no event, and a row crossing one by
as much is an event.  The others, and all rows with d > 1/4 or an edge with
|B| > 5 (clipped edges are vacuous), are redrawn from their keys and take
the x-space edge rule.  On those ranges
Phi(Phi^-1(p) / rho) rises at least 1/180 as fast as p, so mu, less the
midpoint edges' rounding (under 1e-13), moves Phi(x_i) by over
5e-12 + N 2^-53: five times the 1e-12 band, and more than the statistic of
the x-space pipeline can differ from the exact sample's (ndtri's 1e-13
relative error, the norm's gamma_N, ndtr and gap rounding).  Every decided
row therefore gets the verdict of that statistic.

A Wilson score interval accompanies every frequency.  A configuration is
dominated when the observed frequency does not exceed the bound; the Wilson
upper edge is reported for context and checked with slack only where a bound
is informative, because these bounds are valid but far from tight.

verify_lemmas runs every grid and finite-difference invariant behind the
bounds (symmetry and convexity of the gap function, secant bounds, exponent
rate curvature, the auxiliary-function sandwich, derivative identities) and
reports the worst residual of each check; failures are data, not exceptions.
Each grid is one array call of deformation's kernels, which map libm over the
entries, so every residual equals a loop of float calls bit for bit.
"""

import concurrent.futures
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import deformation as dfm
from . import tail_bounds as tb
from .empirical import _ks_statistics
from .errors import SIZE_MAX, DomainError, check_choice, check_int, check_real
from .sampling import RngStream, _keyed_uniforms, _norms

__all__ = [
    "TrialConfig",
    "MonteCarloReport",
    "LambdaTrialReport",
    "CheckResult",
    "VerificationReport",
    "wilson_interval",
    "run_theorem_trials",
    "run_dkw_trials",
    "run_lambda_trials",
    "run_chisq_trials",
    "verify_lemmas",
]

# elements per block of trials (1 MiB of float64): one block's working
# matrices stay near the caches, and a call at N <= 100 and 1000 trials is
# still one block
_CHUNK_ELEMENTS = 1 << 17

# threads for a call that spans two or more blocks of rows of length at least
# _THREAD_MIN_N (the CPUs this process may use where the OS says, else all of
# them; two is the most that was measured).  Per row, the stream set-up holds
# the GIL for about 1.5 us (timeit, 2-core VM: a whole _keyed_uniforms call
# takes 1.5 us per row at N = 1, 0.55 us of it the state restore and 0.9 us
# the Generator.random call) and the uniform fill, ndtri, sort and ndtr
# release it for about 0.06 us per entry; the theorem runner's uniform-space
# blocks hand it over between many short numpy calls.  Two threads lost 34% at
# N = 50 and 12% at N = 100 (dkw plus chisq runs, 16 alternating in-process
# pairs); on the four runners they lost on 11 of 12 runner and N pairs at
# N = 160-500, were mixed at N = 1000 and won on most from N = 1500 on (7
# in-process rounds of best of 2, four blocks or more a call, loaded 2-core
# VM), and the theorem runner at N = 200 and 1000 trials took 45% longer on
# two than on one (median of 4 fresh processes, best of 7)
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_THREAD_MIN_N = 1000

_MIN_TRIALS = 100  # below this a Wilson verdict is meaningless
_SCOPES = ("lemmas", "appendix", "all")  # verify_lemmas' scopes: main-text lemmas, appendix, both

# an edge test misplaces a row by less than 1e-15 (module docstring), so only
# rows within 2 _BAND of the threshold are left to _ks_statistics
_BAND = 1e-12


def _ks_edges(n: int, thr: float, bands=(2 * _BAND, -2 * _BAND), out=None) -> np.ndarray:
    """Edges of KS > thr + band for each band; by default inner (rows 0, 1) and outer (rows 2, 3).

    Rows 2k and 2k + 1 are i/N - s and (i-1)/N + s at s = thr + bands[k],
    clipped to [0, 1], written to out when it is given.
    """
    grid = np.arange(n + 1) / n
    out = np.empty((2 * len(bands), n)) if out is None else out
    for k, band in enumerate(bands):
        np.subtract(grid[1:], thr + band, out=out[2 * k])
        np.add(grid[:-1], thr + band, out=out[2 * k + 1])
    return np.clip(out, 0.0, 1.0, out=out)


def _ks_exceeds(rows: np.ndarray, edges, thr: float, exact) -> np.ndarray:
    """Whether each sorted row's KS statistic exceeds thr; edges are _ks_edges in its scale.

    A row that crosses an inner edge is an event, a row inside both outer edges
    is not; exact maps the rows in between to their exact statistics.
    """
    below_in, above_in, below_out, above_out = edges
    hit = (rows < below_in).any(axis=-1) | (rows > above_in).any(axis=-1)
    near = ~hit & ((rows < below_out).any(axis=-1) | (rows > above_out).any(axis=-1))
    hit[near] = exact(rows[near]) > thr
    return hit


# _sq_norms' bins: a double's bits shifted right by _SQ_SHIFT give 2^8 bins per
# octave; bin 0 starts at 2^-54, the smallest keyed uniform
_SQ_SHIFT = 52 - 8
_SQ_BASE = int(np.float64(2.0 ** -54).view(np.int64)) >> _SQ_SHIFT


@functools.cache
def _sq_table() -> np.ndarray:
    """lo + i hi per bin of w in [2^-54, 1/2]: ndtri(w)^2 lies in [lo, hi] (module docstring).

    The last bin holds w = 1/2 alone, so its edges are clipped to 1/2.  Built
    on first use (about 0.4 ms), not at import.
    """
    bits = np.arange(_SQ_BASE, (int(np.float64(0.5).view(np.int64)) >> _SQ_SHIFT) + 2)
    bits <<= _SQ_SHIFT
    sq = bits.view(np.float64)
    np.minimum(sq, 0.5, out=sq)
    special.ndtri(sq, out=sq)
    sq *= sq
    tab = np.empty(sq.size - 1, dtype=complex)
    np.multiply(sq[1:], 1.0 - 1e-9, out=tab.real)
    np.multiply(sq[:-1], 1.0 + 1e-9, out=tab.imag)
    tab.setflags(write=False)  # every caller shares the cached table
    return tab


def _sq_group(n: int) -> int:
    # rows per group of the |Z|^2 bound passes, about _CHUNK_ELEMENTS / 16
    # entries: the bin pass makes 3 MiB of temporaries per 2^17 entries, so
    # groups keep them near the caches and off the peak RSS (2^14-entry groups
    # read 0.4 MiB more peak on the mc-small-n shapes, at the same speed)
    return max(1, (_CHUNK_ELEMENTS >> 4) // n)


def _bin_bounds(u: np.ndarray):
    """Bounds L <= U <= H on U = z . z, z = ndtri(u), for each row, from _sq_table.

    Valid while 4 n 2^-53 < 1/2 (module docstring), for rows in any order.
    """
    rows, n = u.shape
    tab, group = _sq_table(), _sq_group(n)
    lo, hi = np.empty(rows), np.empty(rows)
    for r in range(0, rows, group):
        ug = u[r:r + group]
        w = np.subtract(1.0, ug)
        np.minimum(w, ug, out=w)
        b = w.view(np.int64)
        b >>= _SQ_SHIFT
        b -= _SQ_BASE
        s = tab[b].sum(axis=-1)
        lo[r:r + group], hi[r:r + group] = s.real, s.imag
    widen = 4.0 * n * 2.0 ** -53
    lo *= 1.0 - widen
    hi *= 1.0 + widen
    return lo, hi


def _sq_norms(u: np.ndarray, verdict) -> np.ndarray:
    """Each row's U = z . z for z = ndtri(u), or a stand-in with U's verdict.

    verdict maps an array of U to an array whose axis 0 lists its verdicts,
    each monotone in U.  Rows go through _bin_bounds; a row whose verdicts at
    its bounds L and H agree gets L; for n >= _U_MIN_N the others then go
    through _sq_bounds on sorted copies, in the same groups, and those still
    open get the exact ndtri and ddot, one row at a time in place (module
    docstring).
    """
    rows, n = u.shape
    near = np.ones(rows, dtype=bool)
    if 4.0 * n * 2.0 ** -53 < 0.5:
        lo, hi = _bin_bounds(u)
        near = (verdict(lo) != verdict(hi)).any(axis=0)
        # long rows still open: sorted copies through _sq_bounds, in the same groups
        rest, group = np.flatnonzero(near) if n >= _U_MIN_N else (), _sq_group(n)
        for r in range(0, len(rest), group):
            j = rest[r:r + group]
            us = u[j]
            us.sort(axis=-1)
            lo2, hi2 = _sq_bounds(us)
            same = (verdict(lo2) == verdict(hi2)).all(axis=0)
            lo[j[same]], near[j[same]] = lo2[same], False
    else:
        lo = np.empty(rows)
    for i in np.flatnonzero(near):
        z = special.ndtri(u[i], out=u[i])
        lo[i] = np.vecdot(z, z)
    return lo


# rows at least this long take the sorted-uniform bounds below: in _sq_norms
# after the bins, in the theorem runner in their place.  At 1000 the theorem
# filter on these bounds tied the x-space rule on two threads, and every
# mc-large-n row is on this side
_U_MIN_N = 1000
_RHO_SPAN, _B_MAX = 0.25, 5.0  # the theorem filter's ranges of |rho - 1| and |ndtri(e)|


@functools.lru_cache(maxsize=8)  # a run uses one N; a sweep over N must not pile up
def _cuts(n: int):
    """Starts, lengths, end indices and mean roundings (k - 1) 2^-51 of a sorted row's segments."""
    z = np.linspace(-1.0, 1.0, int(24 * n ** 0.25) + 1) * special.ndtri(0.5 / n)
    ranks = np.minimum(np.rint(n * dfm.std_normal_cdf(z)), n - 1)
    p = np.unique(np.append(0, ranks)).astype(np.intp)  # 0.5 may round up to rank 1
    k = np.diff(p, append=n).astype(float)
    return p, k, np.append(p, n - 1), (k - 1.0) * 2.0 ** -51


def _sq_bounds(us: np.ndarray):
    """Bounds L <= U <= H on U = z . z, z = ndtri(us), for each sorted row (module docstring)."""
    n = us.shape[1]
    p, k, ends, rel = _cuts(n)
    ends = us[:, ends]
    a, b = ends[:, :-1], ends[:, 1:]
    m = np.add.reduceat(us, p, axis=1) / k
    lo, hi = np.maximum(m - m * rel, a), np.minimum(m + m * rel, b)
    q = special.ndtri(ends) ** 2
    qa, qb = q[:, :-1], q[:, 1:]
    m = np.where(qb >= qa, hi, lo)  # the chord's worst mean
    chord = np.divide(qa * (b - m) + qb * (m - a), b - a, out=qa.copy(), where=b > a)
    widen = 1e-9 + 4.0 * n * 2.0 ** -53
    return (np.vecdot(special.ndtri(np.clip(0.5, lo, hi)) ** 2, k) * (1.0 - widen),
            np.vecdot(chord, k) * (1.0 + widen))


def _u_edges(n: int, thr: float) -> np.ndarray:
    """b = B phi(B), c = -B^2 b / 2 and e, B = ndtri(e), per edge e of KS > thr: (2, 3, n).

    Family 0 holds the edges i/N - thr, family 1 the edges (i-1)/N + thr.
    Past _B_MAX a clipped edge is vacuous (e = +-inf), any other opens every
    row (NaN).
    """
    lines = np.empty((2, 3, n))
    b, c, e = lines.transpose(1, 0, 2)
    _ks_edges(n, thr, (0.0,), out=e)
    special.ndtri(e, out=b)
    far = (b < -_B_MAX) | (b > _B_MAX)
    e[far] = np.nan
    np.copyto(e, b, where=far & np.isinf(b))
    b[far] = 0.0
    np.multiply(b, b, out=c)
    c *= -0.5
    b *= np.exp(c)
    b *= 1.0 / math.sqrt(2.0 * math.pi)
    c *= b
    return lines


def _u_verdicts(u: np.ndarray, lines: np.ndarray, lo, hi):
    """(hit, open) for sorted rows of keyed uniforms whose |Z|^2 lie in [lo, hi].

    Per group of about _CHUNK_ELEMENTS / 8 entries, one matmul of the rows'
    midpoints (d_M, q_M, 1) with _u_edges' lines forms both families'
    midpoint edges.  The least of u - family 0's and family 1's - u decides a
    row: an event below -margin, none from margin on (module docstring).
    """
    rows, n = u.shape
    group = -(-(_CHUNK_ELEMENTS >> 3) // n)  # rows, rounded up: two at N = 10^4
    buf = np.empty((2, min(group, rows), n))
    d = np.sqrt(np.array((lo, hi)) / n) - 1.0  # rho - 1 at L and at H
    q = np.sort(d * d, axis=0)
    q[0] *= (d[0] > 0.0) | (d[1] < 0.0)  # q_L = 0 where d_L <= 0 <= d_H
    span = np.maximum(-d[0], d[1])
    span[~(span <= _RHO_SPAN)] = np.nan  # a NaN margin leaves its row open
    margin = (0.2468 * (span / (1.0 - span)) ** 3 + (1e-9 + n * 2.0 ** -45)
              + 0.1210 * (d[1] - d[0]) + 0.1157 * (q[1] - q[0]))
    mid = np.ones((rows, 3))
    mid[:, 0], mid[:, 1] = d.sum(axis=0) / 2.0, q.sum(axis=0) / 2.0
    gap = np.empty(rows)
    for r in range(0, rows, group):
        us = u[r:r + group]
        out = buf[:, :len(us)]
        lower, upper = out
        np.matmul(mid[r:r + group], lines, out=out)
        np.subtract(us, lower, out=lower)
        np.subtract(upper, us, out=upper)
        gap[r:r + group] = np.minimum(lower, upper, out=lower).min(axis=1)
    hit = gap < -margin
    return hit, ~(hit | (gap >= margin))


def _trial_keys(N, trials, seed):
    """N, trials and seed of a Monte Carlo run, validated."""
    return (check_int(N, "N", 1, SIZE_MAX), check_int(trials, "trials", _MIN_TRIALS, SIZE_MAX),
            check_int(seed, "seed", 0))


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo configuration for the three-term bound."""

    N: int
    trials: int
    seed: int
    epsilon: float
    t: float

    def __post_init__(self):
        checked = (*_trial_keys(self.N, self.trials, self.seed),
                   check_real(self.epsilon, "epsilon", 0.0), dfm._t_value(self.t))
        for field, value in zip(("N", "trials", "seed", "epsilon", "t"), checked):
            object.__setattr__(self, field, value)


@dataclass(frozen=True)
class MonteCarloReport:
    """Event frequency with its Wilson interval against a theoretical bound."""

    event_count: int
    trials: int
    frequency: float
    wilson_low: float
    wilson_high: float
    bound: float
    dominated: bool

    def __post_init__(self):
        ok = 0.0 <= self.wilson_low <= self.frequency <= self.wilson_high <= 1.0
        if not ok:
            raise DomainError("Wilson interval must bracket the frequency inside [0, 1]")


@dataclass(frozen=True)
class LambdaTrialReport(MonteCarloReport):
    """Two-sided scale-excursion report with the one-sided counts broken out."""

    upper_count: int
    lower_count: int


def wilson_interval(count: int, trials: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion.

    Args:
      count: number of observed events, 0 <= count <= trials
      trials: number of trials, >= 1
      confidence: two-sided coverage level in (0, 1)

    Returns:
      (low, high) with low = 0 at count = 0 and high = 1 at count = trials.
    """
    trials = check_int(trials, "trials")
    count = check_int(count, "count", 0, trials)
    conf = check_real(confidence, "confidence", 0.0, 1.0)
    z = float(special.ndtri(0.5 * (1.0 + conf)))
    n = float(trials)
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    low = 0.0 if count == 0 else max(0.0, center - half)
    high = 1.0 if count == trials else min(1.0, center + half)
    return low, high


def _report(hits: np.ndarray, bound: float, cls=MonteCarloReport, **counts):
    count, trials = int(np.count_nonzero(hits)), hits.size
    low, high = wilson_interval(count, trials)
    return cls(event_count=count, trials=trials, frequency=count / trials,
               wilson_low=low, wilson_high=high, bound=bound,
               dominated=count / trials <= bound, **counts)


def _per_trial(n: int, seed: int, trials: int, stat) -> np.ndarray:
    """stat's entry for each of the trials 0..trials-1, in trial order.

    Rows come in the fewest blocks of at most _CHUNK_ELEMENTS entries of keyed
    uniforms (at least one row each), spread evenly: block sizes differ by at
    most one row, the larger blocks first.  Row i is bit-identical to
    _keyed_uniforms(seed, i, 1, n)[0], whose ndtri is gaussian_vector(n,
    RngStream(seed, i)), so the blocking never shows.  stat maps a block and
    the index of its first trial to one entry per trial (a statistic, a
    stand-in with the same verdict as _sq_norms returns, or a verdict stored as
    0.0 or 1.0), which the block writes into its own slice of one array, so
    neither block size nor block order can change the result; with the index
    a stat can redraw any row of its block from its key.  A call spanning two or
    more blocks with n >= _THREAD_MIN_N runs its blocks on _WORKERS threads (the
    draws, ndtri, sort and ndtr release the GIL); an exception raised in a block
    reaches the caller.  stat may overwrite its argument: each block's matrix
    is its own.
    """
    blocks = -(-trials // max(1, _CHUNK_ELEMENTS // n))
    rows, extra = divmod(trials, blocks)
    out = np.empty(trials)

    def block(b):
        first, count = b * rows + min(b, extra), rows + (b < extra)
        out[first:first + count] = stat(_keyed_uniforms(seed, first, count, n), first)

    if _WORKERS > 1 and blocks > 1 and n >= _THREAD_MIN_N:
        with concurrent.futures.ThreadPoolExecutor(_WORKERS) as pool:
            list(pool.map(block, range(blocks)))
    else:
        list(map(block, range(blocks)))
    return out


def run_theorem_trials(config: TrialConfig) -> MonteCarloReport:
    """Estimate the probability bounded by the three-term sphere bound.

    Each trial draws a uniform sphere point, forms the scaled sample
    sqrt(N) X, and counts KS deviations from the Gaussian CDF exceeding
    epsilon + gamma(t).  The bound is the corresponding three-term total.

    Rows are sorted as uniforms and decided by _u_verdicts, their |Z|^2
    bounded by _bin_bounds below _U_MIN_N and by _sq_bounds from there on.
    The few it leaves open are redrawn from their keys; the x-space rule forms
    their sqrt(N) X as the one-trial pipeline does, sorts it and decides it by
    _ks_exceeds against the ndtri images of _ks_edges (module docstring).
    """
    if not isinstance(config, TrialConfig):
        raise DomainError("run_theorem_trials expects a TrialConfig")
    n = config.N
    bound = tb._breakdown(n, config.epsilon, config.t, "exact_gamma")
    thr = bound.threshold
    sqrt_n = math.sqrt(n)

    lines = _u_edges(n, thr)
    sq_bounds = _bin_bounds if n < _U_MIN_N else _sq_bounds

    @functools.cache
    def edges():  # built by the first block that needs them: long rows seldom do
        return special.ndtri(_ks_edges(n, thr))

    def exceeds(u, first):
        u.sort(axis=-1)
        hit, near = _u_verdicts(u, lines, *sq_bounds(u))
        rows = np.flatnonzero(near)
        if rows.size:  # sqrt(N) X as the one-trial pipeline forms it, sorted
            x = np.concatenate([_keyed_uniforms(config.seed, first + j, 1, n)
                                for j in rows.tolist()])
            special.ndtri(x, out=x)
            x /= _norms(x)[:, None]
            x *= sqrt_n
            x.sort(axis=-1)
            hit[rows] = _ks_exceeds(x, edges(), thr, _ks_statistics)
        return hit

    return _report(_per_trial(n, config.seed, config.trials, exceeds), bound.total)


def run_dkw_trials(N: int, trials: int, seed: int, epsilon: float) -> MonteCarloReport:
    """Estimate the DKW-bounded probability for i.i.d. Gaussian samples.

    Counts KS deviations of the raw (unnormalized) Gaussian sample exceeding
    epsilon; the bound is 2 exp(-2 N epsilon^2).  Phi(ndtri(u)) is u up to
    rounding, so _ks_exceeds compares each row's sorted uniforms with the edges
    of _ks_edges as they are.
    """
    n, trials, seed = _trial_keys(N, trials, seed)
    eps = check_real(epsilon, "epsilon", 0.0)
    edges = _ks_edges(n, eps)

    def exceeds(u, first):
        u.sort(axis=-1)
        return _ks_exceeds(u, edges, eps, lambda near: _ks_statistics(special.ndtri(near)))

    return _report(_per_trial(n, seed, trials, exceeds), tb._dkw_term(n, eps))


def run_lambda_trials(N: int, trials: int, seed: int, t) -> LambdaTrialReport:
    """Estimate the probability of the scale factor leaving [1-t, 1+t].

    The two one-sided events lambda > 1+t and lambda < 1-t are disjoint, so
    their counts always sum to the two-sided count; both are reported.
    """
    n, trials, seed = _trial_keys(N, trials, seed)
    tv = dfm._t_value(t)
    sqrt_n = math.sqrt(n)

    def verdict(sq):
        # lambda - 1 = sqrt(N)/|Z| - 1 against +-t; a stand-in U of 0 gives inf
        with np.errstate(divide="ignore"):
            d = sqrt_n / np.sqrt(sq) - 1.0
        return np.array([d > tv, d < -tv])

    upper, lower = verdict(_per_trial(n, seed, trials, lambda u, first: _sq_norms(u, verdict)))
    return _report(upper | lower, tb.lambda_concentration_bound(n, tv), LambdaTrialReport,
                   upper_count=int(np.count_nonzero(upper)),
                   lower_count=int(np.count_nonzero(lower)))


def run_chisq_trials(N: int, trials: int, seed: int, x: float):
    """Estimate both one-sided chi-square deviation probabilities of |Z|^2.

    Counts U - N >= 2 sqrt(N x) + 2 x and N - U >= 2 sqrt(N x) separately;
    each is bounded by exp(-x).  Returns (upper_report, lower_report).
    """
    n, trials, seed = _trial_keys(N, trials, seed)
    up = tb.lm_upper(n, x)
    lo = tb.lm_lower(n, x)

    def verdict(sq):
        return np.array([sq - n >= up.threshold, n - sq >= lo.threshold])

    upper, lower = verdict(_per_trial(n, seed, trials, lambda u, first: _sq_norms(u, verdict)))
    return _report(upper, up.bound), _report(lower, lo.bound)


# ---------------------------------------------------------------------------
# lemma / appendix verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Worst residual of one verification check; passes when residual <= threshold.

    For one-sided bound checks the residual is the largest violation (negative
    slack means the bound holds with margin); 'where' is the grid location of
    the worst case.
    """

    name: str
    scope: str
    residual: float
    threshold: float
    where: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    grid_steps: int
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _scale_draws(gen):
    """64 pairs (t, lambda): t uniform on (0.01, 0.99), then lambda on (1 - t, 1 + t).

    Draws 128 uniforms in the stream order of alternating gen.uniform(low, high)
    calls, t then lambda, and applies that call's low + (high - low) u to each.
    """
    u = gen.random(128).reshape(64, 2).T
    t = 0.01 + (0.99 - 0.01) * u[0]
    low = 1.0 - t
    return np.array([t, low + ((1.0 + t) - low) * u[1]])


def _second_diff(vals):
    return vals[:-2] - 2.0 * vals[1:-1] + vals[2:]


def _fd_rel(fn, dfn, t, h: float):
    # relative error of fn's central difference at t (a float or an array) against dfn
    closed = dfn(t)
    return abs((fn(t + h) - fn(t - h)) / (2.0 * h) - closed) / abs(closed)


def _richardson_forward(fn, h: float) -> float:
    # 2 f(h)/h - f(2h)/(2h) kills the O(h) term of the one-sided ratio
    return 2.0 * fn(h) / h - fn(2.0 * h) / (2.0 * h)


def verify_lemmas(grid_steps: int = 200, tolerance=None, scope: str = "all") -> VerificationReport:
    """Run every grid / finite-difference invariant behind the bounds.

    Args:
      grid_steps: grid density for the sweeps, at least 100
      tolerance: when given, a finite real that replaces every check's own
        threshold (0 makes the floating-point residuals visible as failures)
      scope: "lemmas", "appendix", or "all"

    The randomized spot checks draw from the fixed stream RngStream(0, 0).
    Returns a VerificationReport; failing checks are recorded, not raised.
    """
    grid_steps = check_int(grid_steps, "grid_steps", 100, SIZE_MAX)
    if tolerance is not None:
        tolerance = check_real(tolerance, "tolerance")
    scope = check_choice(scope, "scope", _SCOPES)
    gen = RngStream(0, 0).generator()
    results = []

    def add(name, scope_, threshold, values, grid=0.0):
        # the residual is the first largest entry of values, reported at its grid point
        k = int(np.argmax(values))
        residual, where = float(np.ravel(values)[k]), float(np.ravel(grid)[k])
        thr = threshold if tolerance is None else tolerance
        results.append(CheckResult(name=name, scope=scope_, residual=residual, threshold=thr,
                                   where=where, passed=residual <= thr))

    if scope in ("lemmas", "all"):
        # symmetry of the two one-sided gap suprema (one plus-side call for two grids)
        ts = np.linspace(0.0, 0.99, grid_steps)
        to = np.arange(1, 100) / 100.0
        plus = dfm.gamma_oracle(np.concatenate([ts, to]))
        gaps = np.abs(plus[:grid_steps] - dfm.gamma_oracle(ts, side="minus"))
        add("gap-symmetry", "lemmas", 1e-12, gaps, ts)

        # pointwise reflection of the deformed-CDF differences
        xr = gen.uniform(-8.0, 8.0, size=256)
        tr = gen.uniform(0.0, 0.99, size=256)
        lhs = dfm.phi_deformed(xr, tr, "plus") - dfm.std_normal_cdf(xr)
        rhs = dfm.std_normal_cdf(-xr) - dfm.phi_deformed(-xr, tr, "minus")
        add("gap-reflection-pointwise", "lemmas", 1e-14, np.abs(lhs - rhs), xr)

        # closed form against the brute-force supremum
        add("gamma-closed-vs-oracle", "lemmas", 1e-7,
            np.abs(dfm._gamma(to) - plus[grid_steps:]), to)

        # secant bound gamma(t) <= t/2 and convexity of gamma
        tg = np.linspace(0.0, 0.999, max(grid_steps, 1000))
        gam = dfm._gamma(tg)
        add("gamma-secant-upper", "lemmas", 1e-12, gam - 0.5 * tg, tg)
        tc = np.linspace(0.0, 0.99, grid_steps)
        add("gamma-convexity", "lemmas", 1e-9, -_second_diff(dfm._gamma(tc)), tc[1:-1])

        # envelope ordering for random scale factors inside the window
        xs = np.linspace(-8.0, 8.0, 501)
        ts, ls = _scale_draws(gen)
        mid = dfm.std_normal_cdf(xs / ls[:, None])
        below = dfm.phi_deformed(xs, ts[:, None], "minus") - mid
        above = mid - dfm.phi_deformed(xs, ts[:, None], "plus")
        add("scale-envelope-ordering", "lemmas", 1e-14,
            np.maximum(below.max(axis=1), above.max(axis=1)), ts)

        # secant lower bounds and curvature signs of the exponent rates
        gp = tb.g_plus(tg)
        gm = tb.g_minus(tg)
        add("g-secant-lower-bounds", "lemmas", 1e-12, np.maximum(tg - gm, 0.375 * tg - gp), tg)
        tk = np.linspace(0.0, 0.95, grid_steps)
        curv = np.maximum(-_second_diff(tb.g_minus(tk)), _second_diff(tb.g_plus(tk)))
        add("g-curvature-signs", "lemmas", 1e-9, curv, tk[1:-1])

        h = 1e-5
        slope_err = max(abs(_richardson_forward(tb.g_minus, h) - 1.0),
                        abs(_richardson_forward(tb.g_plus, h) - 1.0))
        add("g-slopes-at-origin", "lemmas", 1e-6, slope_err)

        # threshold-form chi-square tails match the deviation form exactly
        errs, xvs = [], []
        for _ in range(20):
            n = int(gen.integers(1, 500))
            xvs.append(float(gen.uniform(0.0, n / 4.0)))
            up = tb.lm_upper(n, xvs[-1])
            lo = tb.lm_lower(n, xvs[-1])
            errs.append(max(abs(tb.chisq_tail_upper(n, n + up.threshold) - up.bound),
                            abs(tb.chisq_tail_lower(n, n - lo.threshold) - lo.bound)))
        add("chisq-lm-equivalence", "lemmas", 1e-12, errs, xvs)

        # chained tube inequality Phi(x) - gamma <= Phi(x/lambda) <= Phi(x) + gamma
        ts, ls = _scale_draws(gen)
        g = dfm._gamma(ts)[:, None]
        mid = dfm.std_normal_cdf(xs / ls[:, None])
        base = dfm.std_normal_cdf(xs)
        add("tube-chain-pointwise", "lemmas", 1e-12,
            np.maximum(base - g - mid, mid - base - g).max(axis=1), ts)

    if scope in ("appendix", "all"):
        # every t below lies in (-1, 1), so the unvalidated kernels need no checks
        def f_minus(t):
            return dfm._peak(t, -1.0)[1]

        h = 1e-5
        slope = dfm.TANGENT_SLOPE
        gamma_fd = _richardson_forward(lambda t: dfm.gamma_closed(t).gamma, h)
        fm_fd = (f_minus(h) - f_minus(-h)) / (2.0 * h)
        add("shared-tangent-slope", "appendix", 1e-6,
            max(abs(gamma_fd - slope), abs(fm_fd - slope)))

        spots = np.array([-0.9, -0.5, 0.0, 0.3, 0.8])
        add("f-minus-prime-vs-fd", "appendix", 1e-6,
            _fd_rel(f_minus, dfm._f_minus_prime, spots, h), spots)

        ta = np.linspace(-0.99, 0.99, max(grid_steps, 1000))
        add("f-minus-prime-positive", "appendix", 0.0, -dfm._f_minus_prime(ta), ta)

        tcc = np.linspace(-0.9, 0.9, grid_steps)
        add("f-minus-concavity", "appendix", 1e-9, _second_diff(f_minus(tcc)), tcc[1:-1])

        f_plus = dfm._peak(ta, 1.0)[1]
        add("f-reflection-identity", "appendix", 1e-12, np.abs(f_plus + f_minus(-ta)), ta)

        add("f-plus-dominates", "appendix", 1e-12, f_minus(ta) - f_plus, ta)

        add("alpha-zero-values", "appendix", 1e-12,
            max(abs(dfm._alpha(0.0) - 0.5), abs(-dfm._alpha_prime(0.0) - 0.5)))

        # sandwich 0 < -(1+t) alpha'(t) < 1; residual is the negated margin to
        # the nearest endpoint, so passing needs at least 1e-12 of room
        s = -(1.0 + ta) * dfm._alpha_prime(ta)
        add("alpha-prime-sandwich", "appendix", -1e-12, -np.minimum(s, 1.0 - s), ta)

        add("alpha-prime-vs-fd", "appendix", 1e-6,
            _fd_rel(dfm._alpha, dfm._alpha_prime, tcc, h), tcc)

    return VerificationReport(grid_steps=grid_steps, checks=tuple(results))
