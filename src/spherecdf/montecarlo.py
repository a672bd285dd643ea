"""Monte Carlo certification of the tail bounds and numerical lemma verification.

Each trial owns a counter-based random stream keyed by (seed, trial_index), so
runs are reproducible bit for bit, trials can execute in any order or in
parallel, and event counting is a pure function of the configuration.  The
runners estimate the probabilities that the bounds dominate:

  * the KS deviation of a scaled uniform sphere point (three-term bound),
  * the KS deviation of an i.i.d. Gaussian sample (DKW),
  * the scale factor lambda leaving [1-t, 1+t],
  * the two one-sided chi-square deviations of |Z|^2 (Laurent-Massart).

Each runner names only its per-trial statistic and its event tests; _count is
the one trial loop, which draws, blocks and counts the trials for all four.
It cuts a run into cache-sized blocks of trials and, for long rows, runs the
blocks on up to two threads; since every trial is keyed, the counts depend on
neither the block size, nor the block order, nor the number of threads.

A block is a matrix of keyed uniforms u; its Gaussian rows are ndtri(u).  The
two KS runners count KS > threshold, which needs only the side of the
threshold a row falls on, so they mostly skip the normal CDF.  Order
statistics are 1-Lipschitz in the sup norm; |ndtr(ndtri(u)) - u| is at most
2.8e-16 (over keyed draws, a dense grid of [0, 1] and the extremes 2^-k and
1 - 2^-k), ndtr steps down by at most 2.2e-16 between consecutive doubles,
and gap rounding adds about 2.2e-16 (scipy 1.17.1), so a statistic formed
without Phi lies within 1e-15 of the exact one, 1000 times inside the _BAND
of 1e-12.  The DKW runner scores its sorted uniforms against i/N and (i-1)/N and
recomputes exactly every row within _BAND of epsilon; the theorem runner
compares its sorted rows with inverse-CDF edges widened by 2 _BAND and
computes the exact statistic of flagged rows only, a superset of its events.
_ks_statistics therefore decides every event that could go either way, and
the counts equal those of the exact statistic of every row.

A Wilson score interval accompanies every frequency.  A configuration is
dominated when the observed frequency does not exceed the bound; the Wilson
upper edge is reported for context and checked with slack only where a bound
is informative, because these bounds are valid but far from tight.

verify_lemmas runs every grid and finite-difference invariant behind the
bounds (symmetry and convexity of the gap function, secant bounds, exponent
rate curvature, the auxiliary-function sandwich, derivative identities) and
reports the worst residual of each check; failures are data, not exceptions.
"""

import concurrent.futures
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import deformation as dfm
from . import tail_bounds as tb
from .empirical import _ks_statistics
from .errors import U64_MAX, DomainError, check_int, check_real
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
# the GIL for about 8 us and ndtri, sort and ndtr release it for about 0.05 us
# per entry, so two threads lost 37% at N = 50, tied at N = 100-128 and won
# from N = 160 on (in-process A/B on a 2-core VM; no benchmark workload has a
# multi-block call below N = 160)
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_THREAD_MIN_N = 160

_MIN_TRIALS = 100  # below this a Wilson verdict is meaningless

# a KS statistic formed without the normal CDF may differ from the exact one
# by at most 1e-15 (module docstring); rows this close to the threshold are
# left to _ks_statistics
_BAND = 1e-12


def _trial_keys(N, trials, seed):
    """N, trials and seed of a Monte Carlo run, validated."""
    return (check_int(N, "N"), check_int(trials, "trials", _MIN_TRIALS),
            check_int(seed, "seed", 0, U64_MAX))


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


def _report(count: int, trials: int, bound: float, cls=MonteCarloReport, **counts):
    low, high = wilson_interval(count, trials)
    return cls(event_count=count, trials=trials, frequency=count / trials,
               wilson_low=low, wilson_high=high, bound=bound,
               dominated=count / trials <= bound, **counts)


def _count(n: int, seed: int, trials: int, stat, *events):
    """Counts, one int per event, of the trials 0..trials-1 where event(stat(rows)) holds.

    Rows come in blocks of at most _CHUNK_ELEMENTS entries of keyed uniforms:
    row i is bit-identical to _keyed_uniforms(seed, i, 1, n)[0], whose ndtri is
    gaussian_vector(n, RngStream(seed, i)), so the blocking never shows.  stat
    maps a block to an array of per-trial statistics (it may drop trials that
    cannot be events), and each event maps that array to booleans.  Each block
    draws its own rows, computes its statistic and counts its own events, and
    the result is the integer sum over blocks, so neither block size nor block
    order can change it.  A call spanning two or more blocks with
    n >= _THREAD_MIN_N runs its blocks on _WORKERS threads (the draws, ndtri,
    sort and ndtr release the GIL); an exception raised in a block reaches the
    caller.  stat may overwrite its argument: each block's matrix is its own.
    """
    rows = max(1, min(trials, _CHUNK_ELEMENTS // n))

    def block(first):
        s = stat(_keyed_uniforms(seed, first, min(rows, trials - first), n))
        return [int(np.count_nonzero(event(s))) for event in events]

    firsts = range(0, trials, rows)
    if _WORKERS > 1 and len(firsts) > 1 and n >= _THREAD_MIN_N:
        with concurrent.futures.ThreadPoolExecutor(_WORKERS) as pool:
            per_block = list(pool.map(block, firsts))
    else:
        per_block = map(block, firsts)
    return [sum(c) for c in zip(*per_block)]


def run_theorem_trials(config: TrialConfig) -> MonteCarloReport:
    """Estimate the probability bounded by the three-term sphere bound.

    Each trial draws a uniform sphere point, forms the scaled sample
    sqrt(N) X, and counts KS deviations from the Gaussian CDF exceeding
    epsilon + gamma(t).  The bound is the corresponding three-term total.

    KS > thr needs some sorted entry with Phi(x_(i)) < i/N - thr or
    Phi(x_(i)) > (i-1)/N + thr.  Each row is compared with the inverse-CDF
    edges of those two conditions, widened by 2 _BAND, and only the rows that
    cross an edge get their exact statistic.
    """
    if not isinstance(config, TrialConfig):
        raise DomainError("run_theorem_trials expects a TrialConfig")
    n = config.N
    bound = tb._breakdown(n, config.epsilon, config.t, "exact_gamma")
    thr = bound.threshold
    lo_x = special.ndtri(np.clip(np.arange(1, n + 1) / n - thr + 2 * _BAND, 0.0, 1.0))
    hi_x = special.ndtri(np.clip(np.arange(0, n) / n + thr - 2 * _BAND, 0.0, 1.0))
    sqrt_n = math.sqrt(n)

    def flagged_statistics(u):
        x = special.ndtri(u, out=u)
        x /= _norms(x)[:, None]
        x *= sqrt_n
        x.sort(axis=-1)
        flagged = (x < lo_x).any(axis=-1) | (x > hi_x).any(axis=-1)
        return _ks_statistics(x[flagged])

    count, = _count(n, config.seed, config.trials, flagged_statistics, lambda ks: ks > thr)
    return _report(count, config.trials, bound.total)


def run_dkw_trials(N: int, trials: int, seed: int, epsilon: float) -> MonteCarloReport:
    """Estimate the DKW-bounded probability for i.i.d. Gaussian samples.

    Counts KS deviations of the raw (unnormalized) Gaussian sample exceeding
    epsilon; the bound is 2 exp(-2 N epsilon^2).  Phi(ndtri(u)) is u up to
    rounding, so each row's sorted uniforms are scored against the uniform CDF,
    and the rows within _BAND of epsilon get their exact statistic.
    """
    n, trials, seed = _trial_keys(N, trials, seed)
    eps = check_real(epsilon, "epsilon", 0.0)

    def statistics(u):
        ks = _ks_statistics(u, cdf=None)
        near = np.abs(ks - eps) <= _BAND
        ks[near] = _ks_statistics(special.ndtri(u[near]))
        return ks

    count, = _count(n, seed, trials, statistics, lambda ks: ks > eps)
    return _report(count, trials, tb._dkw_term(n, eps))


def run_lambda_trials(N: int, trials: int, seed: int, t) -> LambdaTrialReport:
    """Estimate the probability of the scale factor leaving [1-t, 1+t].

    The two one-sided events lambda > 1+t and lambda < 1-t are disjoint, so
    their counts always sum to the two-sided count; both are reported.
    """
    n, trials, seed = _trial_keys(N, trials, seed)
    tv = dfm._t_value(t)
    sqrt_n = math.sqrt(n)
    upper, lower = _count(n, seed, trials,
                          lambda u: sqrt_n / _norms(special.ndtri(u, out=u)) - 1.0,
                          lambda d: d > tv, lambda d: d < -tv)
    gp, gm = tb._scale_terms(n, tv, "exact_gamma")
    return _report(upper + lower, trials, gp + gm, LambdaTrialReport,
                   upper_count=upper, lower_count=lower)


def run_chisq_trials(N: int, trials: int, seed: int, x: float):
    """Estimate both one-sided chi-square deviation probabilities of |Z|^2.

    Counts U - N >= 2 sqrt(N x) + 2 x and N - U >= 2 sqrt(N x) separately;
    each is bounded by exp(-x).  Returns (upper_report, lower_report).
    """
    n, trials, seed = _trial_keys(N, trials, seed)
    up = tb.lm_upper(n, x)
    lo = tb.lm_lower(n, x)
    upper, lower = _count(n, seed, trials, lambda u: _norms(special.ndtri(u, out=u)) ** 2,
                          lambda u: u - n >= up.threshold,
                          lambda u: n - u >= lo.threshold)
    return _report(upper, trials, up.bound), _report(lower, trials, lo.bound)


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


def _worst(values, grid):
    k = int(np.argmax(values))
    return float(values[k]), float(grid[k])


def _scale_draws(gen):
    """64 pairs (t, lambda): t uniform on (0.01, 0.99), then lambda on (1 - t, 1 + t)."""
    pairs = [(t := gen.uniform(0.01, 0.99), gen.uniform(1.0 - t, 1.0 + t)) for _ in range(64)]
    return np.array(pairs).T


def _second_diff(vals):
    return vals[:-2] - 2.0 * vals[1:-1] + vals[2:]


def _richardson_forward(fn, h: float) -> float:
    # 2 f(h)/h - f(2h)/(2h) kills the O(h) term of the one-sided ratio
    return 2.0 * fn(h) / h - fn(2.0 * h) / (2.0 * h)


def verify_lemmas(grid_steps: int = 200, tolerance=None, scope: str = "all",
                  seed: int = 0) -> VerificationReport:
    """Run every grid / finite-difference invariant behind the bounds.

    Args:
      grid_steps: grid density for the sweeps, at least 100
      tolerance: when given, a finite real that replaces every check's own
        threshold (0 makes the floating-point residuals visible as failures)
      scope: "lemmas", "appendix", or "all"
      seed: stream key for the randomized spot checks

    Returns a VerificationReport; failing checks are recorded, not raised.
    """
    grid_steps = check_int(grid_steps, "grid_steps", 100)
    if tolerance is not None:
        tolerance = check_real(tolerance, "tolerance")
    if scope not in ("lemmas", "appendix", "all"):
        raise DomainError(f"scope must be 'lemmas', 'appendix' or 'all', got {scope!r}")
    gen = RngStream(seed, 0).generator()
    results = []

    def add(name, scope_, residual, default_threshold, where):
        thr = default_threshold if tolerance is None else tolerance
        results.append(CheckResult(name=name, scope=scope_, residual=float(residual),
                                   threshold=thr, where=float(where),
                                   passed=float(residual) <= thr))

    if scope in ("lemmas", "all"):
        # symmetry of the two one-sided gap suprema
        ts = np.linspace(0.0, 0.99, grid_steps)
        gaps = np.abs(dfm.gamma_oracle(ts) - dfm.gamma_oracle(ts, side="minus"))
        r, w = _worst(gaps, ts)
        add("gap-symmetry", "lemmas", r, 1e-12, w)

        # pointwise reflection of the deformed-CDF differences
        xr = gen.uniform(-8.0, 8.0, size=256)
        tr = gen.uniform(0.0, 0.99, size=256)
        lhs = dfm.phi_deformed(xr, tr, "plus") - dfm.std_normal_cdf(xr)
        rhs = dfm.std_normal_cdf(-xr) - dfm.phi_deformed(-xr, tr, "minus")
        r, w = _worst(np.abs(lhs - rhs), xr)
        add("gap-reflection-pointwise", "lemmas", r, 1e-14, w)

        # closed form against the brute-force supremum
        to = np.arange(1, 100) / 100.0
        r, w = _worst(np.abs(dfm._gamma(to) - dfm.gamma_oracle(to)), to)
        add("gamma-closed-vs-oracle", "lemmas", r, 1e-7, w)

        # secant bound gamma(t) <= t/2 and convexity of gamma
        tg = np.linspace(0.0, 0.999, max(grid_steps, 1000))
        gam = dfm._gamma(tg)
        r, w = _worst(gam - 0.5 * tg, tg)
        add("gamma-secant-upper", "lemmas", r, 1e-12, w)
        tc = np.linspace(0.0, 0.99, grid_steps)
        r, w = _worst(-_second_diff(dfm._gamma(tc)), tc[1:-1])
        add("gamma-convexity", "lemmas", r, 1e-9, w)

        # envelope ordering for random scale factors inside the window
        xs = np.linspace(-8.0, 8.0, 501)
        ts, ls = _scale_draws(gen)
        mid = dfm.std_normal_cdf(xs / ls[:, None])
        below = dfm.phi_deformed(xs, ts[:, None], "minus") - mid
        above = mid - dfm.phi_deformed(xs, ts[:, None], "plus")
        r, w = _worst(np.maximum(below.max(axis=1), above.max(axis=1)), ts)
        add("scale-envelope-ordering", "lemmas", r, 1e-14, w)

        # secant lower bounds and curvature signs of the exponent rates
        gp = tb.g_plus(tg)
        gm = tb.g_minus(tg)
        r, w = _worst(np.maximum(tg - gm, 0.375 * tg - gp), tg)
        add("g-secant-lower-bounds", "lemmas", r, 1e-12, w)
        tk = np.linspace(0.0, 0.95, grid_steps)
        curv = np.maximum(-_second_diff(tb.g_minus(tk)), _second_diff(tb.g_plus(tk)))
        r, w = _worst(curv, tk[1:-1])
        add("g-curvature-signs", "lemmas", r, 1e-9, w)

        h = 1e-5
        slope_err = max(abs(_richardson_forward(tb.g_minus, h) - 1.0),
                        abs(_richardson_forward(tb.g_plus, h) - 1.0))
        add("g-slopes-at-origin", "lemmas", slope_err, 1e-6, 0.0)

        # threshold-form chi-square tails match the deviation form exactly
        worst = (0.0, 0.0)
        for _ in range(20):
            n = int(gen.integers(1, 500))
            xv = float(gen.uniform(0.0, n / 4.0))
            up = tb.lm_upper(n, xv)
            lo = tb.lm_lower(n, xv)
            ru = abs(tb.chisq_tail_upper(n, n + up.threshold) - up.bound)
            rl = abs(tb.chisq_tail_lower(n, n - lo.threshold) - lo.bound)
            if max(ru, rl) > worst[0]:
                worst = (max(ru, rl), xv)
        add("chisq-lm-equivalence", "lemmas", worst[0], 1e-12, worst[1])

        # chained tube inequality Phi(x) - gamma <= Phi(x/lambda) <= Phi(x) + gamma
        ts, ls = _scale_draws(gen)
        g = dfm._gamma(ts)[:, None]
        mid = dfm.std_normal_cdf(xs / ls[:, None])
        base = dfm.std_normal_cdf(xs)
        r, w = _worst(np.maximum(base - g - mid, mid - base - g).max(axis=1), ts)
        add("tube-chain-pointwise", "lemmas", r, 1e-12, w)

    if scope in ("appendix", "all"):
        h = 1e-5
        slope = dfm.TANGENT_SLOPE
        gamma_fd = _richardson_forward(lambda t: dfm.gamma_closed(t).gamma, h)
        fm_fd = (dfm.f_minus(h) - dfm.f_minus(-h)) / (2.0 * h)
        add("shared-tangent-slope", "appendix",
            max(abs(gamma_fd - slope), abs(fm_fd - slope)), 1e-6, 0.0)

        spots = [-0.9, -0.5, 0.0, 0.3, 0.8]
        rel = []
        for t in spots:
            fd = (dfm.f_minus(t + h) - dfm.f_minus(t - h)) / (2.0 * h)
            closed = dfm.f_minus_prime(t)
            rel.append(abs(fd - closed) / abs(closed))
        r, w = _worst(rel, spots)
        add("f-minus-prime-vs-fd", "appendix", r, 1e-6, w)

        ta = np.linspace(-0.99, 0.99, max(grid_steps, 1000))
        fmp = np.array([dfm.f_minus_prime(t) for t in ta])
        r, w = _worst(-fmp, ta)
        add("f-minus-prime-positive", "appendix", r, 0.0, w)

        tcc = np.linspace(-0.9, 0.9, grid_steps)
        fm = np.array([dfm.f_minus(t) for t in tcc])
        r, w = _worst(_second_diff(fm), tcc[1:-1])
        add("f-minus-concavity", "appendix", r, 1e-9, w)

        refl = np.array([abs(dfm.f_plus(t) + dfm.f_minus(-t)) for t in ta])
        r, w = _worst(refl, ta)
        add("f-reflection-identity", "appendix", r, 1e-12, w)

        dom = np.array([dfm.f_minus(t) - dfm.f_plus(t) for t in ta])
        r, w = _worst(dom, ta)
        add("f-plus-dominates", "appendix", r, 1e-12, w)

        add("alpha-zero-values", "appendix",
            max(abs(dfm.alpha(0.0) - 0.5), abs(-dfm.alpha_prime(0.0) - 0.5)),
            1e-12, 0.0)

        # sandwich 0 < -(1+t) alpha'(t) < 1; residual is the negated margin to
        # the nearest endpoint, so passing needs at least 1e-12 of room
        s = np.array([-(1.0 + t) * dfm.alpha_prime(t) for t in ta])
        margin = np.minimum(s, 1.0 - s)
        k = int(np.argmin(margin))
        add("alpha-prime-sandwich", "appendix", -margin[k], -1e-12, ta[k])

        rel = []
        for t in tcc:
            fd = (dfm.alpha(t + h) - dfm.alpha(t - h)) / (2.0 * h)
            closed = dfm.alpha_prime(t)
            rel.append(abs(fd - closed) / abs(closed))
        r, w = _worst(rel, tcc)
        add("alpha-prime-vs-fd", "appendix", r, 1e-6, w)

    return VerificationReport(grid_steps=grid_steps, checks=tuple(results))
