"""Monte Carlo certification of the tail bounds and numerical lemma verification.

Each trial owns a counter-based random stream keyed by (seed, trial_index), so
runs are reproducible bit for bit, trials can execute in any order or in
parallel, and event counting is a pure function of the configuration.  The
runners estimate the probabilities that the bounds dominate:

  * the KS deviation of a scaled uniform sphere point (three-term bound),
  * the KS deviation of an i.i.d. Gaussian sample (DKW),
  * the scale factor lambda leaving [1-t, 1+t],
  * the two one-sided chi-square deviations of |Z|^2 (Laurent-Massart).

A Wilson score interval accompanies every frequency.  A configuration is
dominated when the observed frequency does not exceed the bound; the Wilson
upper edge is reported for context and checked with slack only where a bound
is informative, because these bounds are valid but far from tight.

verify_lemmas runs every grid and finite-difference invariant behind the
bounds (symmetry and convexity of the gap function, secant bounds, exponent
rate curvature, the auxiliary-function sandwich, derivative identities) and
reports the worst residual of each check; failures are data, not exceptions.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import deformation as dfm
from . import tail_bounds as tb
from .empirical import _ks_statistics
from .errors import DomainError, check_int, check_open, check_positive, check_u64
from .sampling import RngStream, _keyed_uniforms, _sq_norm

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

# elements per working matrix before a run is split into chunks
_CHUNK_ELEMENTS = 1 << 22

_MIN_TRIALS = 100  # below this a Wilson verdict is meaningless


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo configuration for the three-term bound."""

    N: int
    trials: int
    seed: int
    epsilon: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "N", check_int(self.N, "N"))
        object.__setattr__(self, "trials", check_int(self.trials, "trials", _MIN_TRIALS))
        object.__setattr__(self, "seed", check_u64(self.seed, "seed"))
        object.__setattr__(self, "epsilon", check_positive(self.epsilon, "epsilon"))
        object.__setattr__(self, "t", dfm._t_value(self.t))


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
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(count, (int, np.integer)) or not 0 <= count <= trials:
        raise DomainError(f"count must lie in [0, trials], got {count!r}")
    conf = check_open(confidence, 0.0, 1.0, "confidence")
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


def _gaussian_rows(N: int, seed: int, first: int, count: int) -> np.ndarray:
    """Rows i = first..first+count-1 of the per-trial Gaussian design matrix.

    Row i is bit-identical to gaussian_vector(N, RngStream(seed, i)): the same
    centered 53-bit uniforms pass through one batched inverse-CDF call.
    """
    return special.ndtri(_keyed_uniforms(seed, first, count, N))


def _chunks(trials: int, N: int):
    rows = max(1, min(trials, _CHUNK_ELEMENTS // N))
    start = 0
    while start < trials:
        yield start, min(rows, trials - start)
        start += rows


def _row_norms(rows: np.ndarray) -> np.ndarray:
    out = np.empty(rows.shape[0])
    for j in range(rows.shape[0]):
        out[j] = math.sqrt(_sq_norm(rows[j]))
    return out


def run_theorem_trials(config: TrialConfig) -> MonteCarloReport:
    """Estimate the probability bounded by the three-term sphere bound.

    Each trial draws a uniform sphere point, forms the scaled sample
    sqrt(N) X, and counts KS deviations from the Gaussian CDF exceeding
    epsilon + gamma(t).  The bound is the corresponding three-term total.
    """
    if not isinstance(config, TrialConfig):
        raise DomainError("run_theorem_trials expects a TrialConfig")
    bound = tb._breakdown(config.N, config.epsilon, config.t, "exact_gamma")
    sqrt_n = math.sqrt(config.N)
    count = 0
    for first, rows in _chunks(config.trials, config.N):
        z = _gaussian_rows(config.N, config.seed, first, rows)
        norms = _row_norms(z)
        values = (z / norms[:, None]) * sqrt_n
        values.sort(axis=1)
        count += int(np.count_nonzero(_ks_statistics(values) > bound.threshold))
    return _report(count, config.trials, bound.total)


def run_dkw_trials(N: int, trials: int, seed: int, epsilon: float) -> MonteCarloReport:
    """Estimate the DKW-bounded probability for i.i.d. Gaussian samples.

    Counts KS deviations of the raw (unnormalized) Gaussian sample exceeding
    epsilon; the bound is 2 exp(-2 N epsilon^2).
    """
    n = check_int(N, "N")
    trials = check_int(trials, "trials", _MIN_TRIALS)
    seed = check_u64(seed, "seed")
    eps = check_positive(epsilon, "epsilon")
    count = 0
    for first, rows in _chunks(trials, n):
        z = _gaussian_rows(n, seed, first, rows)
        z.sort(axis=1)
        count += int(np.count_nonzero(_ks_statistics(z) > eps))
    return _report(count, trials, tb._dkw_term(n, eps))


def run_lambda_trials(N: int, trials: int, seed: int, t) -> LambdaTrialReport:
    """Estimate the probability of the scale factor leaving [1-t, 1+t].

    The two one-sided events lambda > 1+t and lambda < 1-t are disjoint, so
    their counts always sum to the two-sided count; both are reported.
    """
    n = check_int(N, "N")
    trials = check_int(trials, "trials", _MIN_TRIALS)
    seed = check_u64(seed, "seed")
    tv = dfm._t_value(t)
    sqrt_n = math.sqrt(n)
    upper = lower = 0
    for first, rows in _chunks(trials, n):
        z = _gaussian_rows(n, seed, first, rows)
        deviation = sqrt_n / _row_norms(z) - 1.0
        upper += int(np.count_nonzero(deviation > tv))
        lower += int(np.count_nonzero(deviation < -tv))
    gp, gm = tb._scale_terms(n, tv, "exact_gamma")
    return _report(upper + lower, trials, gp + gm, LambdaTrialReport,
                   upper_count=upper, lower_count=lower)


def run_chisq_trials(N: int, trials: int, seed: int, x: float):
    """Estimate both one-sided chi-square deviation probabilities of |Z|^2.

    Counts U - N >= 2 sqrt(N x) + 2 x and N - U >= 2 sqrt(N x) separately;
    each is bounded by exp(-x).  Returns (upper_report, lower_report).
    """
    n = check_int(N, "N")
    trials = check_int(trials, "trials", _MIN_TRIALS)
    seed = check_u64(seed, "seed")
    up = tb.lm_upper(n, x)
    lo = tb.lm_lower(n, x)
    upper = lower = 0
    for first, rows in _chunks(trials, n):
        z = _gaussian_rows(n, seed, first, rows)
        u = _row_norms(z) ** 2
        upper += int(np.count_nonzero(u - n >= up.threshold))
        lower += int(np.count_nonzero(n - u >= lo.threshold))
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


def _gamma_grid(ts):
    return np.array([dfm.gamma_closed(t).gamma for t in ts])


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
      tolerance: when given, replaces every check's own threshold (0 makes the
        floating-point residuals visible as failures)
      scope: "lemmas", "appendix", or "all"
      seed: stream key for the randomized spot checks

    Returns a VerificationReport; failing checks are recorded, not raised.
    """
    grid_steps = check_int(grid_steps, "grid_steps", 100)
    if scope not in ("lemmas", "appendix", "all"):
        raise DomainError(f"scope must be 'lemmas', 'appendix' or 'all', got {scope!r}")
    gen = RngStream(seed, 0).generator()
    results = []

    def add(name, scope_, residual, default_threshold, where):
        thr = default_threshold if tolerance is None else float(tolerance)
        results.append(CheckResult(name=name, scope=scope_, residual=float(residual),
                                   threshold=thr, where=float(where),
                                   passed=float(residual) <= thr))

    if scope in ("lemmas", "all"):
        # symmetry of the two one-sided gap suprema
        ts = np.linspace(0.0, 0.99, grid_steps)
        gaps = [abs(dfm.gamma_oracle(t) - dfm.gamma_oracle(t, side="minus")) for t in ts]
        r, w = _worst(gaps, ts)
        add("gap-symmetry", "lemmas", r, 1e-12, w)

        # pointwise reflection of the deformed-CDF differences
        xr = gen.uniform(-8.0, 8.0, size=256)
        tr = gen.uniform(0.0, 0.99, size=256)
        worst = (0.0, 0.0)
        for xi, ti in zip(xr, tr):
            lhs = dfm.phi_deformed(xi, ti, "plus") - dfm.std_normal_cdf(xi)
            rhs = dfm.std_normal_cdf(-xi) - dfm.phi_deformed(-xi, ti, "minus")
            if abs(lhs - rhs) > worst[0]:
                worst = (abs(lhs - rhs), xi)
        add("gap-reflection-pointwise", "lemmas", worst[0], 1e-14, worst[1])

        # closed form against the brute-force supremum
        to = np.arange(1, 100) / 100.0
        diffs = [abs(dfm.gamma_closed(t).gamma - dfm.gamma_oracle(t)) for t in to]
        r, w = _worst(diffs, to)
        add("gamma-closed-vs-oracle", "lemmas", r, 1e-7, w)

        # secant bound gamma(t) <= t/2 and convexity of gamma
        tg = np.linspace(0.0, 0.999, max(grid_steps, 1000))
        gam = _gamma_grid(tg)
        r, w = _worst(gam - 0.5 * tg, tg)
        add("gamma-secant-upper", "lemmas", r, 1e-12, w)
        tc = np.linspace(0.0, 0.99, grid_steps)
        r, w = _worst(-_second_diff(_gamma_grid(tc)), tc[1:-1])
        add("gamma-convexity", "lemmas", r, 1e-9, w)

        # envelope ordering for random scale factors inside the window
        xs = np.linspace(-8.0, 8.0, 501)
        worst = (-math.inf, 0.0)
        for _ in range(64):
            ti = float(gen.uniform(0.01, 0.99))
            li = float(gen.uniform(1.0 - ti, 1.0 + ti))
            mid = dfm.std_normal_cdf(xs / li)
            below = dfm.phi_deformed(xs, ti, "minus") - mid
            above = mid - dfm.phi_deformed(xs, ti, "plus")
            v = max(float(below.max()), float(above.max()))
            if v > worst[0]:
                worst = (v, ti)
        add("scale-envelope-ordering", "lemmas", worst[0], 1e-14, worst[1])

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
        worst = (-math.inf, 0.0)
        for _ in range(64):
            ti = float(gen.uniform(0.01, 0.99))
            li = float(gen.uniform(1.0 - ti, 1.0 + ti))
            g = dfm.gamma_closed(ti).gamma
            mid = dfm.std_normal_cdf(xs / li)
            base = dfm.std_normal_cdf(xs)
            v = float(np.maximum(base - g - mid, mid - base - g).max())
            if v > worst[0]:
                worst = (v, ti)
        add("tube-chain-pointwise", "lemmas", worst[0], 1e-12, worst[1])

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
