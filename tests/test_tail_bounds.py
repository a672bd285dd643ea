"""Three-term bound, chi-square tails, and the (epsilon, t) split optimizer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecdf import (BoundBreakdown, BoundInputs, DomainError,
                       EmpiricalCdfView, RngStream, SphereSample, TrialConfig,
                       build_ecdf, chisq_tail_lower, chisq_tail_upper,
                       corollary_bound, dkw_bound, f_minus, g_minus, g_plus,
                       gamma_closed, gamma_oracle, gaussian_vector,
                       lambda_concentration_bound, lambda_of, lm_lower, lm_upper,
                       optimize_split, p_value_bound, phi_deformed, rescale_cdf,
                       run_dkw_trials, secant_interval, std_normal_cdf, theorem_bound,
                       verify_lemmas, wilson_interval, x_plus)
from spherecdf import tail_bounds as tb
from spherecdf.deformation import _bisect, _gamma_np, _golden_min
from spherecdf.errors import SIZE_MAX, check_int, check_real

# independent reimplementations of the exponent rates, kept in the suite so a
# transcription slip in the package cannot hide
gp_ref = lambda t: 0.5 * (1.0 - (1.0 + t) ** -2)  # noqa: E731
gm_ref = lambda t: 0.5 * (math.sqrt(2.0 / (1.0 - t) ** 2 - 1.0) - 1.0)  # noqa: E731


class TestExponentRates:
    def test_zero(self):
        assert g_plus(0.0) == 0.0
        assert g_minus(0.0) == 0.0

    def test_direct_values(self):
        assert abs(g_plus(0.5) - 5.0 / 18.0) <= 1e-15
        assert abs(g_minus(0.5) - (math.sqrt(7.0) - 1.0) / 2.0) <= 1e-15

    def test_against_reimplementation(self):
        for t in np.linspace(0.0, 0.99, 200):
            tv = float(t)
            assert abs(g_plus(tv) - gp_ref(tv)) <= 1e-15
            assert abs(g_minus(tv) - gm_ref(tv)) <= 1e-15

    def test_gplus_limit(self):
        assert abs(g_plus(1.0 - 1e-12) - 0.375) <= 1e-11

    def test_strictly_increasing(self):
        ts = np.linspace(0.0, 0.999, 1000)
        assert np.all(np.diff(g_plus(ts)) > 0.0)
        assert np.all(np.diff(g_minus(ts)) > 0.0)

    def test_secant_lower_bounds(self):
        ts = np.linspace(0.0, 0.999, 1000)
        assert np.all(g_minus(ts) >= ts - 1e-12)
        assert np.all(g_plus(ts) >= 0.375 * ts - 1e-12)

    # the identities behind the corollary's rates, in exact rational arithmetic
    # on a grid of t in [0, 1)
    RATIONALS = [Fraction(i, 97) for i in range(97)] + [Fraction(1, 10**12),
                                                        Fraction(10**12 - 1, 10**12)]

    def test_g_plus_over_three_eighths_t_exactly(self):
        for t in self.RATIONALS:
            gp = (1 - 1 / (1 + t) ** 2) / 2
            assert gp - 3 * t / 8 == t * (1 - t) * (5 + 3 * t) / (8 * (1 + t) ** 2) >= 0

    def test_g_minus_over_t_exactly(self):
        # g_minus(t) >= t  <=>  2 (1 - t)^-2 - 1 >= (1 + 2t)^2, both sides of
        # sqrt(2 (1 - t)^-2 - 1) >= 1 + 2t being positive
        for t in self.RATIONALS:
            lhs = (1 + 2 * t + 2 * t ** 2) * (1 - t) ** 2
            assert lhs == 1 - t ** 2 * (1 + 2 * t - 2 * t ** 2) <= 1
            assert 2 / (1 - t) ** 2 - 1 >= (1 + 2 * t) ** 2

    def test_slopes_at_origin(self):
        h = 1e-5
        for g in (g_plus, g_minus):
            est = 2.0 * g(h) / h - g(2 * h) / (2 * h)
            assert abs(est - 1.0) <= 1e-6

    def test_curvature_signs(self):
        ts = np.linspace(0.0, 0.95, 400)
        gm = g_minus(ts)
        gp = g_plus(ts)
        assert np.all(gm[:-2] - 2 * gm[1:-1] + gm[2:] >= -1e-9)
        assert np.all(gp[:-2] - 2 * gp[1:-1] + gp[2:] <= 1e-9)

    def test_float_kernels_equal_public_scalar_calls(self):
        # cli gamma prints _g_plus(t) / _g_minus(t) per row: a float's ** 2 is libm
        # pow, and so is the public call's (its 0-d array arithmetic yields an
        # np.float64), unlike an array's x*x
        rng = np.random.default_rng(333)
        ts = np.concatenate([rng.uniform(0.0, 1.0, 10_000),
                             10.0 ** rng.uniform(-300.0, 0.0, 10_000),
                             np.linspace(0.0, 0.999999, 333)])
        for t in ts[ts < 1.0].tolist():
            assert tb._g_plus(t).hex() == g_plus(t).hex()
            assert tb._g_minus(t).hex() == g_minus(t).hex()

    def test_g_minus_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for t in (0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12):
                tm = mpmath.mpf(t)
                ref = (mpmath.sqrt(2 / (1 - tm) ** 2 - 1) - 1) / 2
                assert abs(g_minus(t) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("bad", [1.0, 1.2, -0.1, math.nan, math.inf, -math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            g_plus(bad)
        with pytest.raises(DomainError):
            g_minus(bad)


class TestDkw:
    def test_vacuous_at_tiny_epsilon(self):
        assert abs(dkw_bound(1000, 1e-12) - 2.0) <= 1e-9

    def test_direct_value(self):
        assert abs(dkw_bound(100, 0.1) - 2.0 * math.exp(-2.0)) <= 1e-15

    def test_monotone(self):
        eps = np.linspace(0.01, 0.5, 50)
        vals = [dkw_bound(100, float(e)) for e in eps]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ns = [10, 100, 1000, 10_000]
        vals = [dkw_bound(n, 0.1) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_huge_dimension_no_overflow(self):
        assert dkw_bound(10 ** 9, 0.01) == 2.0 * math.exp(-2.0 * 10 ** 9 * 1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            dkw_bound(0, 0.1)
        with pytest.raises(DomainError):
            dkw_bound(100, 0.0)


class TestLaurentMassart:
    def test_vacuous(self):
        assert lm_upper(50, 0.0) == (1.0, 0.0)
        assert lm_lower(50, 0.0) == (1.0, 0.0)

    def test_x_equals_n(self):
        b, thr = lm_upper(50, 50.0)
        assert abs(thr - 4 * 50) <= 1e-12
        assert abs(b - math.exp(-50.0)) <= 1e-60

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            lm_upper(50, -0.5)
        with pytest.raises(DomainError):
            lm_lower(50, -0.5)


class TestChiSquareThresholdForms:
    def test_no_deviation(self):
        assert chisq_tail_upper(100, 100.0) == 1.0
        assert chisq_tail_lower(100, 100.0) == 1.0

    def test_direct_value(self):
        # exp(-25 (sqrt(2) - 1)^2), pinned at 40 digits
        assert abs(chisq_tail_upper(100, 150.0) - 0.013714222014653534) <= 1e-15

    def test_equivalence_with_deviation_form(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            x = float(rng.uniform(0.0, n / 4.0))
            up = lm_upper(n, x)
            lo = lm_lower(n, x)
            assert abs(chisq_tail_upper(n, n + up.threshold) - up.bound) <= 1e-12
            assert abs(chisq_tail_lower(n, n - lo.threshold) - lo.bound) <= 1e-12

    def test_domains(self):
        with pytest.raises(DomainError):
            chisq_tail_upper(100, 99.0)
        with pytest.raises(DomainError):
            chisq_tail_lower(100, 101.0)
        with pytest.raises(DomainError):
            chisq_tail_lower(100, -1.0)


class TestLambdaConcentration:
    def test_vacuous_at_zero(self):
        assert lambda_concentration_bound(100, 0.0) == 2.0

    def test_direct_value(self):
        # exp(-100 g+(0.2)^2) + exp(-100 g-(0.2)^2), pinned at 40 digits
        assert abs(lambda_concentration_bound(100, 0.2) - 0.10220750259180933) <= 1e-15


class TestTheoremBound:
    def test_direct_value(self):
        b = theorem_bound(BoundInputs(100, 0.1, 0.2))
        assert abs(b.total - 0.3728780690650347) <= 1e-14
        assert abs(b.threshold - (0.1 + gamma_closed(0.2).gamma)) <= 1e-15
        assert abs(b.threshold - 0.15377136375284147) <= 1e-14
        assert abs(b.total - (b.dkw_term + b.gplus_term + b.gminus_term)) <= 1e-15

    def test_only_bound_inputs(self):
        with pytest.raises(DomainError, match="expects a BoundInputs"):
            theorem_bound((100, 0.1, 0.2))

    def test_vacuous_limit(self):
        b = theorem_bound(BoundInputs(100, 1e-12, 0.0))
        assert abs(b.total - 4.0) <= 1e-9

    def test_corollary_dominates(self):
        for n in (10, 100, 1000):
            for eps in (0.02, 0.1, 0.3):
                for t in (0.0, 0.1, 0.5, 0.9):
                    if t == 0.0:
                        th = theorem_bound(BoundInputs(n, eps, t))
                        co = corollary_bound(n, eps, t)
                    else:
                        th = theorem_bound(BoundInputs(n, eps, t))
                        co = corollary_bound(n, eps, t)
                    assert co.total >= th.total - 1e-12
                    assert co.threshold >= th.threshold - 1e-12

    def test_monotone_in_dimension(self):
        totals = [theorem_bound(BoundInputs(n, 0.05, 0.1)).total
                  for n in (10, 50, 100, 500, 1000, 5000)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))


class TestCorollaryBound:
    def test_direct_value(self):
        b = corollary_bound(100, 0.1, 0.2)
        assert abs(b.total - 0.8587690300928826) <= 1e-14
        assert abs(b.threshold - 0.2) <= 1e-15
        assert abs(b.gplus_term - math.exp(-0.5625)) <= 1e-15
        assert abs(b.gminus_term - math.exp(-4.0)) <= 1e-15

    def test_t_zero_reduces_to_dkw_plus_two(self):
        b = corollary_bound(100, 0.1, 0.0)
        assert b.total == dkw_bound(100, 0.1) + 2.0


class TestOptimizeSplit:
    def test_small_dimension_vacuous_regime(self):
        # at tiny N every split is vacuous; the optimizer must still beat the
        # undeformed endpoint, whose scale terms stay at their ceiling of 1 each
        opt = optimize_split(2, 0.05)
        assert opt.best_total <= dkw_bound(2, 0.05) + 2.0
        assert opt.best_total > 2.0
        assert p_value_bound(2, 0.05) == 1.0

    def test_large_dimension_interior_optimum(self):
        opt = optimize_split(10_000, 0.05)
        assert opt.best_t > 0.0
        assert opt.best_total < 0.01

    def test_budget_constraint(self):
        for mode in ("exact_gamma", "corollary"):
            opt = optimize_split(500, 0.12, mode)
            cost = gamma_closed(opt.best_t).gamma if mode == "exact_gamma" \
                else 0.5 * opt.best_t
            assert abs(opt.best_epsilon + cost - 0.12) <= 1e-10

    def test_dominates_random_splits(self):
        rng = np.random.default_rng(11)
        for n, delta in ((50, 0.3), (1000, 0.08), (10_000, 0.05)):
            opt = optimize_split(n, delta)
            for _ in range(1000):
                t = float(rng.uniform(0.0, 0.999))
                eps = delta - gamma_closed(t).gamma
                if eps <= 0.0:
                    continue
                probe = (2.0 * math.exp(-2.0 * n * eps * eps)
                         + math.exp(-n * gp_ref(t) ** 2)
                         + math.exp(-n * gm_ref(t) ** 2))
                assert opt.best_total <= probe + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            optimize_split(100, 0.0)
        with pytest.raises(DomainError):
            optimize_split(100, -0.1)
        with pytest.raises(DomainError):
            optimize_split(100, 0.1, mode="fast")


def _per_point_best_split(n, dv, mode):
    """_best_split with its coarse grid priced one scalar _cost and _total call per point.

    A copy of the search as it stood before the grid became one array call
    and then a numpy filter; the package must return the same split bit for
    bit.
    """
    if dv < 0.5:
        t_max = _bisect(lambda t: tb._cost(t, mode) < dv, 0.0, 1.0 - 1e-12, 1e-12)[0]
    else:
        t_max = 1.0 - 1e-12
    if t_max == 0.0:
        return dv, 0.0, tb._total(n, dv, 0.0, mode)
    ts = np.linspace(0.0, t_max, 512, endpoint=False).tolist()
    totals = [tb._total(n, dv - tb._cost(t, mode), t, mode) for t in ts]
    k = int(np.argmin(totals))
    a = ts[max(k - 1, 0)]
    b = ts[k + 1] if k + 1 < len(ts) else t_max

    def objective(t):
        eps = dv - tb._cost(t, mode)
        return math.inf if eps <= 0.0 else tb._total(n, eps, t, mode)

    best_t, best_total = _golden_min(objective, a, b, 1e-12, (ts[k], totals[k]))
    best_eps = dv - tb._cost(best_t, mode)
    if best_eps <= 0.0:
        return dv, 0.0, tb._total(n, dv, 0.0, mode)
    return best_eps, best_t, best_total


class TestBestSplitGrid:
    # budgets below 2.4e-13 leave t_max == 0 in exact_gamma mode; 0.5 and up
    # take the whole t range
    @pytest.mark.parametrize("mode", ["exact_gamma", "corollary"])
    @pytest.mark.parametrize("n", [1, 2, 10**3, 10**9])
    @pytest.mark.parametrize("dv", [1e-14, 1e-13, 2e-13, 1e-11, 3e-10, 5e-9, 1e-6, 1e-3,
                                    0.02, 0.1, 0.3, 0.4999, 0.5, 0.75, 1.0])
    def test_equals_per_point_search(self, mode, n, dv):
        self._check(n, dv, mode)

    # budgets below about 1e-8 leave the totals flat near their vacuous ceiling,
    # where a grid total one ulp off moves the chosen bracket
    @settings(max_examples=60)
    @given(st.integers(1, 2**64 - 1), st.floats(-14.0, 0.1),
           st.sampled_from(["exact_gamma", "corollary"]))
    def test_equals_per_point_search_random(self, n, log_dv, mode):
        self._check(n, 10.0 ** log_dv, mode)

    # the filter's corners beside the grid above: every total underflows to 0.0
    # (every point within the absolute floor), flat vacuous totals (the next
    # three pick another bracket if the margin is dropped: an approximate total
    # an ulp low outbids the exact minimum), budgets past 1, and N near 2^64
    @pytest.mark.parametrize("n, dv, mode", [
        (139296996, 0.00444, "exact_gamma"), (6796476, 1.45e-7, "exact_gamma"),
        (4, 6.569918607027309e-09, "exact_gamma"),
        (428209631, 1.428983870434529e-12, "exact_gamma"),
        (11, 2.4828526108494977e-09, "corollary"),
        (6796476, 1.45e-7, "corollary"), (3, 1.2, "corollary"),
        (2**64 - 1, 1e-9, "exact_gamma"), (2**64 - 1, 1e-9, "corollary"),
        (2**64 - 1, 0.9, "exact_gamma")])
    def test_filter_corners(self, n, dv, mode):
        self._check(n, dv, mode)

    def test_exact_pricing_stops_at_a_zero_total(self, monkeypatch):
        # 259 exact totals, the first at grid[66], underflow to 0.0 and the filter
        # keeps 269 points; totals are never negative, so the first exact 0.0 ends
        # the pricing, and no refinement probe can beat it under _golden_min's
        # strict <, so the refinement is skipped (the equality with the per-point
        # search is test_filter_corners)
        priced, entered = [], []
        total, golden = tb._total, tb._golden_min
        monkeypatch.setattr(tb, "_total", lambda *a: priced.append(a[2]) or total(*a))
        monkeypatch.setattr(tb, "_golden_min",
                            lambda *a: entered.append(len(priced)) or golden(*a))
        assert tb._best_split(139296996, [0.00444], "exact_gamma")[0][2] == 0.0
        # the numpy filter's one call, then the exact candidates up to the first 0.0
        assert isinstance(priced[0], np.ndarray) and len(priced) - 1 <= 8
        # no refinement probes through the public call either, and the same split
        # as the per-point search, whose refinement runs and returns its incumbent
        priced.clear()
        opt = tb.optimize_split(139296996, 0.00444)
        assert entered == [] and len(priced) - 1 <= 8
        want = _per_point_best_split(139296996, 0.00444, "exact_gamma")
        assert [v.hex() for v in (opt.best_epsilon, opt.best_t, opt.best_total)] == \
            [float(v).hex() for v in want]

    def test_filter_keeps_the_t_zero_point_quiet(self):
        with np.errstate(all="raise"):
            assert _gamma_np(np.array([0.0, 5e-5, 0.5]))[0] == 0.0

    @staticmethod
    def _check(n, dv, mode):
        got, = tb._best_split(n, [dv], mode)
        assert [float(v).hex() for v in got] == \
            [float(v).hex() for v in _per_point_best_split(n, dv, mode)]

    def test_t_max_zero_branch_is_reached(self):
        assert tb._best_split(1000, [1e-13], "exact_gamma")[0][1] == 0.0

    def test_approximate_totals_stay_far_inside_the_margin(self):
        # _best_split's docstring bounds |approx - exact| by rho(n) exact + alpha;
        # on a seeded sample the largest discrepancy stays below a hundredth of it
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(40):
            n = min(max(int(2.0 ** rng.uniform(0.0, 64.0)), 1), 2**64 - 1)
            n = 2**64 - 1 - int(rng.integers(0, 1000)) if rng.random() < 0.2 else n
            dv = 10.0 ** rng.uniform(-8.0, 0.0)
            mode = "exact_gamma" if rng.random() < 0.5 else "corollary"
            t_max = _bisect(lambda t: tb._cost(t, mode) < dv, 0.0, 1.0 - 1e-12, 1e-12)[0]
            grid = np.linspace(0.0, t_max, 512, endpoint=False)
            cost = _gamma_np(grid) if mode == "exact_gamma" else 0.5 * grid
            approx = tb._total(n, dv - cost, grid, mode, np.exp)
            exact = np.array([tb._total(n, dv - tb._cost(t, mode), t, mode)
                              for t in grid.tolist()])
            bound = (2.1e-12 + 4.4e-12 * math.sqrt(n)) * exact + 2.3e-300
            worst = max(worst, float(np.max(np.abs(approx - exact) / bound)))
        assert 0.0 < worst < 0.01


def _plain_t_max(dv, mode):
    # the t_max bisection with every step's verdict evaluated
    if dv >= 0.5:
        return 1.0 - 1e-12
    return _bisect(lambda t: tb._cost(t, mode) < dv, 0.0, 1.0 - 1e-12, 1e-12)[0]


def _count_costs(monkeypatch):
    calls = []
    cost = tb._cost
    monkeypatch.setattr(tb, "_cost", lambda t, mode: calls.append(t) or cost(t, mode))
    return calls


# the exact-mode root band's edges: 2^-40 ~ 9.1e-13 is the band, 2^-44 the
# certificate's offset; budgets near 2.4e-13 put the root at the last bisection
# step, the ones past gamma(1 - 1e-12) ~ 0.5 - 3.0e-12 put it beyond the range
_T_MAX_EDGES = [5e-324, 1e-300, 1e-20, 1e-13, 2.2e-13, 2.3e-13, 2.4e-13, 2.5e-13,
                math.nextafter(2.4e-13, 0.0), math.nextafter(2.4e-13, 1.0), 2.0 ** -40,
                2.0 ** -44, 1e-12, 1e-9, 0.02, 0.25, 0.45, 0.4999, 0.4999999, 0.49999999999,
                0.4999999999969817, 0.4999999999999, math.nextafter(0.5, 0.0), 0.5]


class TestCertifiedTMax:
    @settings(max_examples=200)
    @given(st.floats(5e-324, 0.5), st.sampled_from(["exact_gamma", "corollary"]))
    def test_equals_plain_bisection(self, dv, mode):
        assert tb._t_max(dv, mode).hex() == _plain_t_max(dv, mode).hex()

    @pytest.mark.parametrize("mode", ["exact_gamma", "corollary"])
    @pytest.mark.parametrize("dv", _T_MAX_EDGES)
    def test_equals_plain_bisection_at_edges(self, dv, mode):
        assert tb._t_max(dv, mode).hex() == _plain_t_max(dv, mode).hex()

    def test_t_max_zero_branch(self):
        # every step's verdict is false below the least mid's gamma, about 2.2e-13
        for dv in (5e-324, 1e-13):
            assert tb._t_max(dv, "exact_gamma") == _plain_t_max(dv, "exact_gamma") == 0.0
        assert tb._best_split(1000, [1e-13], "exact_gamma") == \
            [(1e-13, 0.0, tb._total(1000, 1e-13, 0.0, "exact_gamma"))]

    def test_corollary_mode_makes_no_cost_call(self, monkeypatch):
        calls = _count_costs(monkeypatch)
        for dv in np.geomspace(5e-324, 0.5, 200).tolist():
            tb._t_max(dv, "corollary")
        assert calls == []

    def test_exact_mode_evaluates_few_steps(self, monkeypatch):
        # Newton's steps, the two certificate calls and the steps inside the band;
        # the plain bisection makes 40
        calls = _count_costs(monkeypatch)
        worst = 0
        for dv in np.geomspace(1e-9, 0.45, 400).tolist():
            calls.clear()
            tb._t_max(dv, "exact_gamma")
            worst = max(worst, len(calls))
        assert worst <= 11

    def test_uncertified_root_evaluates_every_step(self, monkeypatch):
        # a stalled Newton leaves r at dv / TANGENT_SLOPE, right of the root, so the
        # lower certificate fails and every step is evaluated
        monkeypatch.setattr(tb, "_f_minus_prime", lambda t: 1e300)
        calls = _count_costs(monkeypatch)
        assert tb._t_max(0.02, "exact_gamma") == _plain_t_max(0.02, "exact_gamma")
        assert len(calls) >= 40


class TestBatchedSplit:
    def test_rows_equal_float_calls_over_several_blocks(self):
        # three filter blocks and a partial one, t_max == 0 rows and budgets past 1/2
        rng = np.random.default_rng(24)
        per_block = tb._FILTER_BLOCK // tb._GRID_POINTS
        dvs = 10.0 ** rng.uniform(-14.0, 0.1, 3 * per_block + 7)
        dvs[:3] = (1e-13, 0.75, 0.5)
        for n, mode in ((1000, "exact_gamma"), (2**64 - 1, "corollary"), (3, "exact_gamma")):
            got = tb._best_split(n, dvs.tolist(), mode)
            assert len(got) == dvs.size
            for dv, split in zip(dvs.tolist(), got):
                assert [v.hex() for v in split] == \
                    [v.hex() for v in tb._best_split(n, [dv], mode)[0]]

    def test_filter_holds_one_block_at_a_time(self, monkeypatch):
        sizes = []
        total = tb._total
        monkeypatch.setattr(tb, "_total", lambda *a: (
            sizes.append(a[2].size) if isinstance(a[2], np.ndarray) else None) or total(*a))
        tb._best_split(100, np.linspace(0.01, 0.2, 150).tolist(), "exact_gamma")
        assert sizes == [tb._FILTER_BLOCK, tb._FILTER_BLOCK, 22 * tb._GRID_POINTS]

    def test_p_value_bound_array(self):
        ks = np.array([[0.01, 0.02, 1.0], [1e-6, 0.3, 0.05]])
        got = p_value_bound(1000, ks)
        assert got.shape == ks.shape
        assert [v.hex() for v in got.ravel().tolist()] == \
            [p_value_bound(1000, k).hex() for k in ks.ravel().tolist()]
        assert p_value_bound(1000, [0.05]).tolist() == [p_value_bound(1000, 0.05)]
        assert p_value_bound(1000, np.array([])).shape == (0,)
        # a 0-d array is priced as its scalar and returns the same float
        zero_d = p_value_bound(1000, np.array(0.02))
        assert type(zero_d) is float and zero_d.hex() == p_value_bound(1000, 0.02).hex()

    @pytest.mark.parametrize("bad", [[0.1, 0.0], [0.2, 1.5], [math.nan], ["0.1"], [True]])
    def test_p_value_bound_array_domain(self, bad):
        with pytest.raises(DomainError, match="observed KS statistic"):
            p_value_bound(1000, bad)


class TestPValueBound:
    def test_strong_rejection_regime(self):
        assert p_value_bound(10_000, 0.05) <= 0.01

    def test_clamped_at_one(self):
        assert p_value_bound(100, 1e-6) == 1.0

    def test_monotone_nonincreasing(self):
        values = [p_value_bound(2000, float(d)) for d in np.linspace(0.005, 0.5, 60)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    # each call runs a split search of about 2 ms, so the example counts stay small
    @settings(max_examples=40)
    @given(st.integers(1, 10**9), st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
    def test_nonincreasing_in_observed_ks(self, n, a, b):
        lo, hi = sorted((a, b))
        assert p_value_bound(n, lo) >= p_value_bound(n, hi)

    @settings(max_examples=40)
    @given(st.integers(1, 10**9), st.integers(1, 10**9), st.floats(1e-9, 1.0))
    def test_nonincreasing_in_dimension(self, a, b, ks):
        lo, hi = sorted((a, b))
        assert p_value_bound(lo, ks) >= p_value_bound(hi, ks)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            p_value_bound(100, bad)


# every count and key, as (call, an in-range int)
COUNTS = {
    "N": (lambda v: lm_upper(v, 1.0), 10),
    "trials": (lambda v: run_dkw_trials(10, v, 0, 0.5), 100),
    "seed": (lambda v: run_dkw_trials(10, 100, v, 0.5), 10),
    "stream_id": (lambda v: gaussian_vector(3, RngStream(0, v)), 10),
    "grid_steps": (lambda v: verify_lemmas(grid_steps=v, scope="lemmas"), 100),
    "grid_points": (lambda v: gamma_oracle(0.5, grid_points=v), 1000),
    "wilson_interval.count": (lambda v: wilson_interval(v, 10), 5),
    "wilson_interval.trials": (lambda v: wilson_interval(5, v), 10),
}

# every array entry point, as (call, an accepted int array)
ARRAYS = {
    "std_normal_cdf": (std_normal_cdf, [-1, 0, 2]),
    "phi_deformed.x": (lambda a: phi_deformed(a, 0.5, "plus"), [-1, 0, 2]),
    "phi_deformed.t": (lambda a: phi_deformed(0.5, a, "plus"), [0, 0]),
    "g_plus": (g_plus, [0, 0]),
    "g_minus": (g_minus, [0, 0]),
    "gamma_oracle": (gamma_oracle, [0, 0]),
    "lambda_of": (lambda_of, [1, -2, 3]),
    "build_ecdf": (build_ecdf, [3, -1, 2]),
    "EmpiricalCdfView": (EmpiricalCdfView, [-1, 2, 3]),
    "EmpiricalCdfView.evaluate": (build_ecdf([0.5, 1.5]).evaluate, [-1, 0, 2]),
    "SphereSample": (lambda a: SphereSample(a, 1.0, 1.0), [1]),
}

# every string option, as (call, its choices, the message for a wrong str)
CHOICES = {
    "phi_deformed": (lambda c: phi_deformed(0.5, 0.2, c), ("plus", "minus"),
                     "sign must be 'plus' or 'minus', got 'PLUS'"),
    "gamma_oracle": (lambda c: gamma_oracle(0.5, side=c), ("plus", "minus"),
                     "side must be 'plus' or 'minus', got 'PLUS'"),
    "secant_interval": (lambda c: secant_interval(0.4, c), ("gamma_upper", "gplus_lower"),
                        "which must be 'gamma_upper' or 'gplus_lower', got 'GAMMA_UPPER'"),
    "optimize_split": (lambda c: optimize_split(100, 0.1, c), ("exact_gamma", "corollary"),
                       "mode must be 'exact_gamma' or 'corollary', got 'EXACT_GAMMA'"),
    "verify_lemmas": (lambda c: verify_lemmas(100, scope=c), ("lemmas", "appendix", "all"),
                      "scope must be 'lemmas', 'appendix' or 'all', got 'LEMMAS'"),
}


class TestTypes:
    def test_bound_inputs_validation(self):
        with pytest.raises(DomainError):
            BoundInputs(0, 0.1, 0.1)
        with pytest.raises(DomainError):
            BoundInputs(10, -0.1, 0.1)
        with pytest.raises(DomainError):
            BoundInputs(10, 0.1, 1.0)

    def test_breakdown_sum_invariant(self):
        with pytest.raises(DomainError):
            BoundBreakdown(dkw_term=0.1, gplus_term=0.1, gminus_term=0.1,
                           total=0.5, threshold=0.2)

    @pytest.mark.parametrize("bad", ["0.1", None, math.nan, math.inf])
    def test_real_domain(self, bad):
        # every real argument is refused alike when it is not a finite number:
        # strings are never converted and None never escapes as TypeError
        ecdf = build_ecdf([0.1, 0.2, 0.3])
        calls = [lambda: dkw_bound(100, bad), lambda: lm_upper(10, bad),
                 lambda: chisq_tail_lower(10, bad), lambda: p_value_bound(10, bad),
                 lambda: optimize_split(100, bad), lambda: wilson_interval(5, 10, bad),
                 lambda: x_plus(bad), lambda: f_minus(bad), lambda: g_plus(bad),
                 lambda: secant_interval(bad, "gamma_upper"),
                 lambda: secant_interval(bad, "gplus_lower"),
                 lambda: rescale_cdf(ecdf, bad)]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    def test_real_domain_messages(self):
        with pytest.raises(DomainError, match=r"^epsilon must be a finite real, got None$"):
            dkw_bound(100, None)
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\], got 1\.5$"):
            p_value_bound(10, 1.5)
        with pytest.raises(DomainError, match=r"must lie in \[10, inf\), got 9$"):
            chisq_tail_upper(10, 9)
        # an int beyond the float range is refused, not an OverflowError
        with pytest.raises(DomainError, match="finite real"):
            lm_upper(10, 10**400)
        assert dkw_bound(100, np.float32(0.25)) == dkw_bound(100, 0.25)

    def test_ints_beyond_64_bits_refused_alike(self):
        # numpy stores an int outside [-2^63, 2^64) only in an object array, which
        # array arguments refuse, so scalar arguments refuse it too
        for call in (lambda: std_normal_cdf(10**20), lambda: phi_deformed(10**20, 0.5, "plus"),
                     lambda: dkw_bound(100, 10**20), lambda: check_real(-2**63 - 1, "x")):
            with pytest.raises(DomainError, match="finite real"):
                call()
        with pytest.raises(DomainError, match="must be a finite real"):
            dkw_bound(100, 10**400)
        with pytest.raises(DomainError, match="must hold finite reals"):
            std_normal_cdf(10**400)
        # both ends of the 64-bit range are taken by both rules
        assert dkw_bound(100, 2**64 - 1) == 0.0 and std_normal_cdf(2**64 - 1) == 1.0
        assert dkw_bound(2**64 - 1, 0.1) == 0.0  # so does the count rule
        assert check_real(-2**63, "x") == -2.0**63 and std_normal_cdf(-2**63) == 0.0

    # a bool is refused for its type, never read as 0 or 1
    @pytest.mark.parametrize("call", [
        lambda b: gamma_closed(b), lambda b: dkw_bound(100, b),
        lambda b: check_int(b, "N", 0), lambda b: RngStream(b), lambda b: RngStream(0, b),
        lambda b: g_plus(b), *(COUNTS[name][0] for name in COUNTS)],
        ids=["gamma_closed", "dkw_bound", "check_int", "RngStream.seed",
             "RngStream.stream_id", "g_plus", *COUNTS])
    @pytest.mark.parametrize("b", [True, False, np.True_, np.False_],
                             ids=["True", "False", "np.True_", "np.False_"])
    def test_bools_refused(self, call, b):
        with pytest.raises(DomainError):
            call(b)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "10", math.inf, None, 10.0, True,
                                     pytest.param(2**64, id="2**64"),
                                     pytest.param(10**400, id="10**400")])
    def test_dimension_domain(self, bad):
        calls = [lambda: dkw_bound(bad, 0.1), lambda: optimize_split(bad, 0.1),
                 lambda: p_value_bound(bad, 0.1), lambda: lm_upper(bad, 1.0),
                 lambda: gaussian_vector(bad, RngStream(0)),
                 lambda: TrialConfig(bad, 100, 0, 0.1, 0.1)]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("name", list(COUNTS))
    def test_count_and_key_domain(self, name):
        # counts and keys take ints in [lo, 2^64) only: an integral float such
        # as 10.0 is refused even where its value is in range, as are bools and
        # strings
        call, ok = COUNTS[name]
        call(ok)
        call(np.int64(ok))
        for bad in (-1, 10.0, float(ok), True, "10", None, math.inf, 2**64):
            with pytest.raises(DomainError):
                call(bad)

    # a count that sizes an array stops at SIZE_MAX = 2^53, so a larger one is
    # refused before numpy is asked for the array; counts that only enter
    # formulas keep [1, 2^64)
    @pytest.mark.parametrize("call", [
        lambda v: gaussian_vector(v, RngStream(0)), lambda v: run_dkw_trials(v, 100, 0, 0.5),
        lambda v: run_dkw_trials(10, v, 0, 0.5), lambda v: TrialConfig(v, 100, 0, 0.1, 0.1),
        lambda v: verify_lemmas(grid_steps=v), lambda v: gamma_oracle(0.5, grid_points=v)],
        ids=["gaussian_vector.N", "N", "trials", "TrialConfig.N", "grid_steps", "grid_points"])
    @pytest.mark.parametrize("bad", [SIZE_MAX + 1, 2**63, 2**64 - 1])
    def test_array_size_domain(self, call, bad):
        with pytest.raises(DomainError, match=rf"must lie in \[\d+, {SIZE_MAX}\], got {bad}$"):
            call(bad)

    @pytest.mark.parametrize("name", list(CHOICES))
    @pytest.mark.parametrize("bad", ["two-entry array", "one-entry array", "None", "int",
                                     "bytes", "wrong str"])
    def test_choice_domain(self, name, bad):
        # a string option is a str among its choices: an array, even one holding
        # a valid choice, is refused, never compared entry by entry or converted
        call, choices, message = CHOICES[name]
        value = {"two-entry array": np.array(choices[:2]),
                 "one-entry array": np.array(choices[:1]), "None": None, "int": 1,
                 "bytes": choices[0].encode(), "wrong str": choices[0].upper()}[bad]
        with pytest.raises(DomainError) as info:
            call(value)
        if bad == "wrong str":
            assert str(info.value) == message

    @pytest.mark.parametrize("name", list(ARRAYS))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "str", "str array", "None",
                                     "bool array", "object array"])
    def test_array_domain(self, name, bad):
        # every array argument follows check_real's rule entry by entry
        call, ok = ARRAYS[name]
        value = {"str": "0.5", "str array": np.array(ok).astype(str), "None": None,
                 "bool array": np.array(ok, dtype=bool),
                 "object array": np.array(ok, dtype=object)}.get(bad, np.array(ok, dtype=float))
        if bad in ("nan", "inf", "-inf"):
            value[0 if bad == "-inf" else -1] = float(bad)  # a sorted sample stays sorted
        with pytest.raises(DomainError):
            call(value)

    @pytest.mark.parametrize("name", list(ARRAYS))
    def test_array_dtypes_accepted(self, name):
        # int and float32 arrays are read as the float64 values they hold
        call, ok = ARRAYS[name]
        want = repr(call(np.array(ok, dtype=np.float64)))
        assert repr(call(np.array(ok))) == want
        assert repr(call(np.array(ok, dtype=np.float32))) == want
