"""Three-term bound, chi-square tails, and the (epsilon, t) split optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecdf import (BoundBreakdown, BoundInputs, DeformationParam, DomainError,
                       RngStream, build_ecdf, chisq_tail_lower, chisq_tail_upper,
                       corollary_bound, dkw_bound, f_minus, g_minus, g_plus,
                       gamma_closed, lambda_concentration_bound, lm_lower,
                       lm_upper, optimize_split, p_value_bound, rescale_cdf,
                       secant_interval, theorem_bound, wilson_interval, x_plus)
from spherecdf.errors import check_int

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

    # a bool is refused for its type, never read as 0 or 1
    @pytest.mark.parametrize("call", [
        lambda b: DeformationParam(b), lambda b: dkw_bound(100, b),
        lambda b: check_int(b, "N", 0), lambda b: RngStream(b), lambda b: RngStream(0, b),
        lambda b: g_plus(b)], ids=["DeformationParam", "dkw_bound", "check_int",
                                   "RngStream.seed", "RngStream.stream_id", "g_plus"])
    @pytest.mark.parametrize("b", [True, False, np.True_, np.False_],
                             ids=["True", "False", "np.True_", "np.False_"])
    def test_bools_refused(self, call, b):
        with pytest.raises(DomainError):
            call(b)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "10", math.inf, None])
    def test_dimension_domain(self, bad):
        with pytest.raises(DomainError):
            dkw_bound(bad, 0.1)
        with pytest.raises(DomainError):
            optimize_split(bad, 0.1)
