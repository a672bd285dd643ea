"""Empirical CDF construction, exact KS distance, rescaling, tube inflation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from spherecdf import (DomainError, EmpiricalCdfView, build_ecdf,
                       check_tube_inflation, gamma_closed, gaussian_vector,
                       ks_to_normal, rescale_cdf, std_normal_cdf, RngStream)
from spherecdf import empirical
from spherecdf.empirical import _ks_statistics

# pinned against mpmath.ncdf at 40 digits: 0.5 - Phi(-1)
PM1_STAT = 0.3413447460685429

samples = st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                   min_size=1, max_size=40)


def brute_force_ks(values, grid):
    """Grid-supremum oracle, strictly below the exact statistic."""
    view = build_ecdf(values)
    return float(np.abs(view.evaluate(grid) - std_normal_cdf(grid)).max())


class TestBuildEcdf:
    def test_single_point_steps(self):
        view = build_ecdf([0.0])
        assert view.evaluate(-1e-9) == 0.0
        assert view.evaluate(0.0) == 1.0
        assert view.evaluate(5.0) == 1.0

    def test_ties_stack(self):
        view = build_ecdf([1.0, 1.0, 1.0])
        assert view.evaluate(1.0 - 1e-12) == 0.0
        assert view.evaluate(1.0) == 1.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=500)
        view = build_ecdf(values)
        for x in rng.uniform(-3, 3, size=100):
            assert view.evaluate(float(x)) == np.mean(values <= x)

    def test_validation(self):
        with pytest.raises(DomainError, match=r"^an empirical CDF needs a nonempty 1-D sample$"):
            build_ecdf([])
        with pytest.raises(DomainError, match=r"^sample values must lie in \(-inf, inf\)"):
            build_ecdf([1.0, math.nan])
        with pytest.raises(DomainError, match=r"^sample values must hold finite reals"):
            build_ecdf(["1.0"])
        with pytest.raises(DomainError, match=r"^values must be sorted ascending"):
            EmpiricalCdfView(np.array([2.0, 1.0]))
        with pytest.raises(DomainError, match="1-D sample"):
            build_ecdf(np.ones((2, 2)))

    def test_sample_validated_once(self, monkeypatch):
        # the sorted copy build_ecdf makes is not checked a second time
        seen = []
        real = empirical.check_reals
        monkeypatch.setattr(empirical, "check_reals", lambda *a: seen.append(a[1]) or real(*a))
        view = build_ecdf([3, 1, 2])
        assert seen == ["sample values"]
        assert view.sorted_values.tolist() == [1.0, 2.0, 3.0]
        assert view.sorted_values.dtype == np.float64

    def test_equality_is_identity(self):
        # the generated field-by-field == compared ndarrays and raised
        a, b = build_ecdf([1.0, 3.0]), build_ecdf([1.0, 3.0])
        assert (a == b) is False and (a == a) is True
        assert len({a, b}) == 2

    def test_view_is_immutable(self):
        view = build_ecdf([3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            view.sorted_values[0] = 0.0


# arguments that are not an EmpiricalCdfView: a sample that skipped build_ecdf
NOT_A_VIEW = [np.array([0.1, 0.2]), [0.1, 0.2], None]


class TestKsToNormal:
    @pytest.mark.parametrize("bad", NOT_A_VIEW)
    def test_view_must_be_a_record(self, bad):
        with pytest.raises(DomainError, match="^ks_to_normal expects an EmpiricalCdfView$"):
            ks_to_normal(bad)

    def test_single_sample_at_origin(self):
        r = ks_to_normal(build_ecdf([0.0]))
        assert r.statistic == 0.5
        assert r.argmax_location == 0.0

    def test_symmetric_pair(self):
        # enumeration oracle: gaps are {1/2 - Phi(-1), Phi(-1), 1 - Phi(1), Phi(1) - 1/2}
        r = ks_to_normal(build_ecdf([-1.0, 1.0]))
        assert abs(r.statistic - PM1_STAT) <= 1e-15
        assert r.argmax_location == -1.0
        assert r.side == "upper"

    def test_enumeration_oracle_small_samples(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(1, 15)))
            srt = np.sort(values)
            n = len(srt)
            gaps = []
            for i, x in enumerate(srt, start=1):
                gaps.append(i / n - std_normal_cdf(float(x)))
                gaps.append(std_normal_cdf(float(x)) - (i - 1) / n)
            assert abs(ks_to_normal(build_ecdf(values)).statistic - max(gaps)) <= 1e-15

    def test_grid_oracle_brackets_exact(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(-8.0, 8.0, 100_001)
        modulus = 0.4 * (16.0 / 100_000)  # max CDF increment per grid cell
        for _ in range(20):
            values = rng.normal(size=int(rng.integers(1, 20)))
            exact = ks_to_normal(build_ecdf(values)).statistic
            approx = brute_force_ks(values, grid)
            assert approx <= exact <= approx + modulus

    @given(st.permutations(list(range(12))))
    def test_permutation_invariance(self, perm):
        base = np.linspace(-2.0, 2.0, 12)[np.array(perm)]
        a = ks_to_normal(build_ecdf(base))
        b = ks_to_normal(build_ecdf(np.sort(base)))
        assert a == b


class TestBatchedKs:
    @staticmethod
    def check(matrix):
        # the kernel sorts a copy and leaves its argument unchanged
        values = matrix.copy()
        stats = _ks_statistics(values)
        expected = [ks_to_normal(build_ecdf(row)).statistic for row in matrix]
        assert stats.tolist() == expected
        assert np.array_equal(values, matrix)

    def test_random_rows(self):
        rng = np.random.default_rng(4)
        for n in (2, 7, 100, 1000):
            self.check(rng.normal(size=(9, n)) * rng.uniform(0.5, 2.0, size=(9, 1)))

    def test_ties(self):
        self.check(np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [-3.0, 2.0, -3.0],
                             [0.5, 0.5, 0.5]]))

    def test_single_sample(self):
        # N = 1: statistic max(1 - Phi(x), Phi(x)), 1/2 at the origin
        self.check(np.array([[0.0], [-2.5], [1.0], [40.0], [-40.0]]))
        assert _ks_statistics(np.array([[0.0]])).tolist() == [0.5]

    def test_rows_at_the_floor(self):
        # Phi(x_(i)) = (i - 1/2)/N up to rounding puts the statistic at 1/(2N)
        for n in (1, 10, 1000, 10_000):
            row = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
            stats = _ks_statistics(np.stack([row[::-1], row]))
            assert abs(stats[0] - 0.5 / n) <= 1e-15 and stats[0] == stats[1]
            self.check(np.stack([row[::-1], row]))


class TestRescale:
    def test_identity(self):
        view = build_ecdf([-1.0, 0.5, 2.0])
        assert np.array_equal(rescale_cdf(view, 1.0).sorted_values, view.sorted_values)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=-5.0, max_value=5.0))
    def test_evaluation_identity(self, lam, x):
        view = build_ecdf(np.linspace(-2.0, 2.0, 9))
        assert rescale_cdf(view, lam).evaluate(x * lam) == view.evaluate(x)

    def test_matches_direct_construction(self):
        z = gaussian_vector(400, RngStream(5, 1))
        lam = 1.07
        via_rescale = ks_to_normal(rescale_cdf(build_ecdf(z), lam)).statistic
        direct = ks_to_normal(build_ecdf(lam * z)).statistic
        assert abs(via_rescale - direct) <= 1e-15

    def test_overflow_is_a_domain_error(self):
        # 1e308 * 10 overflows: the caller gets a DomainError, not numpy's warning
        with pytest.raises(DomainError, match="inf"):
            rescale_cdf(build_ecdf([1.0, 1e308]), 10.0)

    @pytest.mark.parametrize("bad", NOT_A_VIEW)
    def test_view_must_be_a_record(self, bad):
        with pytest.raises(DomainError, match="^rescale_cdf expects an EmpiricalCdfView$"):
            rescale_cdf(bad, 2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            rescale_cdf(build_ecdf([1.0]), bad)
        with pytest.raises(DomainError):
            check_tube_inflation(build_ecdf([1.0]), bad, 0.1, 0.1)
        with pytest.raises(DomainError):
            check_tube_inflation(build_ecdf([1.0]), 1.0, bad, 0.1)


class TestTubeInflation:
    @pytest.mark.parametrize("bad", NOT_A_VIEW)
    def test_view_must_be_a_record(self, bad):
        with pytest.raises(DomainError, match="^ks_to_normal expects an EmpiricalCdfView$"):
            check_tube_inflation(bad, 1.0, 0.5, 0.1)

    def test_unit_scale_reduces_to_hypothesis(self):
        view = build_ecdf(gaussian_vector(100, RngStream(2, 0)))
        eps = ks_to_normal(view).statistic + 0.01
        assert check_tube_inflation(view, 1.0, eps, 0.0)

    @settings(max_examples=200)
    @given(samples,
           st.floats(min_value=0.001, max_value=0.95),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.3))
    def test_randomized_property(self, values, t, lam_frac, slack):
        view = build_ecdf(values)
        eps = ks_to_normal(view).statistic + slack + 1e-9
        lam = (1.0 - t) + lam_frac * 2.0 * t  # anywhere in [1-t, 1+t]
        assert check_tube_inflation(view, lam, eps, t)

    @pytest.mark.parametrize("t", [0.05, 0.3, 0.8])
    def test_boundary_scales(self, t):
        view = build_ecdf(gaussian_vector(64, RngStream(6, 3)))
        eps = ks_to_normal(view).statistic + 1e-12
        assert check_tube_inflation(view, 1.0 + t, eps, t)
        assert check_tube_inflation(view, 1.0 - t, eps, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, "0.1", None])
    def test_tol_domain(self, bad):
        view = build_ecdf([-0.5, 0.0, 0.5])
        with pytest.raises(DomainError, match="tol"):
            check_tube_inflation(view, 1.0, 0.5, 0.1, tol=bad)
        assert check_tube_inflation(view, 1.0, 0.5, 0.1, tol=0.0)

    def test_vacuous_when_hypotheses_fail(self):
        view = build_ecdf([50.0, 60.0])  # nowhere near the Gaussian
        assert check_tube_inflation(view, 1.5, 1e-6, 0.1)

    def test_conclusion_observable(self):
        # with hypotheses met, the rescaled distance really is within the tube
        view = build_ecdf(gaussian_vector(200, RngStream(4, 4)))
        d0 = ks_to_normal(view).statistic
        t, lam = 0.2, 1.15
        inflated = ks_to_normal(rescale_cdf(view, lam)).statistic
        assert inflated <= d0 + gamma_closed(t).gamma + 1e-12

    def test_chained_cdf_inequality(self):
        rng = np.random.default_rng(12)
        xs = np.linspace(-8.0, 8.0, 401)
        base = std_normal_cdf(xs)
        for _ in range(50):
            t = float(rng.uniform(0.01, 0.99))
            lam = float(rng.uniform(1.0 - t, 1.0 + t))
            g = gamma_closed(t).gamma
            mid = std_normal_cdf(xs / lam)
            assert np.all(mid <= base + g + 1e-12)
            assert np.all(mid >= base - g - 1e-12)
