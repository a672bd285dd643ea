"""Deformed-CDF family: gap function, critical points, auxiliary derivatives.

Expected values carry their oracle: high-precision CDF values were pinned from
a 40-digit erf evaluation (mpmath), suprema from the in-suite grid oracle, and
derivatives are checked against finite differences computed here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spherecdf import (BoundInputs, DeformationParam, DomainError,
                       GapEvaluation, TANGENT_SLOPE, alpha, alpha_prime,
                       f_minus, f_minus_prime, f_plus, gamma_closed,
                       gamma_oracle, lambda_concentration_bound, phi_deformed,
                       run_lambda_trials, secant_interval, std_normal_cdf,
                       x_minus, x_plus)
from spherecdf.deformation import _log1p_over, _log1p_over_prime

# pinned against mpmath.ncdf at 40 digits
PHI_1 = 0.8413447460685429
PHI_2 = 0.9772498680518208
# pinned from the grid-sup oracle (grid_points=200001, refine 1e-12)
GAMMA_HALF = 0.1613372844173843

finite_floats = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
t_values = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_limit(self):
        assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15

    def test_erf_oracle_value(self):
        assert abs(std_normal_cdf(1.0) - PHI_1) <= 1e-15

    @given(finite_floats)
    def test_reflection(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-12.0, 12.0, 4001)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


class TestPhiDeformed:
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
    def test_zero_pins_half(self, t):
        assert phi_deformed(0.0, t, "plus") == 0.5
        assert phi_deformed(0.0, t, "minus") == 0.5

    def test_identity_at_t_zero(self):
        xs = np.linspace(-6.0, 6.0, 101)
        for sign in ("plus", "minus"):
            assert np.array_equal(phi_deformed(xs, 0.0, sign), std_normal_cdf(xs))

    def test_direct_value(self):
        # Phi(1 / (1 - 0.5)) = Phi(2)
        assert abs(phi_deformed(1.0, 0.5, "plus") - PHI_2) <= 1e-15

    @given(t_values)
    def test_nondecreasing_in_x(self, t):
        xs = np.linspace(-10.0, 10.0, 801)
        for sign in ("plus", "minus"):
            assert np.all(np.diff(phi_deformed(xs, t, sign)) >= 0.0)

    @given(finite_floats, st.floats(min_value=0.0, max_value=0.99))
    def test_pointwise_reflection(self, x, t):
        lhs = phi_deformed(x, t, "plus") - std_normal_cdf(x)
        rhs = std_normal_cdf(-x) - phi_deformed(-x, t, "minus")
        assert abs(lhs - rhs) <= 1e-14

    def test_envelope_brackets_rescalings(self):
        rng = np.random.default_rng(7)
        xs = np.linspace(-8.0, 8.0, 401)
        for _ in range(50):
            t = float(rng.uniform(0.01, 0.99))
            lam = float(rng.uniform(1.0 - t, 1.0 + t))
            mid = std_normal_cdf(xs / lam)
            assert np.all(phi_deformed(xs, t, "minus") <= mid + 1e-14)
            assert np.all(mid <= phi_deformed(xs, t, "plus") + 1e-14)

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            phi_deformed(1.0, 0.5, "up")


class TestCriticalPoints:
    def test_small_t_limits(self):
        assert abs(x_plus(1e-12) - 1.0) <= 1e-9
        assert abs(x_minus(1e-12) + 1.0) <= 1e-9

    def test_half_values(self):
        # direct evaluation of the closed forms at 40 digits
        assert abs(x_plus(0.5) - 0.6797779934458726) <= 1e-15
        assert abs(x_minus(0.5) + 1.2081698511340993) <= 1e-14

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_x_plus_is_critical(self, t):
        # derivative of the gap curve vanishes there (finite-difference oracle)
        xp = x_plus(t)

        def d(x):
            return phi_deformed(x, t, "plus") - std_normal_cdf(x)

        h = 1e-6
        assert abs((d(xp + h) - d(xp - h)) / (2 * h)) <= 1e-7

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_x_minus_is_local_max(self, t):
        xm = x_minus(t)

        def d(x):
            return phi_deformed(x, t, "plus") - std_normal_cdf(x)

        assert d(xm) > d(xm - 1e-3)
        assert d(xm) > d(xm + 1e-3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            x_plus(bad)
        with pytest.raises(DomainError):
            x_minus(bad)


class TestGamma:
    def test_zero(self):
        g = gamma_closed(0.0)
        assert g.gamma == 0.0
        assert math.isnan(g.maximizer_x)

    def test_approaches_half(self):
        assert gamma_closed(0.999999).gamma > 0.4995
        assert gamma_closed(0.999999).gamma < 0.5

    def test_pinned_sup(self):
        assert abs(gamma_closed(0.5).gamma - GAMMA_HALF) <= 1e-12
        assert abs(gamma_oracle(0.5) - GAMMA_HALF) <= 1e-12

    def test_oracle_at_zero(self):
        assert gamma_oracle(0.0) <= 1e-10

    def test_oracle_cross_validation(self):
        for t in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert abs(gamma_closed(t).gamma - gamma_oracle(t)) <= 1e-7

    def test_oracle_terminates_at_zero_tolerance(self):
        # the refinement bracket stalls at one ulp instead of reaching width 0
        assert abs(gamma_oracle(0.5, refine_tolerance=0.0) - gamma_closed(0.5).gamma) <= 1e-7

    def test_oracle_minus_side_symmetry(self):
        for t in (0.05, 0.3, 0.6, 0.9):
            assert abs(gamma_oracle(t) - gamma_oracle(t, side="minus")) <= 1e-9

    def test_below_half_t(self):
        ts = np.linspace(0.0, 0.999, 500)
        for t in ts:
            assert gamma_closed(float(t)).gamma <= 0.5 * t + 1e-12

    def test_maximizer_reported(self):
        g = gamma_closed(0.5)
        assert g.maximizer_x == x_plus(0.5)

    def test_oracle_grid_validation(self):
        with pytest.raises(DomainError):
            gamma_oracle(0.5, grid_points=100)

    def test_oracle_lanes_match_scalar_calls(self):
        # 40 t span three 16-t scan blocks; each lane must equal its own scalar call
        ts = np.concatenate([[0.0, 1.0 - 1e-12], np.linspace(0.003, 0.997, 38)])
        for tol in (1e-10, 0.0):
            for side in ("plus", "minus"):
                got = gamma_oracle(ts, refine_tolerance=tol, side=side)
                assert got.tolist() == [gamma_oracle(t, refine_tolerance=tol, side=side)
                                        for t in ts.tolist()]
        assert gamma_oracle(ts.reshape(4, 10)).tolist() == gamma_oracle(ts).reshape(4, 10).tolist()

    def test_oracle_scalar_and_empty_forms(self):
        assert type(gamma_oracle(0.5)) is float
        assert gamma_oracle(DeformationParam(0.5)) == gamma_oracle(0.5)
        assert gamma_oracle(np.array([0.5])).tolist() == [gamma_oracle(0.5)]
        empty = gamma_oracle(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.0])
    def test_oracle_domain(self, bad):
        for t in (bad, np.array([0.2, bad])):
            with pytest.raises(DomainError, match=r"t must lie in \[0, 1\)"):
                gamma_oracle(t)

    def test_param_type_accepted(self):
        assert gamma_closed(DeformationParam(0.5)).gamma == gamma_closed(0.5).gamma

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, "0.1", None])
    def test_oracle_refine_tolerance_domain(self, bad):
        # a nan tolerance would skip the refinement and return the coarse maximum
        with pytest.raises(DomainError, match="refine_tolerance"):
            gamma_oracle(0.5, refine_tolerance=bad)

    def test_oracle_bad_side(self):
        with pytest.raises(DomainError, match="side must be"):
            gamma_oracle(0.5, side="up")


def _switch_points(signs):
    """The 1e-4 and 1e-3 series switches, +-1 ulp and +-k*1e6 ulp around each."""
    out = []
    for edge in (1e-4, 1e-3):
        for base in (s * edge for s in signs):
            ulp = math.ulp(base)
            out += [base, math.nextafter(base, 1.0), math.nextafter(base, -1.0)]
            out += [base + s * k * 1e6 * ulp for k in (1, 10, 100, 1000) for s in (1, -1)]
    return out


def _mp_x_plus(mp, t):
    t = mp.mpf(t)
    return mp.sqrt(2 * (1 - t) ** 2 / (2 - t) * (mp.log1p(-t) / -t))


class TestSeriesSwitches:
    """40-digit mpmath values on both sides of every series switch.

    Each tolerance is the worst error measured at these points, rounded up.
    _log1p_over_prime loses about 3,000 ulp just outside its 1e-3 window,
    where the direct quotient cancels.
    """

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            yield mpmath

    def test_log1p_over_within_one_ulp(self, mp):
        for u in _switch_points((1, -1)):
            ref = mp.log1p(u) / u
            assert abs(_log1p_over(u) - ref) <= math.ulp(float(ref))

    def test_x_plus_within_one_ulp(self, mp):
        for t in [*_switch_points((1,)), 1.0 - 1e-12]:
            ref = _mp_x_plus(mp, t)
            assert abs(x_plus(t) - ref) <= math.ulp(float(ref))

    def test_gamma_closed_absolute(self, mp):
        for t in _switch_points((1,)):
            xp = _mp_x_plus(mp, t)
            ref = mp.ncdf(xp / (1 - mp.mpf(t))) - mp.ncdf(xp)
            assert abs(gamma_closed(t).gamma - ref) <= 5e-16

    def test_log1p_over_prime_relative(self, mp):
        for u in _switch_points((1, -1)):
            u_mp = mp.mpf(u)
            ref = (1 / (1 + u_mp) - mp.log1p(u_mp) / u_mp) / u_mp
            assert abs(_log1p_over_prime(u) - ref) <= 1e-12 * abs(ref)


class TestPeakFunctions:
    def test_zero(self):
        assert f_minus(0.0) == 0.0
        assert f_plus(0.0) == 0.0

    @given(st.floats(min_value=-0.99, max_value=0.99))
    def test_reflection_identity(self, t):
        assert abs(f_plus(t) + f_minus(-t)) <= 1e-12

    def test_plus_dominates(self):
        for t in np.linspace(0.01, 0.99, 99):
            assert f_plus(float(t)) >= f_minus(float(t)) - 1e-12

    def test_shared_slope_at_zero(self):
        h = 1e-5
        for f in (f_minus, f_plus):
            fd = (f(h) - f(-h)) / (2 * h)
            assert abs(fd - TANGENT_SLOPE) <= 1e-6

    @pytest.mark.parametrize("bad", [-1.0, 1.0, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            f_minus(bad)
        with pytest.raises(DomainError):
            f_plus(bad)


class TestAlpha:
    def test_zero_is_half(self):
        assert alpha(0.0) == 0.5
        assert abs(-(1.0 + 0.0) * alpha_prime(0.0) - 0.5) <= 1e-15

    def test_direct_quotient(self):
        t = 0.999
        assert abs(alpha(t) - math.log(1.0 + t) / (t * (2.0 + t))) <= 1e-15

    def test_series_seam_continuity(self):
        below, above = 0.99e-4, 1.01e-4
        slope = (alpha(above) - alpha(below)) / (above - below)
        assert abs(slope - alpha_prime(1e-4)) <= 1e-6

    def test_prime_matches_finite_difference(self):
        h = 1e-5
        for t in (-0.9, -0.4, 0.0, 0.3, 0.8):
            fd = (alpha(t + h) - alpha(t - h)) / (2 * h)
            assert abs(fd - alpha_prime(t)) <= 1e-6 * abs(alpha_prime(t))

    def test_sandwich(self):
        for t in np.linspace(-0.99, 0.99, 500):
            s = -(1.0 + float(t)) * alpha_prime(float(t))
            assert 1e-12 < s < 1.0 - 1e-12

    @pytest.mark.parametrize("bad", [-1.0, 1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            alpha(bad)
        with pytest.raises(DomainError):
            alpha_prime(bad)


class TestFMinusPrime:
    def test_value_at_zero(self):
        assert abs(f_minus_prime(0.0) - TANGENT_SLOPE) <= 1e-15

    @pytest.mark.parametrize("t", [-0.9, -0.5, 0.3, 0.8])
    def test_matches_finite_difference(self, t):
        h = 1e-5
        fd = (f_minus(t + h) - f_minus(t - h)) / (2 * h)
        closed = f_minus_prime(t)
        assert abs(fd - closed) <= 1e-6 * abs(closed)

    def test_positive(self):
        for t in np.linspace(-0.99, 0.99, 300):
            assert f_minus_prime(float(t)) > 0.0


class TestSecantInterval:
    def test_global_slopes_reach_one(self):
        assert secant_interval(0.5, "gamma_upper") == 1.0
        assert secant_interval(0.375, "gplus_lower") == 1.0

    def test_gamma_upper_interior(self):
        t_star = secant_interval(0.3, "gamma_upper")
        assert 0.0 < t_star < 1.0
        assert abs(gamma_closed(t_star).gamma - 0.3 * t_star) <= 1e-9
        for t in np.linspace(0.0, t_star, 200):
            assert gamma_closed(float(t)).gamma <= 0.3 * t + 1e-9

    def test_gplus_lower_interior(self):
        from spherecdf import g_plus

        t_star = secant_interval(0.6, "gplus_lower")
        assert 0.0 < t_star < 1.0
        assert abs(g_plus(t_star) - 0.6 * t_star) <= 1e-9
        for t in np.linspace(0.0, t_star, 200):
            assert g_plus(float(t)) >= 0.6 * t - 1e-9

    @pytest.mark.parametrize("slope,which", [
        (0.24, "gamma_upper"), (0.51, "gamma_upper"),
        (0.37, "gplus_lower"), (1.0, "gplus_lower"),
    ])
    def test_slope_domain(self, slope, which):
        with pytest.raises(DomainError):
            secant_interval(slope, which)

    def test_bad_which(self):
        with pytest.raises(DomainError):
            secant_interval(0.4, "gminus_lower")


class TestTypes:
    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_param_rejects(self, bad):
        with pytest.raises(DomainError):
            DeformationParam(bad)

    @pytest.mark.parametrize("value", [np.int64(0), np.float32(0.25), np.float64(0.3)])
    def test_numpy_scalars_are_reals(self, value):
        ref = float(value)
        assert DeformationParam(value).t == ref
        assert gamma_closed(value).gamma == gamma_closed(ref).gamma
        assert phi_deformed(0.7, value, "plus") == phi_deformed(0.7, ref, "plus")
        assert BoundInputs(100, 0.1, value) == BoundInputs(100, 0.1, ref)
        assert lambda_concentration_bound(100, value) == lambda_concentration_bound(100, ref)
        assert run_lambda_trials(20, 100, 3, value) == run_lambda_trials(20, 100, 3, ref)

    def test_param_refuses_strings(self):
        with pytest.raises(DomainError, match="finite real"):
            DeformationParam("0.3")

    def test_param_accepts_boundaries(self):
        assert DeformationParam(0.0).t == 0.0
        assert DeformationParam(0.999).t == 0.999

    def test_gap_invariant(self):
        with pytest.raises(DomainError):
            GapEvaluation(t=0.5, gamma=0.5, maximizer_x=1.0)
