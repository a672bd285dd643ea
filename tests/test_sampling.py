"""Reproducible streams, Gaussian vectors, sphere points, scale factors.

Statistical bands below are deterministic regression checks: every draw is
keyed, so an in-band value stays in band on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spherecdf import (DomainError, RngStream, chisq_tail_lower,
                       chisq_tail_upper, gaussian_vector, lambda_of,
                       sphere_sample, std_normal_cdf)
from spherecdf.montecarlo import _gaussian_rows


class TestRngStream:
    def test_determinism(self):
        a = gaussian_vector(4, RngStream(seed=1, stream_id=0))
        b = gaussian_vector(4, RngStream(seed=1, stream_id=0))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = gaussian_vector(16, RngStream(seed=1, stream_id=0))
        b = gaussian_vector(16, RngStream(seed=1, stream_id=1))
        c = gaussian_vector(16, RngStream(seed=2, stream_id=0))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("bad", [-1, 2 ** 64, 1.5, "0"])
    def test_key_validation(self, bad):
        with pytest.raises(DomainError):
            RngStream(seed=bad)
        with pytest.raises(DomainError):
            RngStream(seed=0, stream_id=bad)


class TestGaussianVector:
    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            gaussian_vector(0, RngStream(0))

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", math.inf, None])
    def test_count_domain(self, bad):
        with pytest.raises(DomainError):
            gaussian_vector(bad, RngStream(0))
        with pytest.raises(DomainError):
            sphere_sample(bad, RngStream(0))

    def test_moments_over_a_million_draws(self):
        z = gaussian_vector(1_000_000, RngStream(seed=2024))
        # CLT band: 3 sigma of the mean is ~0.003, variance concentrates alike
        assert -0.005 <= float(z.mean()) <= 0.005
        assert 0.995 <= float(z.var()) <= 1.005

    def test_all_finite(self):
        z = gaussian_vector(100_000, RngStream(seed=5))
        assert np.all(np.isfinite(z))
        assert float(np.abs(z).max()) < 9.5  # inverse CDF of the 53-bit grid edge


class TestSphereSample:
    def test_unit_norm(self):
        s = sphere_sample(1000, RngStream(seed=3, stream_id=9))
        assert abs(math.sqrt(float(np.dot(s.coords, s.coords))) - 1.0) <= 1e-12

    def test_one_dimension_is_sign(self):
        for sid in range(8):
            s = sphere_sample(1, RngStream(seed=0, stream_id=sid))
            assert float(abs(s.coords[0])) == 1.0

    def test_scale_identity(self):
        rng = RngStream(seed=17, stream_id=2)
        s = sphere_sample(256, rng)
        z = gaussian_vector(256, rng)
        # sqrt(N) X = lambda Z componentwise
        lhs = math.sqrt(256) * s.coords
        rhs = s.lam * z
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)
        assert abs(s.lam * s.gaussian_norm - 16.0) <= 1e-12 * 16.0

    def test_lambda_mean_band(self):
        # E[lambda] = 1 + 3/(4N) + O(N^-2) ~ 1.0076 at N = 100
        seed, n, draws = 0, 100, 100_000
        total = 0.0
        for first in range(0, draws, 20_000):
            z = _gaussian_rows(n, seed, first, 20_000)
            norms = np.sqrt(np.einsum("ij,ij->i", z, z))
            total += float(np.sum(math.sqrt(n) / norms))
        assert 0.995 <= total / draws <= 1.01

    def test_squared_norm_band_and_tail_domination(self):
        seed, n, draws = 1, 50, 100_000
        u = np.empty(draws)
        for first in range(0, draws, 25_000):
            z = _gaussian_rows(n, seed, first, 25_000)
            u[first:first + 25_000] = np.einsum("ij,ij->i", z, z)
        assert 49.5 <= float(u.mean()) <= 50.5
        for y in (60.0, 75.0):
            assert float(np.mean(u > y)) <= chisq_tail_upper(n, y)
        for y in (40.0, 30.0):
            assert float(np.mean(u < y)) <= chisq_tail_lower(n, y)

    def test_marginal_matches_gaussian_within_dkw_band(self):
        # first coordinate of sqrt(N) X at N = 1000, 1e5 draws; the DKW band at
        # level 1e-3 is sqrt(log(2/1e-3) / (2 * 1e5))
        n, draws, batch = 1000, 100_000, 2000
        gen = RngStream(seed=10, stream_id=0).generator()
        firsts = np.empty(draws)
        for start in range(0, draws, batch):
            raw = gen.integers(0, 1 << 53, size=(batch, n), dtype=np.uint64)
            from scipy.special import ndtri
            z = ndtri((raw.astype(np.float64) + 0.5) * 2.0 ** -53)
            norms = np.sqrt(np.einsum("ij,ij->i", z, z))
            firsts[start:start + batch] = math.sqrt(n) * z[:, 0] / norms
        firsts.sort()
        p = std_normal_cdf(firsts)
        i = np.arange(1, draws + 1)
        stat = max(float((i / draws - p).max()), float((p - (i - 1) / draws).max()))
        band = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * draws))
        assert stat <= band


class TestLambdaOf:
    def test_all_ones(self):
        assert lambda_of(np.ones(4)) == 1.0

    def test_direct_value(self):
        assert abs(lambda_of(np.array([3.0, 4.0])) - math.sqrt(2.0) / 5.0) <= 1e-15

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_homogeneity(self, c):
        z = np.array([0.3, -1.2, 2.4, 0.01])
        assert abs(lambda_of(c * z) - lambda_of(z) / c) <= 1e-12 * lambda_of(z) / c

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            lambda_of(np.zeros(3))

    def test_compensated_path_matches(self):
        z = gaussian_vector(1_100_000, RngStream(seed=9))
        direct = math.sqrt(z.size) / math.sqrt(float(np.dot(z, z)))
        assert abs(lambda_of(z) - direct) <= 1e-12 * direct
