"""Reproducible streams, Gaussian vectors, sphere points, scale factors.

Statistical bands below are deterministic regression checks: every draw is
keyed, so an in-band value stays in band on every run.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from spherecdf import (DomainError, RngStream, SphereSample, chisq_tail_lower,
                       chisq_tail_upper, gaussian_vector, lambda_of, sampling,
                       sphere_sample, std_normal_cdf)
from spherecdf.sampling import _gaussian_rows, _keyed_uniforms, _norms


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

    @pytest.mark.parametrize("a, b", [
        (RngStream(2 ** 63 + 1, 0), RngStream(2 ** 63 + 2, 0)),
        (RngStream(2 ** 64 - 1, 0), RngStream(0, 0)),
        (RngStream(0, 2 ** 63 + 1), RngStream(0, 2 ** 63 + 2)),
    ])
    def test_keys_above_two_to_the_63_stay_distinct(self, a, b):
        # keys once passed through float64, which merged these pairs
        assert not np.array_equal(gaussian_vector(8, a), gaussian_vector(8, b))
        draw = lambda r: r.generator().integers(0, 1 << 53, size=8, dtype=np.uint64)
        assert not np.array_equal(draw(a), draw(b))

    @pytest.mark.parametrize("bad", [-1, 2 ** 64, 1.5, "0"])
    def test_key_validation(self, bad):
        with pytest.raises(DomainError):
            RngStream(seed=bad)
        with pytest.raises(DomainError):
            RngStream(seed=0, stream_id=bad)


KEY_WORDS = (0, 7, 2 ** 63 - 1, 2 ** 63 + 1, 2 ** 64 - 1)


class TestKeyedUniforms:
    """Pins the Philox state layout the keyed-row kernel restores per row."""

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 100, 1001])
    def test_rows_match_fresh_generators(self, n):
        for seed in KEY_WORDS:
            for sid in KEY_WORDS:
                key = np.array([seed, sid], dtype=np.uint64)
                gen = np.random.Generator(np.random.Philox(key=key))
                raw = gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
                expected = (raw.astype(np.float64) + 0.5) * 2.0 ** -53
                assert np.array_equal(_keyed_uniforms(seed, sid, 1, n)[0], expected)
                assert np.array_equal(gaussian_vector(n, RngStream(seed, sid)),
                                      ndtri(expected))

    @pytest.mark.parametrize("seed, first", [(0, 0), (7, 2 ** 63 - 3), (2 ** 64 - 1, 5)])
    def test_batch_rows_match_single_rows(self, seed, first):
        batch = _keyed_uniforms(seed, first, 6, 37)
        for j in range(6):
            assert np.array_equal(batch[j], _keyed_uniforms(seed, first + j, 1, 37)[0])

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 1])
    def test_rows_up_to_the_last_stream_id(self, seed):
        # the restored state holds Python ints; the keys past 2^63 and the last
        # stream id 2^64 - 1 must reach the bit generator exactly
        first = 2 ** 64 - 6
        batch = _keyed_uniforms(seed, first, 6, 19)
        for j in range(6):
            gen = np.random.Generator(np.random.Philox(
                key=np.array([seed, first + j], dtype=np.uint64)))
            raw = gen.integers(0, 1 << 53, size=19, dtype=np.uint64)
            assert np.array_equal(batch[j], (raw.astype(np.float64) + 0.5) * 2.0 ** -53)

    def test_threads_share_no_bit_generator(self):
        # each thread re-keys its own Philox; two threads drawing interleaved
        # keys must get the rows one thread gets
        seed, rows, block, n = 2 ** 63 + 5, 800, 8, 33
        expected = _keyed_uniforms(seed, 0, rows, n)
        got = np.empty_like(expected)
        turn = threading.Barrier(2, timeout=30)

        def draw(parity):
            for first in range(parity * block, rows, 2 * block):
                got[first:first + block] = _keyed_uniforms(seed, first, block, n)
                turn.wait()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(p,)) for p in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert np.array_equal(got, expected)

    def test_top_draw_stays_below_one(self, monkeypatch):
        # k = 2^53 - 1 would round (k + 1/2) 2^-53 up to 1.0, and ndtri(1.0) = inf
        class AllOnes(np.random.Philox):
            def random_raw(self, size=None, output=True):
                return np.full(size, 2 ** 64 - 1, dtype=np.uint64)

        monkeypatch.setattr(np.random, "Philox", AllOnes)
        u = _keyed_uniforms(0, 0, 2, 5)
        assert np.all(u == 1.0 - 2.0 ** -53)
        assert np.all(np.isfinite(gaussian_vector(5, RngStream(0))))


class TestNorms:
    """Pins the norm kernel to one BLAS dot per row."""

    @pytest.mark.parametrize("n", [1, 3, 100, 1001, 10_000])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_batch_matches_row_by_row_dot(self, n, seed):
        z = _gaussian_rows(n, seed, 0, 7)
        norms = _norms(z)
        for j, row in enumerate(z):
            assert norms[j] == math.sqrt(np.dot(row, row))
            assert _norms(row) == norms[j]


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

    def test_built_vector_not_checked_again(self, monkeypatch):
        # sphere_sample normalizes a vector it drew itself; only a SphereSample
        # built by hand runs the unit-norm and scale checks
        def refuse(*args):
            raise AssertionError("sphere_sample validated its own vector")

        monkeypatch.setattr(sampling, "check_reals", refuse)
        monkeypatch.setattr(sampling, "check_real", refuse)
        s = sphere_sample(50, RngStream(seed=3, stream_id=1))
        assert not s.coords.flags.writeable
        assert type(s.lam) is float and type(s.gaussian_norm) is float

    def test_equality_is_identity(self):
        # the generated field-by-field == compared ndarrays and raised
        a, b = (sphere_sample(5, RngStream(seed=3, stream_id=1)) for _ in range(2))
        assert (a == b) is False and (a == a) is True

    def test_hand_built_sample_checked(self):
        with pytest.raises(DomainError, match="unit norm"):
            SphereSample(np.array([1.0, 1.0]), 1.0, math.sqrt(2.0))
        with pytest.raises(DomainError, match=r"sqrt\(N\)"):
            SphereSample(np.array([1.0, 0.0]), 1.0, 1.0)

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

    def test_matrix_rejected(self):
        with pytest.raises(DomainError, match="1-D vector"):
            lambda_of(np.ones((2, 2)))

    def test_matches_mpmath_at_1e5(self):
        mpmath = pytest.importorskip("mpmath")
        z = gaussian_vector(100_000, RngStream(seed=4))
        with mpmath.workdps(40):
            exact = mpmath.sqrt(z.size) / mpmath.sqrt(mpmath.fsum(mpmath.mpf(v) ** 2 for v in z))
            assert abs((lambda_of(z) - exact) / exact) <= 1e-14

    def test_compensated_path_matches(self):
        z = gaussian_vector(1_100_000, RngStream(seed=9))
        direct = math.sqrt(z.size) / math.sqrt(float(np.dot(z, z)))
        assert abs(lambda_of(z) - direct) <= 1e-12 * direct
