"""Trial runners: determinism, per-trial stream equivalence, Wilson verdicts."""

import collections
import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

import spherecdf.montecarlo as mc
from spherecdf import (DomainError, RngStream, TrialConfig, build_ecdf,
                       dkw_bound, gamma_closed, gaussian_vector, ks_to_normal,
                       lambda_concentration_bound, lm_lower, lm_upper, run_chisq_trials,
                       run_dkw_trials, run_lambda_trials, run_theorem_trials,
                       sphere_sample, verify_lemmas, wilson_interval)

# pinned from the closed-form Wilson recomputation (z at 40 digits)
WILSON_50_100 = (0.4038315303659956, 0.5961684696340044)


class TestWilson:
    def test_pinned_midpoint_case(self):
        low, high = wilson_interval(50, 100, 0.95)
        assert abs(low - WILSON_50_100[0]) <= 1e-12
        assert abs(high - WILSON_50_100[1]) <= 1e-12

    def test_closed_form_recomputation(self):
        z = 1.959963984540054
        n, k = 400, 37
        p = k / n
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        low, high = wilson_interval(k, n, 0.95)
        assert abs(low - (center - half)) <= 1e-9
        assert abs(high - (center + half)) <= 1e-9

    def test_edge_counts(self):
        assert wilson_interval(0, 250, 0.95)[0] == 0.0
        assert wilson_interval(250, 250, 0.95)[1] == 1.0

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
    def test_ordering(self, count, trials):
        count = min(count, trials)
        low, high = wilson_interval(count, trials)
        assert 0.0 <= low <= count / trials <= high <= 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            wilson_interval(-1, 10)
        with pytest.raises(DomainError):
            wilson_interval(11, 10)
        with pytest.raises(DomainError):
            wilson_interval(5, 10, confidence=1.0)
        with pytest.raises(DomainError, match=r"^trials must be an integer, got 10\.0$"):
            wilson_interval(5, 10.0)

    def test_numpy_integers(self):
        # numpy integer counts give the same Python floats as int counts
        got = wilson_interval(np.int64(5), np.int64(10))
        assert got == wilson_interval(5, 10)
        assert all(type(edge) is float for edge in got)


class TestTheoremTrials:
    CFG = TrialConfig(N=30, trials=300, seed=7, epsilon=0.1, t=0.15)

    def test_determinism(self):
        assert run_theorem_trials(self.CFG) == run_theorem_trials(self.CFG)

    def test_matches_per_trial_modules(self):
        # the batch runner must reproduce the one-trial-at-a-time pipeline,
        # also for a seed above 2^63
        from spherecdf import gamma_closed
        for cfg in (self.CFG, dataclasses.replace(self.CFG, seed=2 ** 63 + 5)):
            threshold = cfg.epsilon + gamma_closed(cfg.t).gamma
            count = 0
            for i in range(cfg.trials):
                s = sphere_sample(cfg.N, RngStream(cfg.seed, i))
                values = s.coords * math.sqrt(cfg.N)
                if ks_to_normal(build_ecdf(values)).statistic > threshold:
                    count += 1
            assert run_theorem_trials(cfg).event_count == count

    # 16 < N clamps to one-row blocks; 7 N leaves a ragged last block (300 = 42 * 7 + 6)
    @pytest.mark.parametrize("chunk", [64, 16, 7 * 30])
    def test_chunking_is_invisible(self, monkeypatch, chunk):
        runs = (lambda: run_theorem_trials(self.CFG),
                lambda: run_dkw_trials(30, 300, 7, 0.1),
                lambda: run_lambda_trials(30, 300, 7, 0.15),
                lambda: run_chisq_trials(30, 300, 7, 1.0))
        before = [run() for run in runs]
        draw, blocks = mc._keyed_uniforms, []
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
        # N = 30 takes the threaded path too, wherever the machine has 2 CPUs
        monkeypatch.setattr(mc, "_THREAD_MIN_N", 1)
        monkeypatch.setattr(mc, "_keyed_uniforms",
                            lambda *a: blocks.append(a[1:3]) or draw(*a))
        rows = max(1, chunk // 30)
        partition = [(first, min(rows, 300 - first)) for first in range(0, 300, rows)]
        for run, report in zip(runs, before):
            blocks.clear()
            assert run() == report
            # (first, count) per draw; threads may finish in any order.  Each
            # block is drawn, and the only other draws are the theorem runner's
            # one-row redraws of its open rows
            extra = collections.Counter(blocks)
            extra.subtract(partition)
            assert min(extra.values()) >= 0
            assert all(count == 1 for _, count in (+extra).elements())

    def test_thread_count_is_invisible(self, monkeypatch):
        # 7-row blocks: 14 full blocks and a ragged 2-row one (100 = 14 * 7 + 2),
        # at an N where the theorem runner brackets |Z|^2 with the bin table
        n, trials, seed = 200, 100, 2 ** 63 + 11
        assert n < mc._U_MIN_N
        cfg = TrialConfig(N=n, trials=trials, seed=seed, epsilon=0.05, t=0.1)
        runs = (lambda: run_theorem_trials(cfg),
                lambda: run_dkw_trials(n, trials, seed, 0.05),
                lambda: run_lambda_trials(n, trials, seed, 0.05),
                lambda: run_chisq_trials(n, trials, seed, 1.0))
        draw, calls = mc._keyed_uniforms, []
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * n)
        monkeypatch.setattr(mc, "_THREAD_MIN_N", 1)
        # (rows drawn, whether on the main thread); the theorem runner redraws
        # its open rows one at a time, the blocks hold 7 or 2
        monkeypatch.setattr(
            mc, "_keyed_uniforms",
            lambda *a: calls.append((a[2], threading.current_thread() is threading.main_thread()))
            or draw(*a))
        reports = {}
        for workers in (1, 2):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            calls.clear()
            reports[workers] = [run() for run in runs]
            # 15 blocks per runner, some open rows, and every draw on the main
            # thread exactly when unthreaded
            assert [main for rows, main in calls if rows > 1] == [workers == 1] * (4 * 15)
            assert any(rows == 1 for rows, _ in calls)
            assert {main for _, main in calls} == {workers == 1}
        assert reports[1] == reports[2]

    def test_thread_count_is_invisible_to_the_long_row_filters(self, monkeypatch):
        # the same at N = _U_MIN_N, where the theorem runner's uniform-space
        # filter and _sq_norms' sorted pass run inside the threaded blocks
        n, trials, seed = mc._U_MIN_N, 100, 2 ** 63 + 11
        cfg = TrialConfig(N=n, trials=trials, seed=seed, epsilon=0.03, t=0.05)
        runs = (lambda: run_theorem_trials(cfg), lambda: run_lambda_trials(n, trials, seed, 0.03),
                lambda: run_chisq_trials(n, trials, seed, 1.0))
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * n)
        reports = {}
        for workers in (1, 2):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            reports[workers] = [run() for run in runs]
        assert reports[1] == reports[2]

    def test_thread_count_is_invisible_at_the_default_block(self, monkeypatch):
        # the default block at N = 10^4: the four runners in four blocks of 25
        # rows (2^18 entries; TrialConfig's fewest trials) on one worker and on two
        n, trials, seed = 10_000, 100, 2 ** 63 + 11
        assert -(-trials // (mc._CHUNK_ELEMENTS // n)) == 4 and n >= mc._THREAD_MIN_N
        cfg = TrialConfig(N=n, trials=trials, seed=seed, epsilon=0.01, t=0.02)
        runs = (lambda: run_theorem_trials(cfg), lambda: run_dkw_trials(n, trials, seed, 0.01),
                lambda: run_lambda_trials(n, trials, seed, 0.01),
                lambda: run_chisq_trials(n, trials, seed, 1.0))
        reports = {}
        for workers in (1, 2):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            reports[workers] = [run() for run in runs]
        assert reports[1] == reports[2]

    def test_block_exception_reaches_caller(self, monkeypatch):
        draw = mc._keyed_uniforms

        def failing(seed, first, count, n):
            if first == 140:
                raise RuntimeError("planted block failure")
            return draw(seed, first, count, n)

        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * 30)
        monkeypatch.setattr(mc, "_WORKERS", 2)
        monkeypatch.setattr(mc, "_THREAD_MIN_N", 1)
        monkeypatch.setattr(mc, "_keyed_uniforms", failing)
        with pytest.raises(RuntimeError, match="^planted block failure$"):
            run_dkw_trials(30, 300, 7, 0.1)

    def test_worker_count_without_affinity_call(self):
        # os.sched_getaffinity is Linux-only; elsewhere the package must still
        # import and count the CPUs with os.cpu_count
        script = textwrap.dedent("""
            import importlib, os
            if hasattr(os, "sched_getaffinity"):
                del os.sched_getaffinity
            os.cpu_count = lambda: None
            import spherecdf.cli, spherecdf.montecarlo as m
            print(m._WORKERS)
            os.cpu_count = lambda: 8
            print(importlib.reload(m)._WORKERS)
        """)
        paths = [str(Path(mc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout.split()) == (0, ["1", "2"]), proc.stderr

    @pytest.mark.parametrize("n", [4, 11, 61, 2000])
    def test_filter_matches_per_trial_modules(self, monkeypatch, n):
        # lengths whose segment cuts round the first rank up to 1, through the
        # uniform-space filter on _sq_bounds
        monkeypatch.setattr(mc, "_U_MIN_N", 1)
        cfg = TrialConfig(N=n, trials=200, seed=2 ** 64 - 1, epsilon=0.5 / math.sqrt(n), t=0.1)
        threshold = cfg.epsilon + gamma_closed(cfg.t).gamma
        count = sum(ks_to_normal(build_ecdf(sphere_sample(n, RngStream(cfg.seed, i)).coords
                                            * math.sqrt(n))).statistic > threshold
                    for i in range(cfg.trials))
        assert run_theorem_trials(cfg).event_count == count

    @pytest.mark.parametrize("n", [2, 5, 31, 100, 200, mc._U_MIN_N - 1, mc._U_MIN_N])
    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, 2 ** 64 - 1])
    def test_tiers_match_per_trial_modules(self, n, seed):
        # short rows, the mc-small-n lengths and either side of the switch
        # between the two |Z|^2 bounds
        cfg = TrialConfig(N=n, trials=200, seed=seed, epsilon=0.7 / math.sqrt(n), t=0.01)
        threshold = cfg.epsilon + gamma_closed(cfg.t).gamma
        count = sum(ks_to_normal(build_ecdf(sphere_sample(n, RngStream(seed, i)).coords
                                            * math.sqrt(n))).statistic > threshold
                    for i in range(cfg.trials))
        assert 0 < count < cfg.trials
        assert run_theorem_trials(cfg).event_count == count

    def test_impossible_threshold(self):
        # epsilon + gamma(t) > 1 cannot be exceeded by a KS distance
        cfg = TrialConfig(N=20, trials=200, seed=0, epsilon=0.9, t=0.5)
        report = run_theorem_trials(cfg)
        assert report.event_count == 0
        assert report.dominated

    def test_config_type_required(self):
        with pytest.raises(DomainError):
            run_theorem_trials((30, 300, 7, 0.1, 0.15))


class TestPerTrial:
    # N = 5: one-row blocks; 15 blocks of 7 or 6 rows, the smaller last
    # (100 = 10 * 7 + 5 * 6); one block
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [5, 7 * 5, 1 << 17])
    def test_keeps_trial_order(self, monkeypatch, chunk, workers):
        n, trials, seed = 5, 100, 2 ** 64 - 1
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(mc, "_WORKERS", workers)
        monkeypatch.setattr(mc, "_THREAD_MIN_N", 1)
        got = mc._per_trial(n, seed, trials, lambda u, first: u[:, 0].copy())
        assert got.tolist() == [mc._keyed_uniforms(seed, i, 1, n)[0, 0] for i in range(trials)]

    # one block of 40 rows; 6 blocks of 7 or 6 rows
    @pytest.mark.parametrize("chunk", [1 << 17, 7 * 50])
    def test_redrawn_row_equals_block_row(self, monkeypatch, chunk):
        # a stat that redraws row j of its block from the key (seed, first + j),
        # as the theorem runner does for its open rows, gets that row bit for bit
        n, trials, seed = 50, 40, 2 ** 64 - 1
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)

        def stat(u, first):
            redrawn = np.concatenate([mc._keyed_uniforms(seed, first + j, 1, n)
                                      for j in range(len(u))])
            return (redrawn.view(np.int64) == u.view(np.int64)).all(axis=1)

        assert mc._per_trial(n, seed, trials, stat).tolist() == [1.0] * trials


class TestDkwTrials:
    def test_matches_per_trial_modules(self):
        n, trials, eps = 25, 200, 0.2
        for seed in (3, 2 ** 64 - 1):
            count = 0
            for i in range(trials):
                z = gaussian_vector(n, RngStream(seed, i))
                if ks_to_normal(build_ecdf(z)).statistic > eps:
                    count += 1
            report = run_dkw_trials(n, trials, seed, eps)
            assert report.event_count == count
            assert report.bound == dkw_bound(n, eps)

    def test_event_nesting(self):
        # same trial stream, larger epsilon -> subset of events
        c1 = run_dkw_trials(40, 500, 1, 0.10).event_count
        c2 = run_dkw_trials(40, 500, 1, 0.15).event_count
        assert c2 <= c1

    def test_epsilon_above_one_gives_zero(self):
        assert run_dkw_trials(20, 150, 0, 1.0).event_count == 0


class TestPlantedThresholds:
    """Thresholds planted on a trial's exact KS statistic and one ulp either side.

    The two KS runners decide most rows by the edges of _ks_exceeds; the planted
    rows sit inside the band where _ks_statistics must decide, so the counts
    must still equal the one-trial-at-a-time pipeline's.
    """

    TRIALS = 100
    SHAPES = [(1, 0), (7, 3), (50, 2 ** 63 + 5), (200, 11)]

    @classmethod
    def planted(cls, stats):
        """(threshold, expected count) for thresholds at and around every 10th statistic."""
        stats = np.asarray(stats)
        for k in range(0, cls.TRIALS, 10):
            for thr in (np.nextafter(stats[k], 0.0), stats[k], np.nextafter(stats[k], 2.0)):
                yield float(thr), int(np.count_nonzero(stats > thr))

    @staticmethod
    def ks(rows):
        return [ks_to_normal(build_ecdf(v)).statistic for v in rows]

    @pytest.mark.parametrize("n, seed", SHAPES)
    def test_dkw_planted_threshold(self, n, seed):
        rows = [gaussian_vector(n, RngStream(seed, i)) for i in range(self.TRIALS)]
        for eps, expected in self.planted(self.ks(rows)):
            assert run_dkw_trials(n, self.TRIALS, seed, eps).event_count == expected, eps

    @pytest.mark.parametrize("n, seed", SHAPES)
    def test_theorem_planted_threshold(self, n, seed):
        # gamma(0) = 0, so at t = 0 the runner's threshold is epsilon itself
        assert gamma_closed(0.0).gamma == 0.0
        rows = [sphere_sample(n, RngStream(seed, i)).coords * math.sqrt(n)
                for i in range(self.TRIALS)]
        for eps, expected in self.planted(self.ks(rows)):
            cfg = TrialConfig(N=n, trials=self.TRIALS, seed=seed, epsilon=eps, t=0.0)
            assert run_theorem_trials(cfg).event_count == expected, eps

    @pytest.mark.parametrize("n, seed", SHAPES)
    def test_theorem_planted_threshold_filtered(self, monkeypatch, n, seed):
        # the same thresholds through the uniform-space filter on _sq_bounds,
        # which then meets N = 1, clipped edges where ndtri is +-inf and rows
        # with |rho - 1| past _RHO_SPAN
        monkeypatch.setattr(mc, "_U_MIN_N", 1)
        self.test_theorem_planted_threshold(n, seed)

    @pytest.mark.parametrize("n, seed", [(64, 2 ** 64 - 1), (64, 0), (200, 2 ** 63 + 5)])
    def test_theorem_planted_threshold_bin_bounded(self, n, seed):
        # the same thresholds through the uniform-space filter on _bin_bounds
        # at the lengths of the mc-small-n theorem shapes
        assert n < mc._U_MIN_N
        self.test_theorem_planted_threshold(n, seed)

    @pytest.mark.parametrize("n", [1000, 4000])
    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, 2 ** 64 - 1])
    def test_theorem_planted_threshold_long_rows(self, monkeypatch, n, seed):
        monkeypatch.setattr(mc, "_U_MIN_N", min(mc._U_MIN_N, n))
        self.test_theorem_planted_threshold(n, seed)

    @pytest.mark.parametrize("n, seed", [(1, 0), (7, 3), (100, 2 ** 63 + 5)])
    def test_lambda_planted_threshold(self, n, seed):
        # t at each planted |lambda - 1| in [0, 1) (at N = 1 lambda = 1/|z| often
        # exceeds 2); both one-sided counts must match too
        dev = np.array([sphere_sample(n, RngStream(seed, i)).lam
                        for i in range(self.TRIALS)]) - 1.0
        planted = [(t, c) for t, c in self.planted(np.abs(dev)) if t < 1.0]
        assert len(planted) >= 12
        for t, expected in planted:
            report = run_lambda_trials(n, self.TRIALS, seed, t)
            assert (report.event_count, report.upper_count, report.lower_count) == (
                expected, np.count_nonzero(dev > t), np.count_nonzero(-dev > t)), t

    @pytest.mark.parametrize("n, seed", [(1, 0), (7, 3), (100, 2 ** 63 + 5)])
    def test_chisq_planted_threshold(self, n, seed):
        # x solves 2 sqrt(n x) + 2 x = U - n (U above n) or 2 sqrt(n x) = n - U
        # (U below n) for every 10th row, and the doubles either side of x move
        # the threshold by about an ulp of U - n
        sq = np.array([np.vecdot(z, z) for z in
                       (gaussian_vector(n, RngStream(seed, i)) for i in range(self.TRIALS))])
        planted = []
        for u in sq[::10]:
            dev = u - n
            x = ((math.sqrt(n + 2.0 * dev) - math.sqrt(n)) / 2.0) ** 2 if dev > 0 else dev * dev / (4.0 * n)
            planted += [v for v in (np.nextafter(x, -1.0), x, np.nextafter(x, 2.0 * x + 1.0)) if v >= 0.0]
        near = 0
        for x in planted:
            up, lo = lm_upper(n, float(x)), lm_lower(n, float(x))
            near += bool(np.any(np.abs(sq - n - up.threshold) <= 1e-12 * abs(up.threshold))
                         or np.any(np.abs(n - sq - lo.threshold) <= 1e-12 * abs(lo.threshold)))
            reports = run_chisq_trials(n, self.TRIALS, seed, float(x))
            assert tuple(r.event_count for r in reports) == (
                np.count_nonzero(sq - n >= up.threshold),
                np.count_nonzero(n - sq >= lo.threshold)), x
        # the planted thresholds do sit on their rows' deviations
        assert near >= 20, near


class TestKsExceeds:
    """The edge rule decides every row as the exact statistic does.

    Thresholds sit on each row's exact statistic and at 1 ulp, 1e-13 and 1e-6
    either side; only rows within 1e-11 of the threshold may reach exact.
    """

    @staticmethod
    def cases(rng):
        """(sorted rows, edge scale, exact kernel) in the uniform and the x scale."""
        for n in (1, 7, 100, 1000):
            u = np.sort(rng.random((12, n)), axis=-1)
            yield u, lambda e: e, lambda r: mc._ks_statistics(special.ndtri(r))
            x = np.sort(rng.normal(size=(12, n)) * rng.uniform(0.8, 1.25, (12, 1)), axis=-1)
            yield x, special.ndtri, mc._ks_statistics

    def test_matches_exact_statistic(self):
        for rows, scale, exact in self.cases(np.random.default_rng(8)):
            stats = exact(rows)
            for stat in stats:
                for thr in (stat, np.nextafter(stat, 0.0), np.nextafter(stat, 2.0),
                            stat - 1e-13, stat + 1e-13, stat - 1e-6, stat + 1e-6):
                    seen = []

                    def spy(near):
                        got = exact(near)
                        seen.extend(got.tolist())
                        return got

                    edges = scale(mc._ks_edges(rows.shape[1], thr))
                    hit = mc._ks_exceeds(rows, edges, thr, spy)
                    assert hit.tolist() == (stats > thr).tolist(), thr
                    assert all(abs(v - thr) <= 1e-11 for v in seen), (thr, seen)

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
    def test_exact_kernel_sees_few_rows(self, monkeypatch, seed):
        # at the acceptance shapes no row lies near the threshold, so the exact
        # kernel sees at most one row per 1,000 trials
        seen, kernel = [], mc._ks_statistics
        monkeypatch.setattr(mc, "_ks_statistics",
                            lambda values: seen.append(len(values)) or kernel(values))
        runs = [lambda n=n, e=e, t=t: run_theorem_trials(TrialConfig(n, 1000, seed, e, t))
                for n, e, t in ((50, 0.08, 0.15), (100, 0.05, 0.1), (200, 0.05, 0.1))]
        for run in runs + [lambda: run_dkw_trials(100, 1000, seed, 0.05)]:
            seen.clear()
            run()
            assert sum(seen) <= 1, seen

    @staticmethod
    def redrawn_rows(monkeypatch, cfg):
        """How many rows run_theorem_trials redraws: those it draws beyond its trials."""
        rows, draw = [], mc._keyed_uniforms
        monkeypatch.setattr(mc, "_keyed_uniforms", lambda *a: rows.append(a[2]) or draw(*a))
        run_theorem_trials(cfg)
        return sum(rows) - cfg.trials

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
    def test_filter_leaves_few_rows_open(self, monkeypatch, seed):
        # at the mc-large-n theorem shape the uniform-space filter decides all
        # but a few of 500 rows
        assert 10_000 >= mc._U_MIN_N
        assert self.redrawn_rows(monkeypatch, TrialConfig(10_000, 500, seed, 0.01, 0.02)) <= 2

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
    @pytest.mark.parametrize("n, budget", [(100, 80), (200, 30)])
    def test_bin_bounded_filter_leaves_few_rows_open(self, monkeypatch, seed, n, budget):
        # at the mc-small-n theorem shapes on _bin_bounds it leaves at most 8%
        # and 3% of 1000 rows open
        assert n < mc._U_MIN_N
        assert self.redrawn_rows(monkeypatch, TrialConfig(n, 1000, seed, 0.05, 0.1)) <= budget


class TestSortedBoundPremises:
    """Pins what the sorted-uniform bounds of _sq_bounds and _u_verdicts rest on."""

    @staticmethod
    def rows():
        """Keyed rows at N = 512, 10^4 and 10^6, rows holding the extreme uniforms,
        and rows whose segment means round by more than their distance to 1 or 1/2."""
        for n, count in ((512, 4), (10_000, 2), (1_000_000, 1)):
            yield from mc._keyed_uniforms(2 ** 63 + 5, 0, count, n)
        u = mc._keyed_uniforms(3, 0, 1, 4000)[0]
        u[:7], u[7:11] = 2.0 ** -54, 1.0 - 2.0 ** -53
        yield u
        yield from ([2.0 ** -54], [1.0 - 2.0 ** -53], [2.0 ** -54, 0.5, 1.0 - 2.0 ** -53],
                    [2.0 ** -54] * 600 + [1.0 - 2.0 ** -53] * 600)
        for pair in ([1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52], [0.5 - 2.0 ** -54, 0.5]):
            yield np.resize(pair, 4000)
        k = np.arange(1, 2001)
        yield np.concatenate([2.0 ** -54 * k, 1.0 - 2.0 ** -53 * k])

    def test_bounds_bracket_u(self):
        # L <= U <= H for U summed exactly and for the vecdot U, in draw order
        for u in self.rows():
            u = np.array(u)
            z = special.ndtri(u)
            (lo,), (hi,) = mc._sq_bounds(np.sort(u)[None])
            for sq in (math.fsum(z * z), np.vecdot(z, z)):
                assert lo <= sq <= hi, (u.size, lo, sq, hi)

    def test_segments_cover_every_row_length(self):
        # every entry of a row lies in exactly one segment, for each N up to 3000
        for n in range(1, 3001):
            p, k, ends, _ = mc._cuts(n)
            assert p[0] == 0 and np.all(k >= 1) and k.sum() == n and ends[-1] == n - 1, n

    def test_bounds_bracket_u_at_every_short_length(self):
        u = mc._keyed_uniforms(2 ** 64 - 1, 0, 1, 300)[0]
        for n in range(1, 301):
            z = special.ndtri(u[:n])
            (lo,), (hi,) = mc._sq_bounds(np.sort(u[:n])[None])
            assert lo <= np.vecdot(z, z) <= hi, n

    def test_ndtri_keeps_sorted_order(self):
        # so the sorted uniforms' order is the sorted Gaussian sample's
        for u in self.rows():
            assert np.all(np.diff(special.ndtri(np.sort(u))) >= 0.0)

    def test_edge_remainder(self):
        # |Phi(rho B) - Phi(B) - B phi(B) (rho - 1)| <= 0.2313 d^2 / (1 - |d|)^2,
        # d = rho - 1, for |d| <= 1/4: half of sup |x|^3 phi(x) = 0.46254 over rho^2
        b = np.linspace(-8.0, 8.0, 1601)[:, None]
        d = np.linspace(-0.25, 0.25, 102)
        rem = np.abs(special.ndtr((1.0 + d) * b) - special.ndtr(b)
                     - b * np.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi) * d)
        assert np.all(rem <= 0.2313 * (d / (1.0 - np.abs(d))) ** 2 + 1e-15)

    def test_edge_remainder_past_the_square(self):
        # |Phi(rho B) - Phi(B) - b d - c d^2| <= 0.2468 |d|^3 / (1 - |d|)^3,
        # d = rho - 1, b = B phi(B), c = -B^2 b / 2, for |d| <= 1/4: a sixth of
        # sup |x^3 (x^2 - 1) phi(x)| = 1.48051 over rho^3; and the bounds
        # 0.2420 on |b| and 0.2313 on |c|, whose halves _u_verdicts' margin takes
        b = np.linspace(-8.0, 8.0, 1601)[:, None]
        d = np.linspace(-0.25, 0.25, 102)
        slope = b * np.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
        curve = -0.5 * b * b * slope
        rem = np.abs(special.ndtr((1.0 + d) * b) - special.ndtr(b) - slope * d - curve * d * d)
        assert np.all(rem <= 0.2468 * (np.abs(d) / (1.0 - np.abs(d))) ** 3 + 1e-15)
        assert np.abs(slope).max() < 0.2420 and np.abs(curve).max() < 0.2313

    @pytest.mark.parametrize("d, edge, family", [(-0.1, -2.4, 0), (0.1, 2.28, 1)])
    def test_row_on_an_edge_stays_open(self, d, edge, family):
        # a row inside every edge but one, whose entry sits on F(rho) = Phi(rho B)
        # near the B where the third-order remainder is largest for this
        # rho - 1 (about 0.8 of its bound), has no certified verdict
        n, rho = 100, 1.0 + d
        u = (np.arange(n) + 0.5) / n
        on = special.ndtr(rho * edge)
        if family == 0:  # the 6th entry on the edge 6/N - thr
            thr = 6 / n - special.ndtr(edge)
            u[:6] = np.linspace(0.5 / n, on, 6)
        else:  # the 95th entry on the edge 94/N + thr
            thr = special.ndtr(edge) - 94 / n
            u[94:] = np.linspace(on, 1.0 - 0.5 / n, 6)
        sq = np.array([n * rho * rho])
        hit, near = mc._u_verdicts(u[None], mc._u_edges(n, thr), sq, sq)
        assert near.tolist() == [True] and hit.tolist() == [False]


class TestBandAssumption:
    """Pins the scipy behaviour the KS runners' 1e-12 band rests on."""

    def test_cdf_inverts_the_inverse_cdf(self):
        k = np.arange(1, 1075)
        u = np.concatenate([
            mc._keyed_uniforms(2 ** 63 + 5, 0, 50, 4000).ravel(),
            np.ldexp(1.0, -k),  # down to the smallest subnormal 2^-1074
            1.0 - np.ldexp(1.0, -k[:53]),  # up to the cap 1 - 2^-53
            [5e-324, 1e-310, 2.2250738585072014e-308, 0.5],
            np.linspace(0.0, 1.0, 200_001),
        ])
        assert np.abs(special.ndtr(special.ndtri(u)) - u).max() <= 1e-14

    def test_cdf_never_decreases(self):
        dense = np.linspace(-40.0, 10.0, 2_000_001)
        assert np.all(np.diff(special.ndtr(dense)) >= 0.0)
        # along consecutive doubles ndtr wobbles by one ulp (near -1 and 0.5 it
        # steps down by 5.6e-17 and 1.1e-16), which the band must absorb
        starts = np.array([-38.4, -8.0, -1.0, -1e-300, 1e-300, 0.5, 3.0, 8.2])
        runs = np.sort((starts.view(np.int64)[:, None]
                        + np.arange(-5000, 5000)).view(np.float64), axis=-1)
        p = special.ndtr(runs)
        assert (np.maximum.accumulate(p, axis=-1) - p).max() <= 1e-15


class TestSqTable:
    """Pins the scipy behaviour _sq_norms' bin bounds rest on."""

    @staticmethod
    def bins(p):
        """The bin _sq_norms reads for each uniform p."""
        w = np.minimum(p, 1.0 - p)
        return (w.view(np.int64) >> mc._SQ_SHIFT) - mc._SQ_BASE

    def test_bins_hold_their_squares(self):
        # every bin edge and the doubles 1-3 either side, kept inside the keyed
        # range [2^-54, 1/2], and their mirrors 1 - w below 1
        tab = mc._sq_table()
        edges = (np.arange(tab.size + 1) + mc._SQ_BASE) << mc._SQ_SHIFT
        w = (edges[:, None] + np.arange(-3, 4)).ravel().view(np.float64)
        w = w[(w >= 2.0 ** -54) & (w <= 0.5)]
        p = np.concatenate([w, (1.0 - w)[1.0 - w < 1.0]])
        sq = special.ndtri(p) ** 2
        b = self.bins(p)
        assert b.min() == 0 and b.max() == tab.size - 1
        assert np.all((tab.real[b] <= sq) & (sq <= tab.imag[b]))

    def test_ndtri_matches_mpmath(self):
        # scipy's ndtri within 1e-13 relative of a 40-digit inverse on 200 bin
        # edges from 2^-54 to 1/2, a million times inside the 1e-9 widening
        mpmath = pytest.importorskip("mpmath")
        k = np.linspace(0, mc._sq_table().size - 1, 200).astype(np.int64)
        p = ((k + mc._SQ_BASE) << mc._SQ_SHIFT).view(np.float64)
        assert p[0] == 2.0 ** -54 and p[-1] == 0.5
        got = special.ndtri(p)
        assert got[-1] == 0.0
        with mpmath.workdps(40):
            for pv, g in zip(p[:-1], got[:-1]):
                ref = mpmath.findroot(lambda x: mpmath.ncdf(x) - mpmath.mpf(pv), g)
                assert abs(g - ref) <= 1e-13 * abs(ref), pv


class TestSqNorms:
    """_sq_norms' stand-ins carry the exact U's verdicts."""

    @staticmethod
    def exact(u):
        z = special.ndtri(u)
        return np.vecdot(z, z)

    @pytest.mark.parametrize("n, rows, seed", [(1, 300, 0), (7, 200, 2 ** 64 - 1),
                                               (100, 100, 3), (10_000, 20, 2 ** 64 - 1)])
    def test_planted_thresholds(self, n, rows, seed):
        # thresholds at each row's exact U and one ulp either side, under a
        # verdict with >= and one with >
        u = mc._keyed_uniforms(seed, 0, rows, n)
        sq = self.exact(u)
        for k in range(rows):
            for thr in (np.nextafter(sq[k], 0.0), sq[k], np.nextafter(sq[k], np.inf)):
                def verdict(s):
                    return np.array([s >= thr, s > thr])

                got = mc._sq_norms(u.copy(), verdict)
                assert (verdict(got) == verdict(sq)).all(), (k, thr)
                # a stand-in is the lower bound L <= U
                assert np.all(got <= sq)

    @pytest.mark.parametrize("n, seed", [(1000, 5), (10_000, 2 ** 63 + 5)])
    def test_planted_threshold_beside_a_settled_one(self, n, seed):
        # one verdict planted on a row's exact U, the other far off: a row whose
        # bounds settle only the far verdict must still reach the exact path
        u = mc._keyed_uniforms(seed, 0, 20, n)
        sq = self.exact(u)
        for k in range(0, 20, 4):
            for thr in (np.nextafter(sq[k], 0.0), sq[k], np.nextafter(sq[k], np.inf)):
                def verdict(s):
                    return np.array([s >= thr, s >= 2.0 * n])

                got = mc._sq_norms(u.copy(), verdict)
                assert (verdict(got) == verdict(sq)).all(), (k, thr)

    @classmethod
    def opening_verdict(cls, u):
        """Thresholds at the deciles of the block's U and at every fifth row's U.

        They leave most rows open after the bins: on the (26, 10^4) blocks
        below, 21 or 22 rows, of which _sq_bounds decides about half.
        """
        sq = cls.exact(u)
        thr = np.concatenate([np.quantile(sq, np.arange(1, 10) / 10), sq[::5]])
        return lambda s: s >= thr[:, None]

    @pytest.mark.parametrize("n", [1, 50, 999, 10_000])
    def test_grouping_never_shows(self, monkeypatch, n):
        # one-row groups, the default budget and one group per block give the
        # same L and H and the same stand-ins, bit for bit
        u = mc._keyed_uniforms(2 ** 63 + 5, 0, 26, n)
        verdict = self.opening_verdict(u)
        got = []
        for budget in (1, mc._SQ_GROUP_BYTES, 1 << 40):
            monkeypatch.setattr(mc, "_SQ_GROUP_BYTES", budget)
            got.append(b"".join(a.tobytes() for a in (*mc._bin_bounds(u),
                                                       mc._sq_norms(u.copy(), verdict))))
        assert got[0] == got[1] == got[2]

    def test_runner_grouping_never_shows(self, monkeypatch):
        # the lambda and chi-square runners at N = 10^4 (four 25-row blocks)
        # report the same under one-row groups as under the default budget
        def runs():
            return run_lambda_trials(10_000, 100, 4, 0.01), run_chisq_trials(10_000, 100, 4, 1.0)

        default = runs()
        monkeypatch.setattr(mc, "_SQ_GROUP_BYTES", 1)
        assert runs() == default

    @staticmethod
    def steady_peak(call, u):
        """The least tracemalloc peak of call on a fresh copy of u, over five calls.

        numpy's small-block caches take a few calls to fill, and until then
        they move a call's peak by up to 2 KB.
        """
        peaks = []
        for _ in range(5):
            v = u.copy()
            tracemalloc.start()
            try:
                call(v)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return min(peaks)

    def test_open_row_memory_does_not_follow_the_block(self, monkeypatch):
        # the sorted copies of the rows the bins leave open come in batches of
        # _SQ_GROUP_BYTES: on a (26, 10^4) block with 22 rows open, _sq_norms'
        # peak is the same at any block size, and under 1 MiB
        u = mc._keyed_uniforms(3, 0, 26, 10_000)
        verdict = self.opening_verdict(u)
        mc._sq_norms(u.copy(), verdict)  # builds the table, the cuts and numpy's one-time state
        peaks = []
        for chunk in (1 << 18, 1 << 20):
            monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
            peaks.append(self.steady_peak(lambda v: mc._sq_norms(v, verdict), u))
        assert peaks[0] == peaks[1] < 2 ** 20

    def test_group_memory_does_not_follow_the_block(self, monkeypatch):
        # the bin pass's scratch is sized by _SQ_GROUP_BYTES alone: on a
        # (26, 10^4) block its peak is one two-row group's, at any block size
        u = mc._keyed_uniforms(3, 0, 26, 10_000)
        mc._bin_bounds(u)  # builds the table and numpy's one-time state
        peaks = []
        for chunk in (1 << 18, 1 << 20):
            monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
            peaks.append(self.steady_peak(mc._bin_bounds, u))
        assert peaks[0] == peaks[1] < 2 ** 19

    def test_zero_stand_in(self):
        # at N = 1 trial 6 of seed 11 draws u in [1/2 - 2^-10, 1/2), whose bin
        # low is ndtri(1/2)^2 = 0; lambda's verdict there divides by zero with
        # no RuntimeWarning, and the counts match the one-trial pipeline
        u = mc._keyed_uniforms(11, 6, 1, 1)
        assert 0.5 - 2.0 ** -10 <= u[0, 0] < 0.5
        assert mc._sq_norms(u, lambda s: np.array([s > 0.25])).tolist() == [0.0]
        lam = np.array([sphere_sample(1, RngStream(11, i)).lam for i in range(100)])
        for t in (0.1, 0.5, 0.9):
            report = run_lambda_trials(1, 100, 11, t)
            assert (report.upper_count, report.lower_count) == (
                np.count_nonzero(lam - 1.0 > t), np.count_nonzero(1.0 - lam > t))

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
    def test_exact_path_sees_few_rows(self, monkeypatch, seed):
        # at the lambda and chi-square acceptance shapes (criteria 07 and 09)
        # under 1% of rows reach ndtri; the bins' width in U grows like N while
        # U's spread grows like sqrt(N), so N = 10^4 sends about 5%
        mc._sq_table()
        rows = []
        monkeypatch.setattr(mc, "special", types.SimpleNamespace(
            ndtri=lambda u, **kw: rows.append(np.ndim(u)) or special.ndtri(u, **kw)))
        runs = [(run_lambda_trials, 100, 2000, t, 20) for t in (0.1, 0.2, 0.3)]
        runs += [(run_chisq_trials, 50, 2000, x, 20) for x in (0.5, 1.0, 2.0)]
        runs += [(run_lambda_trials, 10_000, 500, 0.01, 40), (run_chisq_trials, 10_000, 500, 1.0, 40)]
        for run, n, trials, param, budget in runs:
            rows.clear()
            run(n, trials, seed, param)
            # each exact row is one 1-D ndtri call; the Wilson z is a scalar one
            assert rows.count(1) < budget, (run.__name__, n, param, rows.count(1))


class TestLambdaTrials:
    def test_one_sided_counts_sum(self):
        report = run_lambda_trials(60, 400, 5, 0.1)
        assert report.upper_count + report.lower_count == report.event_count
        assert report.bound == lambda_concentration_bound(60, 0.1)

    def test_vacuous_window(self):
        report = run_lambda_trials(60, 400, 5, 0.0)
        assert report.bound == 2.0
        assert report.frequency == 1.0  # lambda never lands on 1 exactly
        assert report.dominated

    @pytest.mark.parametrize("n", [30, 1])
    def test_matches_lambda_of(self, n):
        trials, seed, t = 200, 11, 0.2
        count = 0
        for i in range(trials):
            s = sphere_sample(n, RngStream(seed, i))
            if abs(1.0 - s.lam) > t:
                count += 1
        assert run_lambda_trials(n, trials, seed, t).event_count == count


class TestChisqTrials:
    def test_vacuous_deviation(self):
        up, lo = run_chisq_trials(50, 300, 2, 0.0)
        assert up.bound == 1.0 and lo.bound == 1.0
        assert up.dominated and lo.dominated

    @pytest.mark.parametrize("n", [50, 1])
    def test_events_match_threshold_form(self, n):
        # counting through the rearranged threshold form gives the same events
        trials, seed, x = 300, 2, 1.0
        up, lo = run_chisq_trials(n, trials, seed, x)
        y_up = n + 2.0 * math.sqrt(n * x) + 2.0 * x
        y_lo = n - 2.0 * math.sqrt(n * x)
        cu = cl = 0
        for i in range(trials):
            z = gaussian_vector(n, RngStream(seed, i))
            u = float(np.dot(z, z))
            cu += u - n >= y_up - n
            cl += n - u >= n - y_lo
        assert (up.event_count, lo.event_count) == (cu, cl)

    def test_determinism(self):
        a = run_chisq_trials(50, 300, 9, 0.5)
        b = run_chisq_trials(50, 300, 9, 0.5)
        assert a == b


class TestValidation:
    def test_trials_floor(self):
        with pytest.raises(DomainError):
            TrialConfig(N=10, trials=10, seed=0, epsilon=0.1, t=0.1)
        with pytest.raises(DomainError):
            run_dkw_trials(10, 99, 0, 0.1)

    def test_config_fields(self):
        with pytest.raises(DomainError):
            TrialConfig(N=0, trials=100, seed=0, epsilon=0.1, t=0.1)
        with pytest.raises(DomainError):
            TrialConfig(N=10, trials=100, seed=-1, epsilon=0.1, t=0.1)
        with pytest.raises(DomainError):
            TrialConfig(N=10, trials=100, seed=0, epsilon=0.0, t=0.1)
        with pytest.raises(DomainError):
            TrialConfig(N=10, trials=100, seed=0, epsilon=0.1, t=1.0)

    @pytest.mark.parametrize("bad", [-1, 2 ** 64, 1.5, "0"])
    def test_seed_domain(self, bad):
        with pytest.raises(DomainError):
            run_dkw_trials(10, 100, bad, 0.1)
        with pytest.raises(DomainError):
            run_lambda_trials(10, 100, bad, 0.1)
        with pytest.raises(DomainError):
            run_chisq_trials(10, 100, bad, 1.0)


class TestVerifyLemmas:
    def test_default_run_passes(self):
        report = verify_lemmas(grid_steps=120)
        failures = [(c.name, c.residual, c.threshold) for c in report.failures()]
        assert report.all_passed, failures

    def test_zero_tolerance_fails_somewhere(self):
        report = verify_lemmas(grid_steps=120, tolerance=0.0)
        assert not report.all_passed

    def test_scope_filtering(self):
        app = verify_lemmas(grid_steps=120, scope="appendix")
        assert {c.scope for c in app.checks} == {"appendix"}
        lem = verify_lemmas(grid_steps=120, scope="lemmas")
        assert {c.scope for c in lem.checks} == {"lemmas"}
        both = verify_lemmas(grid_steps=120, scope="all")
        assert len(both.checks) == len(app.checks) + len(lem.checks)

    def test_unknown_scope(self):
        with pytest.raises(DomainError, match="scope must be"):
            verify_lemmas(scope="x")

    def test_reports_worst_location(self):
        report = verify_lemmas(grid_steps=120)
        for c in report.checks:
            assert math.isfinite(c.where)

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            verify_lemmas(grid_steps=50)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_tolerance(self, bad):
        # a NaN threshold failed every check and reached JSON as NaN
        with pytest.raises(DomainError, match="tolerance"):
            verify_lemmas(grid_steps=100, tolerance=bad)

    def test_one_oracle_call_per_side(self, monkeypatch):
        # gap-symmetry's grid and gamma-closed-vs-oracle's 99 t share one plus-side call
        calls = []
        oracle = mc.dfm.gamma_oracle
        monkeypatch.setattr(mc.dfm, "gamma_oracle", lambda t, **kw: calls.append(
            (np.size(t), kw.get("side", "plus"))) or oracle(t, **kw))
        verify_lemmas(grid_steps=101, scope="lemmas")
        assert calls == [(101 + 99, "plus"), (101, "minus")]

    @pytest.mark.parametrize("skip", [0, 1, 3, 128, 1001])
    def test_scale_draws_equal_scalar_uniform_calls(self, skip):
        # the (t, lambda) draws keep the stream order and arithmetic of 128 alternating
        # gen.uniform calls, at any generator position, and leave the same state
        def scalar(gen):
            pairs = [(t := gen.uniform(0.01, 0.99), gen.uniform(1.0 - t, 1.0 + t))
                     for _ in range(64)]
            return np.array(pairs).T

        gen, ref = RngStream(0, 0).generator(), RngStream(0, 0).generator()
        gen.random(skip), ref.random(skip)
        for _ in range(3):
            got, want = mc._scale_draws(gen), scalar(ref)
            assert got.shape == want.shape == (2, 64) and got.tobytes() == want.tobytes()
            assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)

    def test_negative_tolerance_is_legal(self):
        report = verify_lemmas(grid_steps=100, tolerance=-1e-12)
        assert {c.threshold for c in report.checks} == {-1e-12}
