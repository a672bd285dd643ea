"""Trial runners: determinism, per-trial stream equivalence, Wilson verdicts."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

import spherecdf.montecarlo as mc
from spherecdf import (DomainError, RngStream, TrialConfig, build_ecdf,
                       dkw_bound, gamma_closed, gaussian_vector, ks_to_normal,
                       lambda_concentration_bound, run_chisq_trials,
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
            # (first, count) per block; threads may finish in any order
            assert sorted(blocks) == partition

    def test_thread_count_is_invisible(self, monkeypatch):
        # 7-row blocks: 14 full blocks and a ragged 2-row one (100 = 14 * 7 + 2)
        n, trials, seed = mc._THREAD_MIN_N, 100, 2 ** 63 + 11
        cfg = TrialConfig(N=n, trials=trials, seed=seed, epsilon=0.05, t=0.1)
        runs = (lambda: run_theorem_trials(cfg),
                lambda: run_dkw_trials(n, trials, seed, 0.05),
                lambda: run_lambda_trials(n, trials, seed, 0.05),
                lambda: run_chisq_trials(n, trials, seed, 1.0))
        draw, on_main = mc._keyed_uniforms, []
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * n)
        monkeypatch.setattr(
            mc, "_keyed_uniforms",
            lambda *a: on_main.append(threading.current_thread() is threading.main_thread())
            or draw(*a))
        reports = {}
        for workers in (1, 2):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            on_main.clear()
            reports[workers] = [run() for run in runs]
            # 15 blocks per runner, all on the main thread exactly when unthreaded
            assert on_main == [workers == 1] * (4 * 15)
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

    def test_impossible_threshold(self):
        # epsilon + gamma(t) > 1 cannot be exceeded by a KS distance
        cfg = TrialConfig(N=20, trials=200, seed=0, epsilon=0.9, t=0.5)
        report = run_theorem_trials(cfg)
        assert report.event_count == 0
        assert report.dominated

    def test_config_type_required(self):
        with pytest.raises(DomainError):
            run_theorem_trials((30, 300, 7, 0.1, 0.15))


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

    The two KS runners decide most rows without the normal CDF; the planted
    rows sit inside the band where _ks_statistics must decide, so the counts
    must still equal the one-trial-at-a-time pipeline's.
    """

    TRIALS = 100
    SHAPES = [(1, 0), (7, 3), (50, 2 ** 63 + 5), (200, 11)]

    @classmethod
    def planted(cls, values):
        """(threshold, expected count) for thresholds at and around every 10th statistic."""
        stats = np.array([ks_to_normal(build_ecdf(v)).statistic for v in values])
        for k in range(0, cls.TRIALS, 10):
            for thr in (np.nextafter(stats[k], 0.0), stats[k], np.nextafter(stats[k], 2.0)):
                yield float(thr), int(np.count_nonzero(stats > thr))

    @pytest.mark.parametrize("n, seed", SHAPES)
    def test_dkw_planted_threshold(self, n, seed):
        rows = [gaussian_vector(n, RngStream(seed, i)) for i in range(self.TRIALS)]
        for eps, expected in self.planted(rows):
            assert run_dkw_trials(n, self.TRIALS, seed, eps).event_count == expected, eps

    @pytest.mark.parametrize("n, seed", SHAPES)
    def test_theorem_planted_threshold(self, n, seed):
        # gamma(0) = 0, so at t = 0 the runner's threshold is epsilon itself
        assert gamma_closed(0.0).gamma == 0.0
        rows = [sphere_sample(n, RngStream(seed, i)).coords * math.sqrt(n)
                for i in range(self.TRIALS)]
        for eps, expected in self.planted(rows):
            cfg = TrialConfig(N=n, trials=self.TRIALS, seed=seed, epsilon=eps, t=0.0)
            assert run_theorem_trials(cfg).event_count == expected, eps


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

    def test_matches_lambda_of(self):
        n, trials, seed, t = 30, 200, 11, 0.2
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

    def test_events_match_threshold_form(self):
        # counting through the rearranged threshold form gives the same events
        n, trials, seed, x = 50, 300, 2, 1.0
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
        with pytest.raises(DomainError):
            verify_lemmas(grid_steps=100, seed=bad)


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

    def test_negative_tolerance_is_legal(self):
        report = verify_lemmas(grid_steps=100, tolerance=-1e-12)
        assert {c.threshold for c in report.checks} == {-1e-12}
