"""Trial runners: determinism, per-trial stream equivalence, Wilson verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import spherecdf.montecarlo as mc
from spherecdf import (DomainError, RngStream, TrialConfig, build_ecdf,
                       dkw_bound, gaussian_vector, ks_to_normal,
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
        with pytest.raises(DomainError, match="trials must be a positive integer"):
            wilson_interval(5, 10.0)


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
        draw, blocks = mc._gaussian_rows, []
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(mc, "_gaussian_rows",
                            lambda *a: blocks.append(a[3]) or draw(*a))
        assert [run() for run in runs] == before
        rows = max(1, chunk // 30)
        per_run = [rows] * (300 // rows) + ([300 % rows] if 300 % rows else [])
        assert blocks == per_run * len(runs)

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
