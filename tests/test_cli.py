"""Command-line surface: flag validation, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherecdf
from spherecdf import (RngStream, build_ecdf, gaussian_vector, ks_to_normal,
                       p_value_bound, sphere_sample)
from spherecdf.cli import _fmt, load_vector_file, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestBoundEval:
    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, "bound-eval", "--n", "100",
                               "--epsilon", "0.1", "--t", "0.2")
        assert code == 0
        assert "theorem" in out and "corollary" in out

    def test_values_in_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bound-eval", "--n", "100", "--epsilon",
                               "0.1", "--t", "0.2", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        by_variant = {r[header.index("variant")]: r for r in rows}
        th_total = float(by_variant["theorem"][header.index("total")])
        co_total = float(by_variant["corollary"][header.index("total")])
        assert abs(th_total - 0.372878069065) <= 1e-9
        assert abs(co_total - 0.858769030093) <= 1e-9

    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "bound-eval", "--n", "100", "--epsilon",
                            "0.1", "--t", "0.2", "--format", "csv")
        header, rows = parse_csv(out)
        for row in rows:
            rec = dict(zip(header, row))
            total = (float(rec["dkw_term"]) + float(rec["gplus_term"])
                     + float(rec["gminus_term"]))
            assert abs(total - float(rec["total"])) <= 1e-11 * max(1.0, total)

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bound-eval", "--n", "100", "--epsilon",
                               "0.1", "--t", "0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "inputs", "results", "seed", "version"}
        assert payload["command"] == "bound-eval"
        assert set(payload["results"]) == {"theorem", "corollary"}

    def test_out_of_domain_t(self, capsys):
        code, _, err = run_cli(capsys, "bound-eval", "--n", "100",
                               "--epsilon", "0.1", "--t", "1.0")
        assert code == 2
        assert "error" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound-eval", "--n", "100", "--epsilon", "0.1", "--t", "0.2",
                  "--bogus", "1"])
        assert exc.value.code == 2


class TestBoundOptimize:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bound-optimize", "--n", "10000",
                               "--delta", "0.05", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        rec = dict(zip(header, rows[0]))
        assert float(rec["best_total"]) < 0.01
        assert float(rec["best_t"]) > 0.0

    def test_bad_delta(self, capsys):
        code, _, _ = run_cli(capsys, "bound-optimize", "--n", "100", "--delta", "-1")
        assert code == 2


class TestGammaTable:
    def test_columns_and_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--t-min", "0", "--t-max", "0.9",
                               "--steps", "10", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "gamma", "gamma_oracle", "half_t", "g_plus",
                          "g_minus", "g_minus_lb", "g_plus_lb"]
        assert len(rows) == 10
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        assert float(first["gamma"]) == 0.0
        assert float(first["g_minus_lb"]) == 0.0
        for row in rows:
            rec = {k: float(v) for k, v in zip(header, row)}
            assert rec["gamma"] <= rec["half_t"] + 1e-12
            assert abs(rec["gamma"] - rec["gamma_oracle"]) <= 1e-7
            assert abs(rec["g_minus_lb"] - rec["t"]) <= 1e-12
            assert abs(rec["g_plus_lb"] - 0.375 * rec["t"]) <= 1e-12

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "gamma", "--t-min", "0.5", "--t-max", "0.2")
        assert code == 2
        code, _, _ = run_cli(capsys, "gamma", "--t-max", "1.0")
        assert code == 2


class TestSimulate:
    ARGS = ["simulate", "--kind", "theorem", "--n", "30", "--trials", "400",
            "--seed", "3", "--epsilon", "0.12", "--t", "0.15"]

    def test_exit_zero_when_dominated(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "seed=3" in out

    def test_byte_identical_repeats(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        _, out2, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert out1 == out2
        _, j1, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        _, j2, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert j1 == j2

    def test_chisq_emits_both_sides(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--kind", "chisq", "--n", "50",
                               "--trials", "300", "--x", "1.0", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[header.index("side")] for r in rows] == ["upper", "lower"]

    def test_lambda_counts_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--kind", "lambda", "--n", "50",
                               "--trials", "300", "--t", "0.2", "--format", "json")
        assert code == 0
        rep = json.loads(out)["results"]["two_sided"]
        assert rep["upper_count"] + rep["lower_count"] == rep["event_count"]

    def test_top_seed_is_not_seed_zero(self, capsys):
        # 2^64 - 1 once became key 0 on its way through float64
        args = ["simulate", "--kind", "dkw", "--n", "50", "--trials", "2000",
                "--epsilon", "0.1", "--format", "csv"]

        def count(seed):
            _, out, _ = run_cli(capsys, *args, "--seed", str(seed))
            header, rows = parse_csv(out)
            return rows[0][header.index("event_count")]

        assert count(2 ** 64 - 1) != count(0)

    def test_trials_below_wilson_floor(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--kind", "dkw", "--n", "50",
                             "--trials", "10", "--epsilon", "0.1")
        assert code == 2

    def test_per_kind_flag_validation(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--kind", "theorem", "--n", "30",
                               "--trials", "200", "--epsilon", "0.1")
        assert code == 2 and "--t" in err
        code, _, err = run_cli(capsys, "simulate", "--kind", "dkw", "--n", "30",
                               "--trials", "200", "--epsilon", "0.1", "--x", "1")
        assert code == 2 and "--x" in err


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid-steps", "120")
        assert code == 0
        assert "all checks passed" in out

    def test_zero_tolerance_fails(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--grid-steps", "120",
                             "--tolerance", "0")
        assert code == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_tolerance_is_usage_error(self, capsys, bad):
        code, out, err = run_cli(capsys, "verify", "--grid-steps", "120",
                                 f"--tolerance={bad}", "--format", "json")
        assert (code, out) == (2, "")
        assert "tolerance" in err

    def test_appendix_scope(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "appendix",
                               "--grid-steps", "120", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert {r[header.index("scope")] for r in rows} == {"appendix"}

    def test_byte_identical_repeats(self, capsys):
        _, a, _ = run_cli(capsys, "verify", "--grid-steps", "120", "--format", "json")
        _, b, _ = run_cli(capsys, "verify", "--grid-steps", "120", "--format", "json")
        assert a == b


class TestUniformity:
    @staticmethod
    def write_rows(path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# candidate vectors\n")
            for row in rows:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")

    def test_genuine_rows_kept(self, capsys, tmp_path):
        path = tmp_path / "sphere.txt"
        rows = [sphere_sample(400, RngStream(0, i)).coords for i in range(8)]
        self.write_rows(path, rows)
        code, out, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["summary"]["rejected"] == 0
        assert all(not r["norm_warning"] for r in payload["results"]["rows"])

    def test_scaled_rows_flagged_and_rejected(self, capsys, tmp_path):
        path = tmp_path / "scaled.txt"
        rows = [1.2 * gaussian_vector(4000, RngStream(1, i)) for i in range(3)]
        self.write_rows(path, rows)
        code, out, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                               "--alpha", "0.05", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for row in payload["results"]["rows"]:
            assert row["norm_warning"]
            assert row["reject"]

    def test_csv_rows_match_per_row_replay(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        rows = [sphere_sample(300, RngStream(5, i)).coords if i % 2 == 0
                else 1.2 * gaussian_vector(300, RngStream(6, i)) for i in range(8)]
        self.write_rows(path, rows)
        code, out, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                               "--format", "csv")
        assert code == 0
        _, got = parse_csv(out)
        for i, row in enumerate(load_vector_file(path)):
            warned = abs(math.sqrt(float(np.dot(row, row))) - 1.0) > 1e-6
            assert warned == (i % 2 == 1)
            ks = ks_to_normal(build_ecdf(row if warned else row * math.sqrt(300))).statistic
            p = p_value_bound(300, min(ks, 1.0))
            assert got[i] == [_fmt(v) for v in (i, 300, warned, ks, p, p < 0.05)]

    def test_one_dimension(self, capsys, tmp_path):
        path = tmp_path / "scalars.txt"
        path.write_text("1.0\n-1.0\n0.0\n2.5\n")
        code, out, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                               "--format", "csv")
        assert code == 0
        _, got = parse_csv(out)
        assert [r[2] for r in got] == ["false", "false", "true", "true"]

    def test_json_norm_warnings_are_booleans(self, capsys, tmp_path):
        path = tmp_path / "scalars.txt"
        path.write_text("1.0\n0.0\n")
        code, out, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                               "--format", "json")
        assert code == 0
        flags = [r["norm_warning"] for r in json.loads(out)["results"]["rows"]]
        assert flags == [False, True]
        assert all(type(f) is bool for f in flags)

    def test_comma_separated_and_csv_format(self, capsys, tmp_path):
        path = tmp_path / "commas.txt"
        coords = sphere_sample(50, RngStream(2, 0)).coords
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(repr(float(v)) for v in coords) + "\n")
        code, out, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                               "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["row", "n", "norm_warning", "ks_statistic", "p_bound",
                          "reject"]
        assert len(rows) == 1

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code, _, _ = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert code == 2

    def test_ragged_file(self, capsys, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1.0 2.0\n1.0\n")
        code, _, _ = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert code == 2

    def test_non_utf8_file(self, capsys, tmp_path):
        # a decoding failure is an input error, not a failed check (exit 1)
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0.5 0.5\n\xff 1\n")
        code, out, err = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert (code, out) == (2, "")
        assert "cannot read" in err

    def test_unparsable_value(self, capsys, tmp_path):
        path = tmp_path / "abc.txt"
        path.write_text("0.5 0.5\n0.1 abc\n")
        code, out, err = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert (code, out) == (2, "")
        assert f"{path}:2: unparsable value" in err

    def test_nonfinite_file(self, capsys, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1.0 nan\n")
        code, _, _ = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert code == 2

    def test_bad_alpha(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0 0.0\n")
        code, _, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                             "--alpha", "1.5")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "test-uniformity", "--input", "/no/such/file")
        assert code == 2


class TestLoader:
    def test_rectangular(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# header\n1, 2, 3\n4 5 6\n\n")
        mat = load_vector_file(path)
        assert mat.shape == (2, 3)
        assert np.array_equal(mat[1], [4.0, 5.0, 6.0])


def _run_module(*args):
    # the child imports the same spherecdf as this suite, installed or not
    paths = [str(Path(spherecdf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "spherecdf", *args],
                          capture_output=True, text=True, env=env)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = _run_module("bound-eval", "--n", "50", "--epsilon", "0.1", "--t", "0.1",
                           "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "bound-eval"

    def test_version_flag(self):
        proc = _run_module("--version")
        assert proc.returncode == 0
        assert "spherecdf" in proc.stdout
