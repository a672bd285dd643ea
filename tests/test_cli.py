"""Command-line surface: flag validation, formats, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spherecdf
from spherecdf import (DomainError, RngStream, build_ecdf, gaussian_vector, ks_to_normal,
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

    # a count past 2^64 - 1 is an input error (exit 2), not an OverflowError
    @pytest.mark.parametrize("n", ["18446744073709551616", "1" + "0" * 400],
                             ids=["2**64", "10**400"])
    def test_n_beyond_64_bits_exits_2(self, capsys, n):
        code, out, err = run_cli(capsys, "bound-eval", "--n", n, "--epsilon", "0.1",
                                 "--t", "0.2")
        assert code == 2 and out == ""
        assert err.startswith("error: N must lie in [1, 18446744073709551615]")

    # a count that sizes an array past 2^53 is an input error (exit 2), refused
    # before numpy is asked for the array, not a bare numpy error (exit 1)
    @pytest.mark.parametrize("argv", [
        ["verify", "--grid-steps", str(2**63)],
        ["simulate", "--kind", "dkw", "--n", str(2**63), "--epsilon", "0.1"],
        ["simulate", "--kind", "dkw", "--n", "10", "--trials", str(2**63), "--epsilon", "0.1"],
        ["gamma", "--steps", str(2**63)]], ids=["grid-steps", "n", "trials", "steps"])
    def test_array_size_beyond_2_53_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.splitlines()[0].endswith(
            f", 9007199254740992], got {2**63}")

    # below 2^53 an array too large for memory is an input error too; the child
    # caps only its own address space, 256 MiB above its size after import, so
    # 2^28 steps (a 2 GiB array) fail there as 2^53 steps fail anywhere
    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
    @pytest.mark.parametrize("argv", [
        ["verify", "--grid-steps", str(2**53)],
        ["verify", "--grid-steps", str(2**28)],
        ["gamma", "--steps", str(2**28)]], ids=["grid-steps-2**53", "grid-steps", "steps"])
    def test_out_of_memory_exits_2(self, argv):
        proc = _run_capped(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert sum(line.startswith("error: ") for line in proc.stderr.splitlines()) == 1

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

    def test_rows_over_several_filter_blocks_match_per_row_replay(self, capsys, tmp_path):
        # the file's one split search prices three filter blocks and a partial one
        from spherecdf.tail_bounds import _FILTER_BLOCK, _GRID_POINTS
        count = 3 * (_FILTER_BLOCK // _GRID_POINTS) + 5
        path = tmp_path / "many.txt"
        rows = [sphere_sample(40, RngStream(8, i)).coords if i % 3 else
                (1.0 + i / count) * gaussian_vector(40, RngStream(9, i)) for i in range(count)]
        self.write_rows(path, rows)
        code, out, _ = run_cli(capsys, "test-uniformity", "--input", str(path),
                               "--format", "csv")
        assert code == 0
        _, got = parse_csv(out)
        assert len(got) == count
        for i, row in enumerate(load_vector_file(path)):
            warned = abs(math.sqrt(float(np.dot(row, row))) - 1.0) > 1e-6
            ks = ks_to_normal(build_ecdf(row if warned else row * math.sqrt(40))).statistic
            p = p_value_bound(40, min(ks, 1.0))
            assert got[i] == [_fmt(v) for v in (i, 40, warned, ks, p, p < 0.05)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_same_for_every_file_form(self, capsys, monkeypatch, tmp_path, fmt):
        rows = [(sphere_sample(60, RngStream(7, i)).coords if i % 2 == 0
                 else 1.2 * gaussian_vector(60, RngStream(7, i))).tolist() for i in range(6)]
        tokens = [[repr(v) for v in row] for row in rows]
        first = tokens[0][0]
        at = next(i for i in range(len(first) - 1) if (first[i] + first[i + 1]).isdigit())
        underscored = [row[:] for row in tokens]
        underscored[0][0] = first[:at + 1] + "_" + first[at + 1:]
        # separators that str.split() and numpy's reader both take, and that text-mode
        # reading never takes as a line break (str.splitlines() breaks at all but \x1f)
        seps = "\x0c\x1d\x1e\x1f\x85\u2028\u2029"
        forms = {
            "csv": "".join(",".join(row) + "\n" for row in tokens).encode(),
            "whitespace": "".join(" \t".join(row) + "\n" for row in tokens).encode(),
            "bom crlf comments": b"\xef\xbb\xbf" + "".join(
                f"# row {i}\r\n" + ", ".join(row) + "\r\n" for i, row in enumerate(tokens)).encode(),
            "underscore": "".join(",".join(row) + "\n" for row in underscored).encode(),
            "unicode separators": "".join(row[0] + "".join(
                seps[(i + j) % len(seps)] + v for j, v in enumerate(row[1:])) + "\n"
                for i, row in enumerate(tokens)).encode(),
        }
        # each matrix numpy's reader returns
        read_by_numpy = []
        loadtxt = np.loadtxt

        def loadtxt_spy(*args, **kwargs):
            read_by_numpy.append(loadtxt(*args, **kwargs))
            return read_by_numpy[-1]
        monkeypatch.setattr(np, "loadtxt", loadtxt_spy)
        # one path for every form, so the json inputs echo is the same too
        path = tmp_path / "v.txt"
        outs = {}
        for name, data in forms.items():
            path.write_bytes(data)
            read_by_numpy.clear()
            outs[name] = run_cli(capsys, "test-uniformity", "--input", str(path), "--format", fmt)
            # numpy refuses the underscored token and leaves the file to float()
            assert [m.shape for m in read_by_numpy] == ([] if name == "underscore" else [(6, 60)])
            if read_by_numpy:  # numpy's matrix is float()'s, one row per line
                assert read_by_numpy[0].tolist() == [list(map(float, row)) for row in tokens]
        assert outs["csv"][0] == 0 and outs["csv"][1]
        assert all(out == outs["csv"] for out in outs.values())

    def test_overflowing_norm_flagged_without_warning(self, capsys, tmp_path):
        # |row|^2 overflows, so the norm is inf and the row is flagged; numpy's
        # overflow warning (an error in this suite) must not reach stderr
        path = tmp_path / "huge.txt"
        path.write_text("1e200 1e200\n0.6 0.8\n")
        code, out, err = run_cli(capsys, "test-uniformity", "--input", str(path),
                                 "--format", "csv")
        assert (code, err) == (0, "")
        _, got = parse_csv(out)
        assert [r[2] for r in got] == ["true", "false"]

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

    def test_read_error_wins_over_a_line_error(self, capsys, tmp_path):
        # the file is read whole before any line is converted, so a byte that
        # does not decode, 200 KB down, is reported over an unparsable line 2
        path = tmp_path / "v.txt"
        path.write_bytes(b"0.5 0.5\n0.1 abc\n" + b"0.6 0.8\n" * 25_600 + b"\xff\n")
        code, out, err = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert (code, out) == (2, "")
        assert f"cannot read {path}" in err and "unparsable" not in err

    def test_separator_only_row(self, capsys, tmp_path):
        # a row of width 0 used to reach the KS kernel and exit 1 with a traceback
        path = tmp_path / "commas.txt"
        path.write_text("# header\n,\n , ,\n")
        code, out, err = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert (code, out) == (2, "")
        assert f"{path}:2: no values" in err

    @pytest.mark.parametrize("text", ["0.6 0.8\n1.0 0.0\n", "# comment\n0.6, 0.8\n2 0\n"])
    def test_byte_order_mark(self, capsys, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert np.array_equal(load_vector_file(marked), load_vector_file(plain))
        outs = [run_cli(capsys, "test-uniformity", "--input", str(p), "--format", "csv")
                for p in (plain, marked)]
        assert outs[0][0] == 0 and outs[0][1]
        assert outs[1] == outs[0]

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


# pieces of an adversarial vector file: every separator, sign, digit and word
# that float() and numpy's reader might treat differently, line ends included
_PIECES = [*"0123456789.eE+-_, \t\x0b\xa0\u2003\x1c\x00#\r\n",
           "nan", "inf", "\u0660", "\u0665", "\u0669"]
_SEPARATORS = [",", " ", ", ", "\t", "\x0b", "\xa0", "\u2003", "\x1c", ",,", " ,"]
_FIELDS = st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
                    st.lists(st.sampled_from(_PIECES), max_size=6).map("".join))


@st.composite
def _vector_files(draw):
    """Text of a vector file: mostly rectangular rows, with comments, blanks and noise."""
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank", "noise"]))
        if kind == "row":
            ragged = draw(st.sampled_from([0, 0, 0, 1]))
            fields = draw(st.lists(_FIELDS, min_size=width, max_size=width + ragged))
            line = draw(st.sampled_from(_SEPARATORS)).join(fields)
        elif kind == "comment":
            line = "#" + draw(_FIELDS)
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "\xa0", ","]))
        else:
            line = "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=12)))
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (draw(st.sampled_from(["", "\ufeff"])) + end.join(lines)
            + draw(st.sampled_from(["", end])))


class TestLoader:
    def test_rectangular(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# header\n1, 2, 3\n4 5 6\n\n")
        mat = load_vector_file(path)
        assert mat.shape == (2, 3)
        assert np.array_equal(mat[1], [4.0, 5.0, 6.0])

    # each text with its tokens, as float() must read them
    @pytest.mark.parametrize("text, tokens", [
        ("1_0 2.5_5\n3 4\n", [["1_0", "2.5_5"], ["3", "4"]]),
        ("\u0661.\u0665 0.5\n", [["\u0661.\u0665", "0.5"]]),
        ("1,2,\n3,4,\n", [["1", "2"], ["3", "4"]]),
        ("1,,2\n", [["1", "2"]]),
        ("1\xa02\xa0\xa03\n", [["1", "2", "3"]]),
    ])
    def test_forms_load_as_float_reads_them(self, tmp_path, text, tokens):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        want = np.array([[float(t) for t in row] for row in tokens])
        assert load_vector_file(path).tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", ["# only\n# comments\n", "\n  \n\t\n"])
    def test_no_data_rows_warns_nothing(self, capsys, recwarn, tmp_path, text):
        path = tmp_path / "v.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "test-uniformity", "--input", str(path))
        assert (code, out) == (2, "")
        assert f"{path}: no data rows" in err
        assert len(recwarn) == 0

    @settings(max_examples=400)
    @given(text=_vector_files())
    def test_matches_float_reference_parse(self, text):
        want = _reference_parse(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.txt"
            path.write_bytes(text.encode("utf-8"))
            if want is None:
                with pytest.raises(DomainError):
                    load_vector_file(path)
            else:
                got = load_vector_file(path)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def _reference_parse(text):
    """README's input language read with float() alone: the matrix, or None if refused."""
    rows = []
    for line in re.split("\r\n|\r|\n", text.removeprefix("\ufeff")):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(token) for token in line.replace(",", " ").split()])
        except ValueError:
            return None
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        return None
    mat = np.array(rows)
    return mat if np.isfinite(mat).all() else None


def _run_module(*args, prefix=("-m", "spherecdf")):
    # the child imports the same spherecdf as this suite, installed or not
    paths = [str(Path(spherecdf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *prefix, *args],
                          capture_output=True, text=True, env=env)


# cli.main in a child whose address space is capped 256 MiB above its size
# after import, so an allocation beyond that raises MemoryError in it alone
_CAPPED_MAIN = """
import resource, sys
from spherecdf import cli
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = size + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_capped(*args):
    return _run_module(*args, prefix=["-c", _CAPPED_MAIN])


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
