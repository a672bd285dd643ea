"""Golden stdout contract: exact stdout, stderr and exit code of every subcommand.

`cli_golden.json` holds, for each command line, what `main` writes and returns:
every subcommand in human, csv and json, two usage errors caught by argparse,
two caught by the library, and the help text of every parser.  Any byte of
difference fails.  After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the data file.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from spherecdf import cli
from spherecdf.cli import main

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")
FORMATS = ("human", "csv", "json")
COMMANDS = [
    ["bound-eval", "--n", "100", "--epsilon", "0.1", "--t", "0.2"],
    ["bound-optimize", "--n", "10000", "--delta", "0.05"],
    ["bound-optimize", "--n", "500", "--delta", "0.3", "--mode", "corollary"],
    ["gamma", "--t-min", "0", "--t-max", "0.9", "--steps", "10"],
    ["simulate", "--kind", "theorem", "--n", "30", "--trials", "400", "--seed", "3",
     "--epsilon", "0.12", "--t", "0.15"],
    ["simulate", "--kind", "dkw", "--n", "50", "--trials", "500", "--epsilon", "0.1"],
    ["simulate", "--kind", "lambda", "--n", "50", "--trials", "300", "--seed", "7",
     "--t", "0.2"],
    ["simulate", "--kind", "chisq", "--n", "50", "--trials", "300", "--x", "1.0"],
    ["verify", "--grid-steps", "120"],
    # the oracle's output on the bench grid (gap-symmetry at 1000 t)
    ["verify", "--scope", "lemmas", "--grid-steps", "1000", "--tolerance", "0"],
    # the appendix checks' residuals on the bench grid
    ["verify", "--scope", "appendix", "--grid-steps", "1000", "--tolerance", "0"],
    ["test-uniformity", "--input", "vectors.txt", "--alpha", "0.7"],
]
# recorded in the default format only
EXTRA = [
    ["verify", "--scope", "appendix", "--grid-steps", "120", "--tolerance", "0"],
    ["bound-eval", "--t", "1.0"],
    ["simulate", "--kind", "dkw", "--x", "1"],
    ["bound-eval", "--n", "100", "--epsilon", "0.1", "--t", "1.0"],
    ["simulate", "--kind", "dkw", "--n", "30", "--trials", "200", "--epsilon", "0.1",
     "--x", "1"],
    ["--help"],
    *([name, "--help"] for name in ("bound-eval", "bound-optimize", "gamma", "simulate",
                                    "verify", "test-uniformity")),
    # the oracle and the rates near t = 1 (333 steps to 0.999999)
    ["gamma", "--t-min", "0", "--t-max", "0.999999", "--steps", "333", "--format", "json"],
    # every check's residual on an odd grid (1001 t)
    ["verify", "--scope", "all", "--grid-steps", "1001", "--tolerance", "0", "--format",
     "json"],
    # a budget whose feasible t range is {0} (t_max = 0), in every format
    *(["bound-optimize", "--n", "1000", "--delta", "1e-13", "--format", fmt]
      for fmt in FORMATS),
]
ARGVS = [[*argv, "--format", fmt] for argv in COMMANDS for fmt in FORMATS] + EXTRA


def run(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on --help and bad flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _vectors_text():
    from spherecdf import RngStream, gaussian_vector, sphere_sample
    rows = [sphere_sample(200, RngStream(5, i)).coords if i % 2 == 0
            else 1.2 * gaussian_vector(200, RngStream(6, i)) for i in range(4)]
    return "# two sphere points, two 1.2x-scaled Gaussians\n" + "".join(
        " ".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _record():
    os.environ["COLUMNS"] = "80"
    text = _vectors_text()
    Path("vectors.txt").write_text(text, encoding="utf-8")
    cases = []
    for argv in ARGVS:
        code, out, err = run(argv)
        cases.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    GOLDEN.write_text(json.dumps({"files": {"vectors.txt": text}, "cases": cases},
                                 indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def workdir(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")


def test_cases_match_command_list(golden):
    assert [case["argv"] for case in golden["cases"]] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)), ids=[" ".join(a) for a in ARGVS])
def test_golden_output(golden, workdir, index):
    case = golden["cases"][index]
    assert run(case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# subcommands in several formats, argparse usage errors, a library error and
# --help, in one order
SESSION = [
    ["bound-eval", "--n", "100", "--epsilon", "0.1", "--t", "0.2", "--format", "csv"],
    ["bound-eval", "--t", "1.0"],
    ["simulate", "--kind", "dkw", "--n", "50", "--trials", "500", "--epsilon", "0.1",
     "--format", "json"],
    ["simulate", "--kind", "dkw", "--x", "1"],
    ["test-uniformity", "--input", "vectors.txt", "--alpha", "0.7", "--format", "human"],
    ["bound-eval", "--n", "100", "--epsilon", "0.1", "--t", "1.0"],
    ["simulate", "--help"],
    ["gamma", "--t-min", "0", "--t-max", "0.9", "--steps", "10", "--format", "json"],
    ["bound-eval", "--n", "100", "--epsilon", "0.1", "--t", "0.2", "--format", "csv"],
]


def test_one_parser_serves_every_call(golden, workdir, monkeypatch):
    # main builds its parser on the first call of a process and reuses it, so
    # an earlier call, a usage error included, must not change a later output
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cases = {tuple(case["argv"]): case for case in golden["cases"]}
    for argv in SESSION:
        case = cases[tuple(argv)]
        assert run(argv) == (case["code"], case["stdout"], case["stderr"])
    assert len(builds) == 1
    assert build() is not cli._PARSER  # build_parser still returns a fresh parser


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _record()
