"""Command-line surface: bound tables, simulations, verification, uniformity test.

Subcommands
    bound-eval      evaluate the exact and simplified bounds side by side
    bound-optimize  best (epsilon, t) split for a total deviation budget
    gamma           table of the gap function, its oracle, and secant bounds
    simulate        Monte Carlo domination run (theorem / dkw / lambda / chisq)
    verify          run the lemma / appendix verification suite
    test-uniformity conservative sphere-uniformity test on a vector file

Exit codes: 0 on success or domination, 1 when a mathematical check or
domination verdict fails, 2 on usage or input errors.  Output formats are
human (default), csv (12 significant digits, LF line endings), and json (one
top-level object with fields command/inputs/results/seed/version).  All output
is a pure function of the flags; seeds default to 0 and are echoed.

Each subcommand's handler computes one `_Result` (its json results, its csv
header and rows, its human lines and its exit code) and writes nothing; `main`
renders that record in the requested format through `_emit`, the only write
to stdout, which echoes the parsed flags as the json inputs.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from . import __version__
from .deformation import gamma_closed, gamma_oracle
from .empirical import _ks_statistics
from .errors import DomainError, check_int, check_real
from .montecarlo import (TrialConfig, run_chisq_trials, run_dkw_trials,
                         run_lambda_trials, run_theorem_trials, verify_lemmas)
from .sampling import _norms
from .tail_bounds import (BoundInputs, _breakdown, corollary_bound, g_minus,
                          g_plus, optimize_split, p_value_bound, theorem_bound)

_FORMATS = ("human", "csv", "json")

# simulate --kind: the flags it requires (every other of --epsilon, --t, --x is
# refused) and its runner, which maps each reported side to its report
_SIMULATE = {
    "theorem": (("epsilon", "t"), lambda a: {"two_sided": run_theorem_trials(
        TrialConfig(a.n, a.trials, a.seed, a.epsilon, a.t))}),
    "dkw": (("epsilon",), lambda a: {
        "two_sided": run_dkw_trials(a.n, a.trials, a.seed, a.epsilon)}),
    "lambda": (("t",), lambda a: {
        "two_sided": run_lambda_trials(a.n, a.trials, a.seed, a.t)}),
    "chisq": (("x",), lambda a: dict(zip(
        ("upper", "lower"), run_chisq_trials(a.n, a.trials, a.seed, a.x)))),
}


class _Result(NamedTuple):
    """What one subcommand computed, in the shape of each output format."""

    results: dict   # json
    header: list    # csv
    rows: list      # csv
    human: list     # lines
    code: int = 0


def _fmt(value) -> str:
    """CSV cell rendering: 12 significant digits for floats, bare ints, lowercase bools."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _emit(args, res, out):
    if args.format == "json":
        # inputs echo every flag but the presentation-only --format, in parser
        # order; --seed is the top-level seed, None where a subcommand has none
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "format", "seed")}
        payload = {"command": args.command, "inputs": inputs, "results": res.results,
                   "seed": getattr(args, "seed", None), "version": __version__}
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    lines = res.human if args.format == "human" else [
        ",".join(_fmt(v) for v in row) for row in [res.header, *res.rows]]
    out.write("".join(line + "\n" for line in lines))


def _breakdown_dict(b):
    return {"threshold": b.threshold, "dkw_term": b.dkw_term, "gplus_term": b.gplus_term,
            "gminus_term": b.gminus_term, "total": b.total}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecdf",
        description="Concentration bounds for the empirical CDF of a uniform sphere point.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound-eval", help="evaluate the exact and simplified bounds")
    p.add_argument("--n", type=int, required=True, help="dimension N")
    p.add_argument("--epsilon", type=float, required=True, help="tube half-width")
    p.add_argument("--t", type=float, required=True, help="scale window in [0, 1)")

    p = sub.add_parser("bound-optimize", help="optimize the (epsilon, t) split")
    p.add_argument("--n", type=int, required=True, help="dimension N")
    p.add_argument("--delta", type=float, required=True, help="total deviation budget")
    p.add_argument("--mode", choices=("exact_gamma", "corollary"), default="exact_gamma")

    p = sub.add_parser("gamma", help="table of the gap function and secant bounds")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=100)

    p = sub.add_parser("simulate", help="Monte Carlo domination run")
    p.add_argument("--kind", choices=tuple(_SIMULATE), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--x", type=float, default=None)

    p = sub.add_parser("verify", help="run the lemma / appendix verification suite")
    p.add_argument("--scope", choices=("lemmas", "appendix", "all"), default="all")
    p.add_argument("--grid-steps", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every check's own threshold")

    p = sub.add_parser("test-uniformity", help="conservative sphere-uniformity test")
    p.add_argument("--input", required=True, help="vector file, one candidate per line")
    p.add_argument("--alpha", type=float, default=0.05)

    for p in sub.choices.values():
        p.add_argument("--format", choices=_FORMATS, default="human",
                       help="output format (default: human)")
    return parser


def load_vector_file(path) -> np.ndarray:
    """Parse a vector file: one row per line, comma or whitespace separated.

    Lines starting with '#' and blank lines are skipped.  Rows must be
    rectangular with finite entries.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    row = [float(tok) for tok in text.replace(",", " ").split()]
                except ValueError:
                    raise DomainError(f"{path}:{lineno}: unparsable value") from None
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DomainError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DomainError(f"{path}: rows have inconsistent lengths")
    mat = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        raise DomainError(f"{path}: non-finite entries")
    return mat


def _cmd_bound_eval(args) -> _Result:
    variants = (("theorem", theorem_bound(BoundInputs(args.n, args.epsilon, args.t))),
                ("corollary", corollary_bound(args.n, args.epsilon, args.t)))
    results = {name: _breakdown_dict(b) for name, b in variants}
    return _Result(
        results, ["n", "epsilon", "t", "variant", *results["theorem"]],
        [[args.n, args.epsilon, args.t, name, *d.values()] for name, d in results.items()],
        [f"inputs: n={args.n} epsilon={_fmt(args.epsilon)} t={_fmt(args.t)}"]
        + [f"{name:9s} threshold={_fmt(b.threshold)} dkw={_fmt(b.dkw_term)} "
           f"gplus={_fmt(b.gplus_term)} gminus={_fmt(b.gminus_term)} total={_fmt(b.total)}"
           for name, b in variants])


def _cmd_bound_optimize(args) -> _Result:
    opt = optimize_split(args.n, args.delta, args.mode)
    br = _breakdown(args.n, opt.best_epsilon, opt.best_t, opt.mode)
    return _Result(
        {"delta": opt.delta, "best_epsilon": opt.best_epsilon, "best_t": opt.best_t,
         "best_total": opt.best_total, "mode": opt.mode, "breakdown": _breakdown_dict(br)},
        ["n", "delta", "mode", "best_epsilon", "best_t", "best_total",
         "threshold", "dkw_term", "gplus_term", "gminus_term"],
        [[args.n, args.delta, args.mode, opt.best_epsilon, opt.best_t, opt.best_total,
          br.threshold, br.dkw_term, br.gplus_term, br.gminus_term]],
        [f"inputs: n={args.n} delta={_fmt(args.delta)} mode={args.mode}",
         f"best split: epsilon={_fmt(opt.best_epsilon)} t={_fmt(opt.best_t)} "
         f"total={_fmt(opt.best_total)}",
         f"breakdown: dkw={_fmt(br.dkw_term)} gplus={_fmt(br.gplus_term)} "
         f"gminus={_fmt(br.gminus_term)} threshold={_fmt(br.threshold)}"])


def _cmd_gamma(args) -> _Result:
    if not (0.0 <= args.t_min < args.t_max < 1.0):
        raise DomainError("need 0 <= t-min < t-max < 1")
    check_int(args.steps, "steps", 2)
    ts = np.linspace(args.t_min, args.t_max, args.steps)
    header = ["t", "gamma", "gamma_oracle", "half_t", "g_plus", "g_minus",
              "g_minus_lb", "g_plus_lb"]
    rows = [[tv, gamma_closed(tv).gamma, oracle, 0.5 * tv, g_plus(tv), g_minus(tv),
             tv, 0.375 * tv] for tv, oracle in zip(ts.tolist(), gamma_oracle(ts).tolist())]
    return _Result(
        {"columns": header, "rows": rows}, header, rows,
        ["  ".join(f"{_fmt(v):>14s}" for v in row) for row in [header, *rows]])


def _cmd_simulate(args) -> _Result:
    required, runner = _SIMULATE[args.kind]
    for flag in ("epsilon", "t", "x"):
        value = getattr(args, flag)
        if flag in required and value is None:
            raise DomainError(f"simulate --kind {args.kind} requires --{flag}")
        if flag not in required and value is not None:
            raise DomainError(f"simulate --kind {args.kind} does not take --{flag}")
    reports = runner(args)
    human = [f"simulate kind={args.kind} n={args.n} trials={args.trials} seed={args.seed}"
             + "".join(f" {k}={_fmt(getattr(args, k))}" for k in required)]
    for side, r in reports.items():
        extra = (f" upper={r.upper_count} lower={r.lower_count}"
                 if hasattr(r, "upper_count") else "")
        human.append(f"{side}: events={r.event_count}/{r.trials} "
                     f"frequency={_fmt(r.frequency)} "
                     f"wilson=[{_fmt(r.wilson_low)}, {_fmt(r.wilson_high)}] "
                     f"bound={_fmt(r.bound)} dominated={_fmt(r.dominated)}{extra}")
    return _Result(
        {side: asdict(r) for side, r in reports.items()},
        ["kind", "n", "trials", "seed", "epsilon", "t", "x", "side", "event_count",
         "upper_count", "lower_count", "frequency", "wilson_low", "wilson_high", "bound",
         "dominated"],
        [[args.kind, args.n, args.trials, args.seed, args.epsilon, args.t, args.x, side,
          r.event_count, getattr(r, "upper_count", None), getattr(r, "lower_count", None),
          r.frequency, r.wilson_low, r.wilson_high, r.bound, r.dominated]
         for side, r in reports.items()],
        human, code=0 if all(r.dominated for r in reports.values()) else 1)


def _cmd_verify(args) -> _Result:
    report = verify_lemmas(grid_steps=args.grid_steps, tolerance=args.tolerance,
                           scope=args.scope)
    return _Result(
        {"checks": [asdict(c) for c in report.checks], "all_passed": report.all_passed},
        ["scope", "check", "residual", "threshold", "where", "passed"],
        [[c.scope, c.name, c.residual, c.threshold, c.where, c.passed]
         for c in report.checks],
        [f"[{'pass' if c.passed else 'FAIL'}] {c.scope:8s} {c.name:28s} "
         f"residual={_fmt(c.residual)} threshold={_fmt(c.threshold)} at={_fmt(c.where)}"
         for c in report.checks]
        + ["all checks passed" if report.all_passed else "FAILURES present"],
        code=0 if report.all_passed else 1)


def _cmd_test_uniformity(args) -> _Result:
    check_real(args.alpha, "alpha", 0.0, 1.0)
    mat = load_vector_file(args.input)
    n = mat.shape[1]
    # unit rows are candidate sphere points X and are scaled to sqrt(N) X;
    # anything else is taken as an already-scaled sample and flagged (the
    # sphere projection itself is never applied: it would erase exactly the
    # scale mismatch this test exists to detect)
    warned = np.abs(_norms(mat) - 1.0) > 1e-6
    values = mat * np.where(warned, 1.0, math.sqrt(n))[:, None]
    header = ["row", "n", "norm_warning", "ks_statistic", "p_bound", "reject"]
    rows = []
    for i, (flag, stat) in enumerate(zip(warned.tolist(), _ks_statistics(values).tolist())):
        p = p_value_bound(n, min(stat, 1.0))
        rows.append(dict(zip(header, (i, n, flag, stat, p, p < args.alpha))))
    rejected = sum(1 for r in rows if r["reject"])
    return _Result(
        {"rows": rows, "summary": {"rows": len(rows), "rejected": rejected,
                                   "alpha": args.alpha}},
        header, [list(r.values()) for r in rows],
        [f"row {r['row']:4d}: ks={_fmt(r['ks_statistic'])} p<={_fmt(r['p_bound'])} -> "
         f"{'REJECT' if r['reject'] else 'keep'}"
         f"{' (renormalization warning)' if r['norm_warning'] else ''}" for r in rows]
        + [f"summary: rejected {rejected} of {len(rows)} rows at alpha={_fmt(args.alpha)}"])


_HANDLERS = {
    "bound-eval": _cmd_bound_eval,
    "bound-optimize": _cmd_bound_optimize,
    "gamma": _cmd_gamma,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "test-uniformity": _cmd_test_uniformity,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        res = _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'spherecdf {args.command} --help' for usage", file=sys.stderr)
        return 2
    _emit(args, res, sys.stdout)
    return res.code


if __name__ == "__main__":
    sys.exit(main())
