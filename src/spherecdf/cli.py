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
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .deformation import gamma_closed, gamma_oracle
from .empirical import _ks_statistics
from .errors import DomainError, check_int, check_open
from .montecarlo import (TrialConfig, run_chisq_trials, run_dkw_trials,
                         run_lambda_trials, run_theorem_trials, verify_lemmas)
from .sampling import _norms
from .tail_bounds import (BoundInputs, _breakdown, corollary_bound, g_minus,
                          g_plus, optimize_split, p_value_bound, theorem_bound)

_FORMATS = ("human", "csv", "json")

_SIMULATE_FLAGS = {
    "theorem": ("epsilon", "t"),
    "dkw": ("epsilon",),
    "lambda": ("t",),
    "chisq": ("x",),
}


def _fmt(value) -> str:
    """CSV cell rendering: 12 significant digits for floats, bare ints, lowercase bools."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _emit_csv(header, rows, out):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_json(command, inputs, results, seed, out):
    payload = {"command": command, "inputs": inputs, "results": results,
               "seed": seed, "version": __version__}
    out.write(json.dumps(payload, indent=2) + "\n")


def _breakdown_dict(b):
    return {"threshold": b.threshold, "dkw_term": b.dkw_term, "gplus_term": b.gplus_term,
            "gminus_term": b.gminus_term, "total": b.total}


def _report_dict(r):
    d = {"event_count": r.event_count, "trials": r.trials, "frequency": r.frequency,
         "wilson_low": r.wilson_low, "wilson_high": r.wilson_high, "bound": r.bound,
         "dominated": r.dominated}
    if hasattr(r, "upper_count"):
        d["upper_count"] = r.upper_count
        d["lower_count"] = r.lower_count
    return d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecdf",
        description="Concentration bounds for the empirical CDF of a uniform sphere point.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=_FORMATS, default="human",
                       help="output format (default: human)")

    p = sub.add_parser("bound-eval", help="evaluate the exact and simplified bounds")
    p.add_argument("--n", type=int, required=True, help="dimension N")
    p.add_argument("--epsilon", type=float, required=True, help="tube half-width")
    p.add_argument("--t", type=float, required=True, help="scale window in [0, 1)")
    add_format(p)

    p = sub.add_parser("bound-optimize", help="optimize the (epsilon, t) split")
    p.add_argument("--n", type=int, required=True, help="dimension N")
    p.add_argument("--delta", type=float, required=True, help="total deviation budget")
    p.add_argument("--mode", choices=("exact_gamma", "corollary"), default="exact_gamma")
    add_format(p)

    p = sub.add_parser("gamma", help="table of the gap function and secant bounds")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=100)
    add_format(p)

    p = sub.add_parser("simulate", help="Monte Carlo domination run")
    p.add_argument("--kind", choices=tuple(_SIMULATE_FLAGS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    add_format(p)

    p = sub.add_parser("verify", help="run the lemma / appendix verification suite")
    p.add_argument("--scope", choices=("lemmas", "appendix", "all"), default="all")
    p.add_argument("--grid-steps", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every check's own threshold")
    add_format(p)

    p = sub.add_parser("test-uniformity", help="conservative sphere-uniformity test")
    p.add_argument("--input", required=True, help="vector file, one candidate per line")
    p.add_argument("--alpha", type=float, default=0.05)
    add_format(p)

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
    except OSError as exc:
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


def _cmd_bound_eval(args, out) -> int:
    th = theorem_bound(BoundInputs(args.n, args.epsilon, args.t))
    co = corollary_bound(args.n, args.epsilon, args.t)
    if args.format == "json":
        _emit_json("bound-eval",
                   {"n": args.n, "epsilon": args.epsilon, "t": args.t},
                   {"theorem": _breakdown_dict(th), "corollary": _breakdown_dict(co)},
                   None, out)
    elif args.format == "csv":
        header = ["n", "epsilon", "t", "variant", "threshold", "dkw_term",
                  "gplus_term", "gminus_term", "total"]
        rows = [
            [args.n, args.epsilon, args.t, "theorem", th.threshold, th.dkw_term,
             th.gplus_term, th.gminus_term, th.total],
            [args.n, args.epsilon, args.t, "corollary", co.threshold, co.dkw_term,
             co.gplus_term, co.gminus_term, co.total],
        ]
        _emit_csv(header, rows, out)
    else:
        out.write(f"inputs: n={args.n} epsilon={_fmt(args.epsilon)} t={_fmt(args.t)}\n")
        for name, b in (("theorem", th), ("corollary", co)):
            out.write(f"{name:9s} threshold={_fmt(b.threshold)} dkw={_fmt(b.dkw_term)} "
                      f"gplus={_fmt(b.gplus_term)} gminus={_fmt(b.gminus_term)} "
                      f"total={_fmt(b.total)}\n")
    return 0


def _cmd_bound_optimize(args, out) -> int:
    opt = optimize_split(args.n, args.delta, args.mode)
    br = _breakdown(args.n, opt.best_epsilon, opt.best_t, opt.mode)
    result = {"delta": opt.delta, "best_epsilon": opt.best_epsilon,
              "best_t": opt.best_t, "best_total": opt.best_total, "mode": opt.mode,
              "breakdown": _breakdown_dict(br)}
    if args.format == "json":
        _emit_json("bound-optimize", {"n": args.n, "delta": args.delta,
                                      "mode": args.mode}, result, None, out)
    elif args.format == "csv":
        header = ["n", "delta", "mode", "best_epsilon", "best_t", "best_total",
                  "threshold", "dkw_term", "gplus_term", "gminus_term"]
        _emit_csv(header, [[args.n, args.delta, args.mode, opt.best_epsilon,
                            opt.best_t, opt.best_total, br.threshold, br.dkw_term,
                            br.gplus_term, br.gminus_term]], out)
    else:
        out.write(f"inputs: n={args.n} delta={_fmt(args.delta)} mode={args.mode}\n")
        out.write(f"best split: epsilon={_fmt(opt.best_epsilon)} t={_fmt(opt.best_t)} "
                  f"total={_fmt(opt.best_total)}\n")
        out.write(f"breakdown: dkw={_fmt(br.dkw_term)} gplus={_fmt(br.gplus_term)} "
                  f"gminus={_fmt(br.gminus_term)} threshold={_fmt(br.threshold)}\n")
    return 0


def _cmd_gamma(args, out) -> int:
    if not (0.0 <= args.t_min < args.t_max < 1.0):
        raise DomainError("need 0 <= t-min < t-max < 1")
    check_int(args.steps, "steps", 2)
    ts = np.linspace(args.t_min, args.t_max, args.steps)
    header = ["t", "gamma", "gamma_oracle", "half_t", "g_plus", "g_minus",
              "g_minus_lb", "g_plus_lb"]
    rows = [[tv, gamma_closed(tv).gamma, oracle, 0.5 * tv, g_plus(tv), g_minus(tv),
             tv, 0.375 * tv] for tv, oracle in zip(ts.tolist(), gamma_oracle(ts).tolist())]
    if args.format == "json":
        _emit_json("gamma",
                   {"t_min": args.t_min, "t_max": args.t_max, "steps": args.steps},
                   {"columns": header, "rows": rows}, None, out)
    elif args.format == "csv":
        _emit_csv(header, rows, out)
    else:
        out.write("  ".join(f"{h:>14s}" for h in header) + "\n")
        for row in rows:
            out.write("  ".join(f"{_fmt(v):>14s}" for v in row) + "\n")
    return 0


def _cmd_simulate(args, out) -> int:
    required = _SIMULATE_FLAGS[args.kind]
    for flag in ("epsilon", "t", "x"):
        value = getattr(args, flag)
        if flag in required and value is None:
            raise DomainError(f"simulate --kind {args.kind} requires --{flag}")
        if flag not in required and value is not None:
            raise DomainError(f"simulate --kind {args.kind} does not take --{flag}")

    if args.kind == "theorem":
        reports = [("two_sided", run_theorem_trials(
            TrialConfig(args.n, args.trials, args.seed, args.epsilon, args.t)))]
    elif args.kind == "dkw":
        reports = [("two_sided", run_dkw_trials(args.n, args.trials, args.seed,
                                                args.epsilon))]
    elif args.kind == "lambda":
        reports = [("two_sided", run_lambda_trials(args.n, args.trials, args.seed,
                                                   args.t))]
    else:
        up, lo = run_chisq_trials(args.n, args.trials, args.seed, args.x)
        reports = [("upper", up), ("lower", lo)]

    dominated = all(r.dominated for _, r in reports)
    inputs = {"kind": args.kind, "n": args.n, "trials": args.trials,
              "epsilon": args.epsilon, "t": args.t, "x": args.x}
    if args.format == "json":
        _emit_json("simulate", inputs,
                   {side: _report_dict(r) for side, r in reports}, args.seed, out)
    elif args.format == "csv":
        header = ["kind", "n", "trials", "seed", "epsilon", "t", "x", "side",
                  "event_count", "upper_count", "lower_count", "frequency",
                  "wilson_low", "wilson_high", "bound", "dominated"]
        rows = []
        for side, r in reports:
            rows.append([args.kind, args.n, args.trials, args.seed, args.epsilon,
                         args.t, args.x, side, r.event_count,
                         getattr(r, "upper_count", None),
                         getattr(r, "lower_count", None), r.frequency,
                         r.wilson_low, r.wilson_high, r.bound, r.dominated])
        _emit_csv(header, rows, out)
    else:
        out.write(f"simulate kind={args.kind} n={args.n} trials={args.trials} "
                  f"seed={args.seed}"
                  + "".join(f" {k}={_fmt(getattr(args, k))}" for k in required) + "\n")
        for side, r in reports:
            extra = ""
            if hasattr(r, "upper_count"):
                extra = f" upper={r.upper_count} lower={r.lower_count}"
            out.write(f"{side}: events={r.event_count}/{r.trials} "
                      f"frequency={_fmt(r.frequency)} "
                      f"wilson=[{_fmt(r.wilson_low)}, {_fmt(r.wilson_high)}] "
                      f"bound={_fmt(r.bound)} dominated={_fmt(r.dominated)}{extra}\n")
    return 0 if dominated else 1


def _cmd_verify(args, out) -> int:
    report = verify_lemmas(grid_steps=args.grid_steps, tolerance=args.tolerance,
                           scope=args.scope)
    if args.format == "json":
        checks = [{"name": c.name, "scope": c.scope, "residual": c.residual,
                   "threshold": c.threshold, "where": c.where, "passed": c.passed}
                  for c in report.checks]
        _emit_json("verify", {"scope": args.scope, "grid_steps": args.grid_steps,
                              "tolerance": args.tolerance},
                   {"checks": checks, "all_passed": report.all_passed}, None, out)
    elif args.format == "csv":
        header = ["scope", "check", "residual", "threshold", "where", "passed"]
        rows = [[c.scope, c.name, c.residual, c.threshold, c.where, c.passed]
                for c in report.checks]
        _emit_csv(header, rows, out)
    else:
        for c in report.checks:
            mark = "pass" if c.passed else "FAIL"
            out.write(f"[{mark}] {c.scope:8s} {c.name:28s} "
                      f"residual={_fmt(c.residual)} threshold={_fmt(c.threshold)} "
                      f"at={_fmt(c.where)}\n")
        out.write(f"{'all checks passed' if report.all_passed else 'FAILURES present'}\n")
    return 0 if report.all_passed else 1


def _cmd_test_uniformity(args, out) -> int:
    check_open(args.alpha, 0.0, 1.0, "alpha")
    mat = load_vector_file(args.input)
    n = mat.shape[1]
    sqrt_n = math.sqrt(n)
    rows = []
    for i, (row, norm) in enumerate(zip(mat, _norms(mat).tolist())):
        # unit rows are candidate sphere points X and are scaled to sqrt(N) X;
        # anything else is taken as an already-scaled sample and flagged (the
        # sphere projection itself is never applied: it would erase exactly
        # the scale mismatch this test exists to detect)
        warned = abs(norm - 1.0) > 1e-6
        values = np.sort(row if warned else row * sqrt_n)
        stat = float(_ks_statistics(values))
        p = p_value_bound(n, min(stat, 1.0))
        rows.append({"row": i, "n": n, "norm_warning": warned,
                     "ks_statistic": stat, "p_bound": p, "reject": p < args.alpha})
    rejected = sum(1 for r in rows if r["reject"])
    summary = {"rows": len(rows), "rejected": rejected, "alpha": args.alpha}
    if args.format == "json":
        _emit_json("test-uniformity", {"input": args.input, "alpha": args.alpha},
                   {"rows": rows, "summary": summary}, None, out)
    elif args.format == "csv":
        header = ["row", "n", "norm_warning", "ks_statistic", "p_bound", "reject"]
        _emit_csv(header, [[r[k] for k in header] for r in rows], out)
    else:
        for r in rows:
            flag = " (renormalization warning)" if r["norm_warning"] else ""
            verdict = "REJECT" if r["reject"] else "keep"
            out.write(f"row {r['row']:4d}: ks={_fmt(r['ks_statistic'])} "
                      f"p<={_fmt(r['p_bound'])} -> {verdict}{flag}\n")
        out.write(f"summary: rejected {rejected} of {len(rows)} rows "
                  f"at alpha={_fmt(args.alpha)}\n")
    return 0


_HANDLERS = {
    "bound-eval": _cmd_bound_eval,
    "bound-optimize": _cmd_bound_optimize,
    "gamma": _cmd_gamma,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "test-uniformity": _cmd_test_uniformity,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, sys.stdout)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'spherecdf {args.command} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
