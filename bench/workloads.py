"""The benchmark's four workloads: what one pass calls and how it is checked.

Each workload builds its inputs from the workload seed.  A pass makes a fixed
list of public spherecdf calls (`run_pass`, the timed part), with the
calibration kernel run between consecutive calls; its correctness gate
(`gate`) then replays part of the pass one call at a time through the public
functions one layer down.  In a traced pass the top-level calls and the
replay are wrapped in spans; the replay's spans give the per-layer split.

Every pass of a run repeats the same work, so every pass must produce the
same output digest, traced or not.
"""

import contextlib
import hashlib
import io
import json
import math
from time import perf_counter

import numpy as np

import spherecdf as sc
from calibrate import kernel_seconds
from spherecdf import cli


def key_seed(seed: int, stream: int) -> int:
    """Unsigned 64-bit key derived from the workload seed, one per input stream."""
    ss = np.random.SeedSequence([seed % (1 << 64), stream])
    return int(ss.generate_state(1, np.uint64)[0])


class PassLog:
    """Timed calls, output digest, and failed operations of one pass."""

    def __init__(self, rec, index: int, turn: int):
        self.rec = rec
        self.index = index
        # passes of the same kind (traced or not) before this one; gates
        # rotate on it, so traced and untraced passes each cover every case
        self.turn = turn
        # (op name, seconds, items, kernel seconds) of the timed calls; the
        # kernel time is the mean of the kernel runs just before and after
        self.calls = []
        self._kernel = None
        self.sha = hashlib.sha256()
        self.attempted = 0
        self.failed = {}  # op id -> first reason
        self.events = 0
        self.outputs = []  # what the gate checks: (result, op id) per call

    def call(self, name, items, fn, *args, span=None):
        """Run and time one operation; returns (result, op id), result None if it raised."""
        self.attempted += 1
        op = f"{name}#{self.attempted}"
        if self._kernel is None:
            self._kernel = kernel_seconds()
        try:
            with self.rec.span(span or name):
                t0 = perf_counter()
                out = fn(*args)
                dt = perf_counter() - t0
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(op, repr(exc))
            return None, op
        after = kernel_seconds()
        self.calls.append((name, dt, items, 0.5 * (self._kernel + after)))
        self._kernel = after
        return out, op

    def fail(self, op, reason):
        self.failed.setdefault(op, reason)

    def check(self, op, ok, reason):
        if not ok:
            self.fail(op, reason)
        return ok


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            code = exc.code
    return code, out.getvalue()


def _cell(value) -> str:
    """A value as the CLI writes it into CSV (12 significant digits)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _sampling_spans(rec, N, key):
    """Traced replay of one keyed draw: stream setup, Gaussian vector, sphere point.

    One unmeasured draw runs first, so the measured calls all run warm even
    when heavier work ran just before.
    """
    sc.sphere_sample(N, key)
    with rec.span("sampling.stream_setup"):
        key.generator()
    with rec.span("sampling.gaussian_vector"):
        z = sc.gaussian_vector(N, key)
    with rec.span("sampling.sphere_sample"):
        s = sc.sphere_sample(N, key)
    return z, s


# ---------------------------------------------------------------------------
# Monte Carlo: the four keyed-trial runners
# ---------------------------------------------------------------------------

# acceptance criteria 06-09 shapes: (runner, N, parameters)
SMALL_SHAPES = (
    ("theorem", 50, {"epsilon": 0.08, "t": 0.15}),
    ("theorem", 100, {"epsilon": 0.05, "t": 0.1}),
    ("theorem", 200, {"epsilon": 0.05, "t": 0.1}),
    ("lambda", 100, {"t": 0.1}),
    ("lambda", 100, {"t": 0.2}),
    ("lambda", 100, {"t": 0.3}),
    ("dkw", 100, {"epsilon": 0.05}),
    ("dkw", 100, {"epsilon": 0.1}),
    ("dkw", 100, {"epsilon": 0.15}),
    ("chisq", 50, {"x": 0.5}),
    ("chisq", 50, {"x": 1.0}),
    ("chisq", 50, {"x": 2.0}),
)

# N = 10^4: 419 rows fill one 2^22-element chunk, so 500 trials take two
LARGE_SHAPES = (
    ("theorem", 10_000, {"epsilon": 0.01, "t": 0.02}),
    ("lambda", 10_000, {"t": 0.01}),
    ("dkw", 10_000, {"epsilon": 0.01}),
    ("chisq", 10_000, {"x": 1.0}),
)


def run_runner(kind, N, trials, seed, p):
    """Call one runner; returns its reports as a tuple."""
    if kind == "theorem":
        return (sc.run_theorem_trials(sc.TrialConfig(N, trials, seed, p["epsilon"], p["t"])),)
    if kind == "dkw":
        return (sc.run_dkw_trials(N, trials, seed, p["epsilon"]),)
    if kind == "lambda":
        return (sc.run_lambda_trials(N, trials, seed, p["t"]),)
    return tuple(sc.run_chisq_trials(N, trials, seed, p["x"]))


def report_counts(kind, reports):
    """The event counts a runner's reports carry, one-sided where it has two sides."""
    if kind == "lambda":
        return (reports[0].upper_count, reports[0].lower_count)
    return tuple(r.event_count for r in reports)


def replay_counts(kind, N, seed, p, trials, rec):
    """Recount a runner's events one trial at a time through the public pipeline.

    theorem: sphere_sample -> build_ecdf(sqrt(N) X) -> ks_to_normal
    dkw:     gaussian_vector -> build_ecdf -> ks_to_normal
    lambda:  sphere_sample().lam, both sides of [1-t, 1+t]
    chisq:   gaussian_vector, |Z|^2 against both Laurent-Massart thresholds
    """
    sqrt_n = math.sqrt(N)
    if kind == "theorem":
        threshold = p["epsilon"] + sc.gamma_closed(p["t"]).gamma
    elif kind == "dkw":
        threshold = p["epsilon"]
    elif kind == "chisq":
        up_thr = sc.lm_upper(N, p["x"]).threshold
        lo_thr = sc.lm_lower(N, p["x"]).threshold
    upper = lower = 0
    for i in range(trials):
        key = sc.RngStream(seed, i)
        if rec.enabled:
            z, s = _sampling_spans(rec, N, key)
        elif kind in ("theorem", "lambda"):
            s = sc.sphere_sample(N, key)
        else:
            z = sc.gaussian_vector(N, key)
        if kind in ("theorem", "dkw"):
            values = s.coords * sqrt_n if kind == "theorem" else z
            with rec.span("empirical.build_ecdf"):
                ecdf = sc.build_ecdf(values)
            with rec.span("empirical.ks_to_normal"):
                stat = sc.ks_to_normal(ecdf).statistic
            upper += stat > threshold
        elif kind == "lambda":
            deviation = s.lam - 1.0
            upper += deviation > p["t"]
            lower += deviation < -p["t"]
        else:
            u = math.sqrt(float(np.dot(z, z))) ** 2
            upper += u - N >= up_thr
            lower += N - u >= lo_thr
    return (upper,) if kind in ("theorem", "dkw") else (upper, lower)


class MonteCarlo:
    """Keyed Monte Carlo: every pass runs the four runners at fixed shapes."""

    setup_module = "spherecdf"
    item = "trials"
    # added to each expected event count; the self-check plants 1 here
    expected_count_shift = 0

    def __init__(self, shapes, trials, seed):
        self.shapes = shapes
        self.trials = trials
        self.seed = key_seed(seed, 0)
        self.by_kind = {}  # runner -> indices into shapes
        for i, (kind, _, _) in enumerate(shapes):
            self.by_kind.setdefault(kind, []).append(i)

    def run_pass(self, log):
        for kind, N, p in self.shapes:
            reports, op = log.call(f"montecarlo.run_{kind}_trials", self.trials,
                                   run_runner, kind, N, self.trials, self.seed, p)
            log.outputs.append((reports, op))
            if reports is not None:
                log.events += sum(r.event_count for r in reports)
                log.sha.update(repr(reports).encode())

    def gate(self, log):
        """One timed runner call against its one-trial-at-a-time recount.

        Every trial of the call is recounted, so on mc-large-n the check spans
        both chunks.  The runner and its shape rotate from pass to pass, so
        every four passes check all four runners and a run covers every shape.
        """
        rec = log.rec
        kinds = list(self.by_kind)
        kind = kinds[log.turn % len(kinds)]
        group = self.by_kind[kind]
        shape = group[log.turn // len(kinds) % len(group)]
        _, N, p = self.shapes[shape]
        reports, op = log.outputs[shape]
        if reports is None:
            return
        expected = tuple(c + self.expected_count_shift for c in report_counts(kind, reports))
        with rec.span("replay"):
            got = replay_counts(kind, N, self.seed, p, self.trials, rec)
        log.check(op, got == expected,
                  f"{kind} N={N} {p}: runner counts {expected}, replay {got}")
        if rec.enabled and kind == "theorem":
            inputs = sc.BoundInputs(N, p["epsilon"], p["t"])
            with rec.span("tail_bounds.theorem_bound"):
                sc.theorem_bound(inputs)
            with rec.span("deformation.gamma_closed"):
                sc.gamma_closed(p["t"])
            with rec.span("tail_bounds.g_rates"):
                sc.g_plus(p["t"]) + sc.g_minus(p["t"])


# ---------------------------------------------------------------------------
# uniformity: test-uniformity on a generated vector file
# ---------------------------------------------------------------------------

class Uniformity:
    """`spherecdf test-uniformity --format csv` on a generated N = 1000 file."""

    setup_module = "spherecdf.cli"
    item = "rows"
    N = 1000
    ALPHA = 0.05

    def __init__(self, rows, sampled, seed, workdir):
        self.rows = rows
        self.sampled = sampled
        self.seed = key_seed(seed, 1)
        self.path = workdir / f"uniformity-{seed}.csv"
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(f"# spherecdf benchmark input, seed {seed}\n")
            for i in range(rows):
                fh.write(",".join(map(repr, self.row(i).tolist())) + "\n")
        self.argv = ["test-uniformity", "--input", str(self.path), "--format", "csv"]

    def row(self, i, rec=None):
        """Row i: a unit sphere point, or every fourth row a 1.2x-scaled Gaussian."""
        key = sc.RngStream(self.seed, i)
        scaled = i % 4 == 3
        if rec is not None and rec.enabled:
            z, s = _sampling_spans(rec, self.N, key)
        elif scaled:
            z = sc.gaussian_vector(self.N, key)
        else:
            s = sc.sphere_sample(self.N, key)
        return 1.2 * z if scaled else s.coords

    def close(self):
        self.path.unlink(missing_ok=True)

    def run_pass(self, log):
        res, op = log.call("test-uniformity", self.rows, _run_cli, self.argv, span="cli.main")
        log.outputs.append((res, op))
        if res is not None:
            log.sha.update(res[1].encode())

    def gate(self, log):
        """Exit code, row count, and sampled rows recomputed through the public path."""
        rec = log.rec
        res, op = log.outputs[0]
        if res is None:
            return
        code, text = res
        lines = text.splitlines()
        if not log.check(op, code == 0, f"exit code {code}"):
            return
        if not log.check(op, len(lines) == self.rows + 1,
                         f"{len(lines) - 1} result rows for {self.rows} input rows"):
            return
        picks = np.random.default_rng([self.seed, log.index]).choice(
            self.rows, size=self.sampled, replace=False)
        # a traced pass replays every row, which also gives cli.self_s
        check_rows = range(self.rows) if rec.enabled else sorted(picks.tolist())
        stats = {}
        with rec.span("cli.replay"):
            with rec.span("cli.load_vector_file"):
                mat = cli.load_vector_file(self.path)
            for r in check_rows:
                row = mat[r]
                warned = abs(math.sqrt(float(np.dot(row, row))) - 1.0) > 1e-6
                with rec.span("empirical.build_ecdf"):
                    ecdf = sc.build_ecdf(row if warned else row * math.sqrt(self.N))
                with rec.span("empirical.ks_to_normal"):
                    ks = stats[r] = sc.ks_to_normal(ecdf).statistic
                with rec.span("tail_bounds.p_value_bound"):
                    p = sc.p_value_bound(self.N, min(ks, 1.0))
                want = [str(r), str(self.N), _cell(warned), _cell(ks), _cell(p),
                        _cell(p < self.ALPHA)]
                if not log.check(op, lines[1 + r].split(",") == want,
                                 f"row {r}: csv {lines[1 + r]!r}, replay {want}"):
                    return
        for r in picks.tolist():
            if not log.check(op, np.array_equal(mat[r], self.row(r, rec)),
                             f"row {r} does not read back as generated"):
                return
            if rec.enabled:
                with rec.span("tail_bounds.optimize_split_exact"):
                    opt = sc.optimize_split(self.N, min(stats[r], 1.0), "exact_gamma")
                with rec.span("tail_bounds.g_rates"):
                    sc.g_plus(opt.best_t) + sc.g_minus(opt.best_t)
                with rec.span("deformation.gamma_closed"):
                    sc.gamma_closed(opt.best_t)


# ---------------------------------------------------------------------------
# analysis: verify, gamma table and bound-optimize queries
# ---------------------------------------------------------------------------

class Analysis:
    """`verify --scope all`, one `gamma` table and a batch of `bound-optimize` queries."""

    setup_module = "spherecdf.cli"
    item = "queries"

    def __init__(self, grid_steps, gamma_steps, queries, seed):
        rng = np.random.default_rng(key_seed(seed, 2))
        self.grid_steps = grid_steps
        self.gamma_steps = gamma_steps
        self.t_min = float(rng.uniform(0.0, 0.05))
        self.t_max = float(rng.uniform(0.9, 0.99))
        corollary = queries // 5  # about 80% exact_gamma, 20% corollary
        self.queries = []
        for mode, count in (("exact_gamma", queries - corollary), ("corollary", corollary)):
            # stratified draws, so every seed spreads its queries over the
            # whole (N, delta) range and a pass costs about the same
            n_u = (np.arange(count) + rng.random(count)) / count
            d_u = rng.permutation((np.arange(count) + rng.random(count)) / count)
            for a, b in zip(n_u, d_u):
                n = int(round(10.0 ** (1.0 + 8.0 * a)))
                lo = math.log(0.5 / n)
                self.queries.append((n, math.exp(lo + b * (math.log(0.6) - lo)), mode))
        rng.shuffle(self.queries)

    def run_pass(self, log):
        outputs = log.outputs
        outputs.append(log.call("verify", 0, _run_cli,
                                ["verify", "--scope", "all", "--grid-steps",
                                 str(self.grid_steps), "--format", "csv"], span="cli.main"))
        outputs.append(log.call("gamma", 0, _run_cli,
                                ["gamma", "--t-min", repr(self.t_min), "--t-max",
                                 repr(self.t_max), "--steps", str(self.gamma_steps),
                                 "--format", "csv"], span="cli.main"))
        for n, delta, mode in self.queries:
            outputs.append(log.call("bound-optimize", 1, _run_cli,
                                    ["bound-optimize", "--n", str(n), "--delta", repr(delta),
                                     "--mode", mode, "--format", "json"], span="cli.main"))
        for res, _ in outputs:
            if res is not None:
                log.sha.update(res[1].encode())

    def gate(self, log):
        """verify passes every check; gamma matches its oracle; each split fits in delta."""
        rec = log.rec
        outputs = log.outputs
        for res, op in outputs:
            if res is not None:
                log.check(op, res[0] == 0, f"exit code {res[0]}")
        (verify, v_op), (gamma, g_op) = outputs[:2]
        if verify is not None and verify[0] == 0:
            rows = verify[1].splitlines()[1:]
            log.check(v_op, rows and all(r.rsplit(",", 1)[1] == "true" for r in rows),
                      "verify reported a failed check")
        if gamma is not None and gamma[0] == 0:
            rows = [list(map(float, r.split(","))) for r in gamma[1].splitlines()[1:]]
            log.check(g_op, len(rows) == self.gamma_steps
                      and all(abs(r[1] - r[2]) <= 1e-7 for r in rows),
                      "gamma table differs from its oracle or has the wrong length")
        queries = []
        for (n, delta, mode), (res, op) in zip(self.queries, outputs[2:]):
            if res is None or res[0] != 0:
                continue
            got = json.loads(res[1])["results"]
            eps, t = got["best_epsilon"], got["best_t"]
            cost = sc.gamma_closed(t).gamma if mode == "exact_gamma" else 0.5 * t
            # epsilon is delta - cost(t), so the sum may round up by an ulp or two
            log.check(op, eps > 0.0 and eps + cost <= delta + 2.0 * math.ulp(delta),
                      f"split {eps} + {cost} exceeds delta {delta}")
            queries.append((n, delta, mode, got, op))
        if rec.enabled:
            self.replay(log, queries)

    def replay(self, log, queries):
        """The library calls behind this pass's CLI output, one at a time."""
        rec = log.rec
        with rec.span("cli.replay"):
            with rec.span("montecarlo.verify_lemmas"):
                sc.verify_lemmas(grid_steps=self.grid_steps, scope="all")
            for t in np.linspace(self.t_min, self.t_max, self.gamma_steps).tolist():
                with rec.span("deformation.gamma_closed"):
                    sc.gamma_closed(t)
                with rec.span("deformation.gamma_oracle"):
                    sc.gamma_oracle(t)
                with rec.span("tail_bounds.g_rates"):
                    sc.g_plus(t) + sc.g_minus(t)
            for n, delta, mode, got, op in queries:
                short = "exact" if mode == "exact_gamma" else "corollary"
                with rec.span(f"tail_bounds.optimize_split_{short}"):
                    opt = sc.optimize_split(n, delta, mode)
                if mode == "exact_gamma":
                    with rec.span("tail_bounds.theorem_bound"):
                        sc.theorem_bound(sc.BoundInputs(n, opt.best_epsilon, opt.best_t))
                else:
                    with rec.span("tail_bounds.corollary_bound"):
                        sc.corollary_bound(n, opt.best_epsilon, opt.best_t)
                log.check(op, (opt.best_epsilon, opt.best_t, opt.best_total)
                          == (got["best_epsilon"], got["best_t"], got["best_total"]),
                          "bound-optimize output differs from optimize_split")


def make(name, seed, scale, workdir):
    """Build a workload at the given scale ("full" for measurement, "smoke" for the self-check)."""
    full = scale == "full"
    if name == "mc-small-n":
        return MonteCarlo(SMALL_SHAPES, 1000 if full else 100, seed)
    if name == "mc-large-n":
        return MonteCarlo(LARGE_SHAPES, 500 if full else 100, seed)
    if name == "uniformity":
        return Uniformity(8 if full else 4, 2, seed, workdir)
    if name == "analysis":
        return Analysis(1000 if full else 100, 100 if full else 10, 20 if full else 5, seed)
    raise ValueError(f"unknown workload {name!r}")
