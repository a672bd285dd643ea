"""spherecdf benchmark.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout: spherecdf is imported from its src/
directory, and the run exits with code 2, printing no result, when that
directory is missing.  Workloads (see bench/DESIGN.md): mc-small-n,
mc-large-n, uniformity, analysis.

A run measures set-up time in fresh interpreters, builds the workload's
inputs from the seed, runs one warm-up pass, then repeats passes for the
given number of seconds.  Every pass is checked for correctness.  With
--trace 1, untraced and traced passes alternate and the spans of the traced
ones give the per-layer metrics.  The calibration kernel (calibrate.py) runs
between the timed calls of a pass; each call's time is reported in the
kernel's reference seconds, which stay steady while the shared machine's
speed drifts, and a pass's time is the sum over its calls.  Set-up times
are scaled likewise, by the start of an interpreter that imports only numpy
and scipy.  The report also carries the raw seconds.  Nothing is pinned:
the calls run on every core the process may use.

Standard output ends with two JSON lines: a report (environment, output
digest, every metric with its unit and sample count), then the result:
{"correct", "attempted", "failed", "metrics"}, where the metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import IMPORT_CODE, REFERENCE_IMPORT_S, REFERENCE_S
from spans import NullRecorder, Recorder, median_or_zero

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("mc-small-n", "mc-large-n", "uniformity", "analysis")
SETUP_REPEATS = 10  # fresh-interpreter imports per run; the median is reported
MIN_PASSES = 3  # measured passes per run, however short --seconds is

# per-layer metrics taken from span self times:
# (metric, unit, scale, span, span whose median is subtracted or None)
SPAN_LAYERS = (
    ("sampling.stream_setup_us", "us", 1e6, "sampling.stream_setup", None),
    ("sampling.gaussian_vector_us", "us", 1e6, "sampling.gaussian_vector",
     "sampling.stream_setup"),
    ("sampling.normalize_us", "us", 1e6, "sampling.sphere_sample",
     "sampling.gaussian_vector"),
    ("empirical.build_ecdf_us", "us", 1e6, "empirical.build_ecdf", None),
    ("empirical.ks_to_normal_us", "us", 1e6, "empirical.ks_to_normal", None),
    ("montecarlo.run_theorem_trials_s", "s", 1.0, "montecarlo.run_theorem_trials", None),
    ("montecarlo.run_dkw_trials_s", "s", 1.0, "montecarlo.run_dkw_trials", None),
    ("montecarlo.run_lambda_trials_s", "s", 1.0, "montecarlo.run_lambda_trials", None),
    ("montecarlo.run_chisq_trials_s", "s", 1.0, "montecarlo.run_chisq_trials", None),
    ("montecarlo.verify_lemmas_s", "s", 1.0, "montecarlo.verify_lemmas", None),
    ("tail_bounds.p_value_bound_ms", "ms", 1e3, "tail_bounds.p_value_bound", None),
    ("tail_bounds.optimize_split_exact_ms", "ms", 1e3, "tail_bounds.optimize_split_exact",
     None),
    ("tail_bounds.optimize_split_corollary_ms", "ms", 1e3,
     "tail_bounds.optimize_split_corollary", None),
    ("tail_bounds.g_rates_us", "us", 1e6, "tail_bounds.g_rates", None),
    ("tail_bounds.theorem_bound_us", "us", 1e6, "tail_bounds.theorem_bound", None),
    ("deformation.gamma_closed_us", "us", 1e6, "deformation.gamma_closed", None),
    ("deformation.gamma_oracle_us", "us", 1e6, "deformation.gamma_oracle", None),
    ("cli.load_vector_file_s", "s", 1.0, "cli.load_vector_file", None),
)


def measure_setup(module: str, repeats: int):
    """(seconds, yardstick seconds) of fresh interpreters that import `module` from src/.

    Each is started just after the yardstick, an interpreter that imports only
    numpy and scipy.  One unmeasured pair first compiles the bytecode and
    warms the file cache.  The children run with one OpenBLAS thread: the
    thread pool numpy starts at import spins on the shared cores and made
    start times swing by half, whatever spherecdf did.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")

    def start(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    code = f"import sys; sys.path.insert(0, 'src'); import {module}"
    times = []
    for i in range(repeats + 1):
        yardstick = start(IMPORT_CODE)
        dt = start(code)
        if i:
            times.append((dt, yardstick))
    return times


def _ref(seconds, cal):
    """Measured seconds in reference seconds, given the kernel time beside them."""
    return seconds * REFERENCE_S / cal


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout; src_sha256 still names the code


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def environment(seed: int):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _metric(value, unit, samples=None):
    out = {"value": float(value), "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def _pass_s(log):
    """A pass's time in reference seconds: its timed calls, each against its own kernel."""
    return sum(_ref(dt, cal) for _, dt, _, cal in log.calls)


def _items_per_s(log):
    items = sum(n for _, _, n, _ in log.calls if n)
    return items / sum(_ref(dt, cal) for _, dt, n, cal in log.calls if n)


def _pass_kernel_s(log):
    return statistics.median(cal for _, _, _, cal in log.calls)


def end_to_end(workload, setup, untraced):
    """The contract's end-to-end metrics, and the report's named ones."""
    walls = [_pass_s(log) for log in untraced]
    rates = [_items_per_s(log) for log in untraced]
    contract = {
        "setup_s": _metric(statistics.median(dt * REFERENCE_IMPORT_S / y for dt, y in setup),
                           "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MiB"),
    }
    named = {k: dict(v) for k, v in contract.items()}
    named["setup_s"]["samples"] = len(setup)
    named["setup_s"]["raw"] = statistics.median(dt for dt, _ in setup)
    named["wall_s"]["samples"] = len(walls)
    named["wall_s"]["raw"] = statistics.median(
        sum(dt for _, dt, _, _ in log.calls) for log in untraced)
    named["peak_rss_mb"]["samples"] = 1
    rate = _metric(statistics.median(rates), "1/s", len(rates))
    if workload.item == "trials":
        named["trials_per_s"] = rate
    elif workload.item == "rows":
        named["rows_per_s"] = rate
    else:
        named["queries_per_s"] = rate
        lat = sorted(_ref(dt, cal) * 1e3 for log in untraced
                     for name, dt, _, cal in log.calls if name == "bound-optimize")
        p95 = statistics.quantiles(lat, n=20, method="inclusive")[18]
        named["query_ms_p50"] = _metric(statistics.median(lat), "ms", len(lat))
        named["query_ms_p95"] = _metric(p95, "ms", len(lat))
        named["query_ms_p95"]["beyond"] = sum(v > p95 for v in lat)
    return contract, named


def per_layer(rec, untraced, traced):
    """Per-layer metrics from the traced passes' spans; 0 where a layer was not called.

    Each span's time is in reference seconds, against the median kernel time
    of the pass it belongs to.
    """
    cal = {log.index: _pass_kernel_s(log) for log in traced}
    selfs = rec.self_times(cal, lambda dt, pid: _ref(dt, cal[pid]))
    out = {}
    for name, unit, scale, span, minus in SPAN_LAYERS:
        value = median_or_zero(selfs.get(span, []))
        if minus is not None and span in selfs:
            value -= median_or_zero(selfs.get(minus, []))
        out[name] = _metric(value * scale, unit, len(selfs.get(span, [])))
    out["montecarlo.events"] = _metric(traced[-1].events, "count", len(traced))
    cli_total = rec.per_pass_totals("cli.main")
    replay = rec.per_pass_totals("cli.replay")
    cli_calls = {}
    for name, _, _, _, pid in rec.spans:
        if name == "cli.main":
            cli_calls[pid] = cli_calls.get(pid, 0) + 1
    cli_self = [_ref((cli_total[p] - replay.get(p, 0.0)) / cli_calls[p], cal[p])
                for p in cli_calls]
    out["cli.self_s"] = _metric(median_or_zero(cli_self), "s", sum(cli_calls.values()))
    overhead = (statistics.median(map(_pass_s, traced))
                / statistics.median(map(_pass_s, untraced)) - 1.0)
    out["trace.overhead_frac"] = _metric(overhead, "frac", len(traced))
    return out


def measure(name, seed, seconds, trace, scale="full", workload=None):
    """One benchmark run; returns (report, result line)."""
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workload or workloads.make(name, seed, scale, OUT)
    rec, null = Recorder(), NullRecorder()
    passes = []  # (traced, log)

    def one_pass(traced):
        r = rec if traced else null
        r.pass_id = len(passes)
        log = workloads.PassLog(r, len(passes), sum(t == traced for t, _ in passes))
        wl.run_pass(log)
        passes.append((traced, log))
        wl.gate(log)

    try:
        setup = measure_setup(wl.setup_module, SETUP_REPEATS if scale == "full" else 1)
        one_pass(False)  # warm-up: checked, not timed
        deadline = perf_counter() + seconds
        order = [False, True] if trace else [False]
        while True:
            for traced in order:
                one_pass(traced)
            order.reverse()  # a traced pass's replay is heavy: alternate what follows it
            if perf_counter() >= deadline and len(passes) > MIN_PASSES * (1 + trace):
                break
    finally:
        if hasattr(wl, "close"):
            wl.close()

    untraced = [log for t, log in passes[1:] if not t]
    traced = [log for t, log in passes if t]
    logs = [log for _, log in passes]
    attempted = sum(log.attempted for log in logs)
    failures = [f"pass {log.index}: {op}: {why}"
                for log in logs for op, why in log.failed.items()]
    digests = sorted({log.sha.hexdigest() for log in logs})
    attempted += 1  # the digest comparison across passes is an operation too
    if len(digests) != 1:
        failures.append(f"passes disagree on the output digest: {digests}")
    contract, named = end_to_end(wl, setup, untraced)
    named["failed_ops_frac"] = _metric(len(failures) / attempted, "frac", attempted)
    report = {
        "workload": name, "scale": scale, "seconds": seconds, "trace": trace,
        "environment": environment(seed), "digest": digests[0] if len(digests) == 1 else digests,
        "passes": {"untraced": len(untraced), "traced": len(traced), "warm_up": 1},
        "calibration_s": statistics.median(c[3] for log in logs for c in log.calls),
        "setup_yardstick_s": statistics.median(y for _, y in setup),
        "end_to_end": named, "failures": failures[:20],
    }
    if trace:
        report["per_layer"] = per_layer(rec, untraced, traced)
        rec.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    metrics = report["per_layer"] if trace else contract
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    return report, line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spherecdf" / "__init__.py").is_file():
        print(f"error: no spherecdf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, line = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
