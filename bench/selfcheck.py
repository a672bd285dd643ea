"""Self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload at its smallest size, untraced and traced, and checks
that each run fails no operation, prints every metric BENCHMARK.json names
plus the workload's named report metrics, and that the traced and untraced
runs agree on the output digest.  Then it plants a wrong expected event count
in the Monte Carlo gate and checks that the gate reports it, so the gate is
known to be able to fail.  Exits 1 on any problem, 2 without sources.
"""

import json
import sys

import run

# the report's named end-to-end metrics per workload
NAMED = {
    "mc-small-n": ("trials_per_s",),
    "mc-large-n": ("trials_per_s",),
    "uniformity": ("rows_per_s",),
    "analysis": ("queries_per_s", "query_ms_p50", "query_ms_p95"),
}
COMMON = ("setup_s", "wall_s", "peak_rss_mb", "failed_ops_frac")


def _show(metrics):
    for name, m in metrics.items():
        samples = f"  ({m['samples']} samples)" if "samples" in m else ""
        print(f"    {name:42s} {m['value']:14.6g} {m['unit']}{samples}")


def main():
    if not (run.SRC / "spherecdf" / "__init__.py").is_file():
        print(f"error: no spherecdf sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for name in run.WORKLOADS:
        digests = {}
        for trace in (0, 1):
            report, line = run.measure(name, 0, 0.0, trace, scale="smoke")
            print(f"{name} trace={trace}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}")
            _show(report["end_to_end"])
            if trace:
                _show(report["per_layer"])
            digests[trace] = report["digest"]
            if set(line["metrics"]) != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(line['metrics'])}")
            missing = set(COMMON + NAMED[name]) - set(report["end_to_end"])
            if missing:
                problems.append(f"{name}: report lacks {sorted(missing)}")
            if not line["correct"] or line["failed"] or report["end_to_end"][
                    "failed_ops_frac"]["value"] != 0.0:
                problems.append(f"{name} trace={trace}: {report['failures']}")
        if digests[0] != digests[1]:
            problems.append(f"{name}: traced digest {digests[1]} != untraced {digests[0]}")

    planted = workloads.make("mc-small-n", 0, "smoke", run.OUT)
    planted.expected_count_shift = 1
    _, line = run.measure("mc-small-n", 0, 0.0, 0, scale="smoke", workload=planted)
    print(f"planted wrong event count: correct={line['correct']} failed={line['failed']}")
    if line["correct"] or not line["failed"]:
        problems.append("the gate accepted a wrong expected event count")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
