"""In-memory span recorder for the benchmark's traced passes.

A span is recorded around one call the benchmark makes into spherecdf: its
name, start, end, the index of the enclosing span and the pass it belongs to.
Spans stay in memory while the run measures and are written out when it ends.
A span's self time is its duration minus the time its child spans cover.
"""

import json
import statistics
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Collects spans; `span(name)` is a context manager around one call."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, pass id]
        self.pass_id = 0
        self._open = []

    def span(self, name):
        return _Span(self, name)

    def self_times(self, pass_ids, scale):
        """Self times of the spans of the given passes, grouped by name, in record order.

        `scale(seconds, pass id)` converts each self time.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid in pass_ids:
                out[name].append(scale(end - start - child[i], pid))
        return out

    def per_pass_totals(self, name):
        """Summed duration of the spans called `name`, per pass id."""
        out = defaultdict(float)
        for n, start, end, _, pid in self.spans:
            if n == name:
                out[pid] += end - start
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pid}) + "\n")


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.spans)
        rec.spans.append([self.name, 0.0, 0.0, rec._open[-1] if rec._open else None,
                          rec.pass_id])
        rec._open.append(self.idx)
        rec.spans[self.idx][1] = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.rec.spans[self.idx][2] = end
        self.rec._open.pop()
        return False


class NullRecorder:
    """Stands in for a Recorder in untraced passes and records nothing."""

    enabled = False

    def span(self, name):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
