"""Fixed calibration kernel: how fast this machine runs at this moment.

The machine the benchmark runs on is shared, and its speed drifts by tens of
percent from one minute to the next.  The benchmark therefore runs this
kernel before, between and after the timed calls of every pass and reports
each call's time in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

where the kernel seconds are the mean of the two runs around the call.
Set-up times are scaled by a different yardstick: a fresh interpreter that
imports numpy and scipy only (IMPORT_CODE), started just before each
measured one.  Starting an interpreter reads and links files rather than
computing, and the kernel tracked its drift too loosely.

The ratio of a pass's time to the kernel's time stays steady while the
machine's speed drifts.  The kernel uses numpy and scipy only, never
spherecdf, so no change to the program moves it.  Its four parts, of about
equal length, mirror the kinds of work in the workloads: many small keyed
numpy draws, scalar Python math, special functions and sorting over a large
array, and over a medium one.  The neighbours that slow this machine down
compete for the core, not for memory bandwidth: a part that streams from
memory tracked the workloads worse, so there is none.
"""

import math
from time import perf_counter

import numpy as np
from scipy import special

# kernel seconds on the reference machine: 2-core x86_64 VM, numpy 2.4.6,
# scipy 1.17.1 (see DESIGN.md)
REFERENCE_S = 0.011

# the set-up yardstick, and its wall time on the reference machine
IMPORT_CODE = "import numpy, scipy"
REFERENCE_IMPORT_S = 0.2

_BIG = np.linspace(-4.0, 4.0, 1 << 17)
_MID = np.linspace(-4.0, 4.0, 1 << 15)


def _small_draws():
    for i in range(75):
        gen = np.random.Generator(np.random.Philox(key=[i, 7]))
        u = (gen.integers(0, 1 << 53, size=100).astype(np.float64) + 0.5) * 2.0 ** -53
        z = np.sort(special.ndtri(u))
        float(special.ndtr(z).max())


def _scalar_math():
    acc = 0.0
    for i in range(4000):
        t = (i % 97) / 98.0
        acc += math.exp(-100.0 * (0.5 * (1.0 - 1.0 / (1.0 + t) ** 2)) ** 2)
        acc += math.sqrt(2.0 / (1.0 - 0.9 * t) ** 2 - 1.0)
        acc += float(special.ndtr(t))
    return acc


def _large_sweeps():
    v = special.ndtr(_BIG)
    v.sort()
    # not np.dot: a BLAS call would leave OpenBLAS worker threads spinning
    # on the other core after the kernel, beside the call it brackets
    return float(np.square(v, out=v).sum())


def _medium_sweeps():
    v = special.ndtri(special.ndtr(_MID))
    v.sort()
    return float(v[0])


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = perf_counter()
    _small_draws()
    _scalar_math()
    _large_sweeps()
    _medium_sweeps()
    return perf_counter() - t0
