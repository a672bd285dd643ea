"""Reproducible Gaussian vectors and uniform sphere points.

A standard Gaussian vector Z divided by its Euclidean norm is uniform on the
unit sphere, and with lambda = sqrt(N)/|Z| the identity sqrt(N) X = lambda Z
ties the scaled sphere point to the Gaussian sample it came from.

Randomness comes from counter-based Philox streams keyed by the exact
unsigned 64-bit pair (seed, stream_id): identical keys reproduce identical
output bit for bit, distinct stream ids are independent, and no jump-ahead
bookkeeping is needed for parallel trials.  A stream's k-th normal variate is
the inverse CDF of the top 53 bits of its k-th raw Philox word, centered on
the 53-bit grid; one kernel draws these rows for vectors and trial batches.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import U64_MAX, DomainError, check_int, check_real, check_reals, prevalidated

__all__ = ["RngStream", "SphereSample", "gaussian_vector", "sphere_sample", "lambda_of"]


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair naming one Philox counter-based stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        check_int(self.seed, "seed", 0, U64_MAX)
        check_int(self.stream_id, "stream_id", 0, U64_MAX)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=_key(self.seed, self.stream_id)))


def _key(seed: int, stream_id: int) -> np.ndarray:
    # numpy turns a plain list holding a value >= 2^63 into float64, which
    # merges neighbouring keys and wraps 2^64 - 1 to 0
    return np.array([seed, stream_id], dtype=np.uint64)


# one Philox bit generator per thread; _keyed_uniforms re-keys it for every row
_philox = threading.local()


def _keyed_uniforms(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """Row j holds the first n uniforms of stream (seed, first + j), shape (count, n).

    The values are (k + 1/2) 2^-53 rounded to double, for the 53-bit draws k,
    capped at 1 - 2^-53: k = 2^53 - 1 alone would round up to 1.0, whose
    inverse normal CDF is inf.  raw >> 11 equals Generator.integers(0, 2**53),
    whose bounded method never rejects on a power-of-two range, so each row
    matches a fresh generator of its stream while one bit generator serves the
    whole call, and one per thread serves every call on that thread (building
    a Philox costs about as much as drawing a row of 100).
    """
    bg = getattr(_philox, "bg", None)
    if type(bg) is not np.random.Philox:  # first call on this thread, or a substituted class
        bg = _philox.bg = np.random.Philox(key=0)
    # a fresh generator's state: counter 0 and an empty buffer (buffer_pos 4),
    # so restoring it with a new key starts that key's stream; the setter reads
    # Python ints and lists at half the cost of the uint64 arrays bg.state holds
    key = [seed, first]
    state = {"bit_generator": type(bg).__name__, "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((count, n))
    for j in range(count):
        key[1] = first + j
        bg.state = state
        out[j] = bg.random_raw(n) >> 11
    out += 0.5
    out *= 2.0 ** -53
    np.minimum(out, 1.0 - 2.0 ** -53, out=out)
    return out


def _gaussian_rows(N: int, seed: int, first: int, count: int) -> np.ndarray:
    """Row j is the first N normal variates of stream (seed, first + j), shape (count, N)."""
    u = _keyed_uniforms(seed, first, count, N)
    return special.ndtri(u, out=u)


def gaussian_vector(N: int, rng: RngStream) -> np.ndarray:
    """N i.i.d. standard normal variates from the given stream.

    Deterministic per (seed, stream_id): the same stream always yields the
    same vector.
    """
    n = check_int(N, "N")
    return _gaussian_rows(n, rng.seed, rng.stream_id, 1)[0]


def _norms(z: np.ndarray):
    """Euclidean norm of a vector, or of each row of a C-contiguous matrix.

    Each norm is the square root of one BLAS ddot of the row with itself, so a
    batch and a row-by-row pass agree bit for bit.
    """
    return np.sqrt(np.vecdot(z, z))


@dataclass(frozen=True, eq=False)
class SphereSample:
    """A unit-sphere point with the scale factor linking it to its Gaussian source.

    coords is X = Z/|Z|, lam is sqrt(N)/|Z|, gaussian_norm is |Z|; by
    construction lam * gaussian_norm = sqrt(N).
    """

    coords: np.ndarray
    lam: float
    gaussian_norm: float

    def __post_init__(self):
        x = check_reals(self.coords, "coords")
        unit = float(_norms(x)) if x.ndim == 1 else math.nan
        if not abs(unit - 1.0) <= 1e-12:
            raise DomainError(f"coords must be a 1-D vector of unit norm, got norm {unit!r}")
        lam = check_real(self.lam, "scale factor", 0.0)
        nrm = check_real(self.gaussian_norm, "gaussian_norm", 0.0)
        if abs(lam * nrm - math.sqrt(x.size)) > 1e-12 * math.sqrt(x.size):
            raise DomainError("lam * gaussian_norm must equal sqrt(N)")
        x.setflags(write=False)
        object.__setattr__(self, "coords", x)


def sphere_sample(N: int, rng: RngStream) -> SphereSample:
    """Uniform point on the unit sphere in R^N via Gaussian normalization.

    Z is gaussian_vector(N, rng); records lambda = sqrt(N)/|Z| and |Z|.  Like
    the batch runners it never redraws: |Z| = 0 needs every entry to draw the
    one grid value that rounds to exactly 1/2 (probability 2^-53 each).
    """
    z = gaussian_vector(N, rng)
    nrm = float(_norms(z))
    coords = z / nrm
    coords.setflags(write=False)
    return prevalidated(SphereSample, coords=coords, lam=math.sqrt(z.size) / nrm,
                        gaussian_norm=nrm)


def lambda_of(Z: np.ndarray) -> float:
    """Scale factor sqrt(N) / |Z| of a nonzero vector; equals sphere_sample's lam for Z."""
    z = check_reals(Z, "Z")
    if z.ndim != 1 or z.size == 0:
        raise DomainError("lambda_of expects a nonempty 1-D vector")
    nrm = float(_norms(z))
    if nrm == 0.0:
        raise DomainError("lambda_of is undefined for the zero vector")
    return math.sqrt(z.size) / nrm
