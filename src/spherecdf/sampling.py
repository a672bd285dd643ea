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
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, check_int, check_u64

__all__ = ["RngStream", "SphereSample", "gaussian_vector", "sphere_sample", "lambda_of"]

# fsum is exact but slow; switch to it only where naive accumulation could
# erode the 1e-12 norm invariants
_COMPENSATED_THRESHOLD = 1_000_000


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair naming one Philox counter-based stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        check_u64(self.seed, "seed")
        check_u64(self.stream_id, "stream_id")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=_key(self.seed, self.stream_id)))


def _key(seed: int, stream_id: int) -> np.ndarray:
    # numpy turns a plain list holding a value >= 2^63 into float64, which
    # merges neighbouring keys and wraps 2^64 - 1 to 0
    return np.array([seed, stream_id], dtype=np.uint64)


def _keyed_uniforms(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """Row j holds the first n uniforms of stream (seed, first + j), shape (count, n).

    The values are (k + 1/2) 2^-53 rounded to double, for the 53-bit draws k.
    raw >> 11 equals Generator.integers(0, 2**53), whose bounded method never
    rejects on a power-of-two range, so each row matches a fresh generator of
    its stream while one bit generator serves the whole call.
    """
    bg = np.random.Philox(key=_key(seed, first))
    # a fresh generator's state: counter 0 and an empty buffer (buffer_pos 4),
    # so restoring it with a new key starts that key's stream
    state = bg.state
    key = state["state"]["key"]
    out = np.empty((count, n))
    for j in range(count):
        key[1] = first + j
        bg.state = state
        out[j] = bg.random_raw(n) >> 11
    out += 0.5
    out *= 2.0 ** -53
    return out


def gaussian_vector(N: int, rng: RngStream) -> np.ndarray:
    """N i.i.d. standard normal variates from the given stream.

    Deterministic per (seed, stream_id): the same stream always yields the
    same vector.
    """
    n = check_int(N, "N")
    return special.ndtri(_keyed_uniforms(rng.seed, rng.stream_id, 1, n)[0])


def _sq_norm(z: np.ndarray) -> float:
    return float(np.dot(z, z))


@dataclass(frozen=True)
class SphereSample:
    """A unit-sphere point with the scale factor linking it to its Gaussian source.

    coords is X = Z/|Z|, lam is sqrt(N)/|Z|, gaussian_norm is |Z|; by
    construction lam * gaussian_norm = sqrt(N).
    """

    coords: np.ndarray
    lam: float
    gaussian_norm: float

    def __post_init__(self):
        n = self.coords.shape[0]
        unit = math.sqrt(_sq_norm(self.coords))
        if abs(unit - 1.0) > 1e-12:
            raise DomainError(f"coords must have unit norm, got {unit!r}")
        if not self.lam > 0.0 or not self.gaussian_norm > 0.0:
            raise DomainError("scale factor and norm must be positive")
        if abs(self.lam * self.gaussian_norm - math.sqrt(n)) > 1e-12 * math.sqrt(n):
            raise DomainError("lam * gaussian_norm must equal sqrt(N)")
        self.coords.setflags(write=False)


def sphere_sample(N: int, rng: RngStream) -> SphereSample:
    """Uniform point on the unit sphere in R^N via Gaussian normalization.

    Z is gaussian_vector(N, rng); records lambda = sqrt(N)/|Z| and |Z|.  Like
    the batch runners it never redraws: |Z| = 0 needs every entry to draw the
    one grid value that rounds to exactly 1/2 (probability 2^-53 each).
    """
    z = gaussian_vector(N, rng)
    nrm = math.sqrt(_sq_norm(z))
    return SphereSample(coords=z / nrm, lam=math.sqrt(z.size) / nrm, gaussian_norm=nrm)


def lambda_of(Z: np.ndarray) -> float:
    """Scale factor sqrt(N) / |Z| of a nonzero vector.

    Uses exact compensated summation for the squared norm beyond 1e6 entries.
    """
    z = np.asarray(Z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise DomainError("lambda_of expects a nonempty 1-D vector")
    if z.size > _COMPENSATED_THRESHOLD:
        sq = math.fsum(np.square(z).tolist())
    else:
        sq = _sq_norm(z)
    if sq == 0.0:
        raise DomainError("lambda_of is undefined for the zero vector")
    return math.sqrt(z.size) / math.sqrt(sq)
