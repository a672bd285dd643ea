"""Reproducible Gaussian vectors and uniform sphere points.

A standard Gaussian vector Z divided by its Euclidean norm is uniform on the
unit sphere, and with lambda = sqrt(N)/|Z| the identity sqrt(N) X = lambda Z
ties the scaled sphere point to the Gaussian sample it came from.

Randomness comes from counter-based Philox streams keyed by the exact
unsigned 64-bit pair (seed, stream_id): identical keys reproduce identical
output bit for bit, distinct stream ids are independent, and no jump-ahead
bookkeeping is needed for parallel trials.  A stream's j-th normal variate is
ndtri((k + 1/2) 2^-53), where k is the top 53 bits of its j-th raw Philox word;
one kernel draws these rows for vectors and trial batches, writing each row's
k 2^-53 in place with Generator.random and adding 2^-54 once per block (the
same double, since scaling by a power of two commutes with rounding).  The
grid is centered only for k < 2^52: above, k + 1/2 rounds to an even integer
in double, so draws 2m + 1 and 2m + 2 share one value and k = 2^52 gives
exactly 1/2.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import SIZE_MAX, DomainError, check_int, check_real, check_reals, prevalidated

__all__ = ["RngStream", "SphereSample", "gaussian_vector", "sphere_sample", "lambda_of"]


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair naming one Philox counter-based stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        check_int(self.seed, "seed", 0)
        check_int(self.stream_id, "stream_id", 0)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        # numpy turns a plain list holding a value >= 2^63 into float64, which
        # merges neighbouring keys and wraps 2^64 - 1 to 0
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


# one Generator over a Philox bit generator per thread; _keyed_uniforms
# re-keys the bit generator for every row
_philox = threading.local()


def _keyed_uniforms(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """Row j holds the first n uniforms of stream (seed, first + j), shape (count, n).

    The values are (k + 1/2) 2^-53 rounded to double, for the 53-bit draws k,
    capped at 1 - 2^-53: k = 2^53 - 1 alone would round up to 1.0, whose
    inverse normal CDF is inf.  Generator.random writes k 2^-53 (k the top 53
    bits of each raw word) straight into the row in a C loop that releases the
    GIL; one pass over the block then adds 2^-54, which gives the same double
    as (k + 1/2) 2^-53 because scaling by a power of two commutes with
    rounding.  k is also Generator.integers(0, 2**53), whose bounded method
    never rejects on a power-of-two range, so each row matches a fresh
    generator of its stream while one bit generator serves the whole call, and
    one per thread serves every call on that thread (building a Philox costs
    about as much as drawing a row of 100).
    """
    gen = getattr(_philox, "gen", None)
    if gen is None or type(gen.bit_generator) is not np.random.Philox:
        # first call on this thread, or a substituted class
        gen = _philox.gen = np.random.Generator(np.random.Philox(key=0))
    bg = gen.bit_generator
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
        gen.random(out=out[j])
    out += 2.0 ** -54
    np.minimum(out, 1.0 - 2.0 ** -53, out=out)
    return out


def gaussian_vector(N: int, rng: RngStream) -> np.ndarray:
    """N i.i.d. standard normal variates from the given stream.

    Deterministic per (seed, stream_id): the same stream always yields the
    same vector.
    """
    if not isinstance(rng, RngStream):
        raise DomainError("gaussian_vector expects an RngStream")
    u = _keyed_uniforms(rng.seed, rng.stream_id, 1, check_int(N, "N", 1, SIZE_MAX))[0]
    return special.ndtri(u, out=u)


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
    """Scale factor sqrt(N) / |Z| of a nonzero vector; equals sphere_sample's lam for Z.

    Where the sum of squares overflows or is subnormal (|Z| comes out inf, or
    below 2^-511, where it keeps only a few significant bits), |Z| is taken as
    max|Z| * |Z / max|Z||, so lambda is refused only for the zero vector or
    when lambda itself is out of float range.
    """
    z = check_reals(Z, "Z")
    if z.ndim != 1 or z.size == 0:
        raise DomainError("lambda_of expects a nonempty 1-D vector")
    with np.errstate(over="ignore"):
        nrm = float(_norms(z))
    if 2.0 ** -511 <= nrm < math.inf:
        return math.sqrt(z.size) / nrm
    big = float(np.max(np.abs(z)))
    if big == 0.0:
        raise DomainError("lambda_of is undefined for the zero vector")
    lam = math.sqrt(z.size) / float(_norms(z / big)) / big
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda of this vector is out of float range: {lam!r}")
    return lam
