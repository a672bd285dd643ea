"""Reproducible Gaussian vectors and uniform sphere points.

A standard Gaussian vector Z divided by its Euclidean norm is uniform on the
unit sphere, and with lambda = sqrt(N)/|Z| the identity sqrt(N) X = lambda Z
ties the scaled sphere point to the Gaussian sample it came from.

Randomness comes from counter-based Philox streams keyed by (seed, stream_id):
identical keys reproduce identical output bit for bit, distinct stream ids are
independent, and no jump-ahead bookkeeping is needed for parallel trials.
Normal variates use the inverse-CDF transform applied to centered 53-bit
uniforms, so the mapping from key to sample is a fixed deterministic function
with no rejection-loop state.
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
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


def _uniform_open(gen: np.random.Generator, n: int) -> np.ndarray:
    # centered 53-bit grid: values (k + 1/2) 2^-53 lie strictly inside (0, 1),
    # keeping the inverse CDF finite
    raw = gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def gaussian_vector(N: int, rng: RngStream) -> np.ndarray:
    """N i.i.d. standard normal variates from the given stream.

    Deterministic per (seed, stream_id): the same stream always yields the
    same vector.
    """
    n = check_int(N, "N")
    return special.ndtri(_uniform_open(rng.generator(), n))


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

    Records the scale factor lambda = sqrt(N)/|Z| and the Gaussian norm |Z|.
    A zero norm (possible only for pathological floating-point draws) retries
    with the next values of the same stream.
    """
    n = check_int(N, "N")
    gen = rng.generator()
    while True:
        z = special.ndtri(_uniform_open(gen, n))
        nrm = math.sqrt(_sq_norm(z))
        if nrm > 0.0:
            break
    return SphereSample(coords=z / nrm, lam=math.sqrt(n) / nrm, gaussian_norm=nrm)


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
