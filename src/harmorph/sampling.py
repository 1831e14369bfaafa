"""Seeded random sampling of group points, stabilizer points and rationals.

All float randomness flows through Philox (counter-based) keyed by a 64-bit
seed plus a spawn index, so every run is bit-reproducible from the seed
recorded in its report.  Samplers resample until the membership residual
and a conditioning cap (cond <= 1e6) are met; the loop is bounded and
exceeding the bound is an internal error.  The group sampler draws a whole
stack of indices at once, with the same points as one index at a time.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .matrices import mat_exp
from .scalars import ComplexRational
from .spaces import SpaceSpec

COND_CAP = 1e6
MEMBERSHIP_TOL = 1e-10
_MAX_ATTEMPTS = 1000


def rng_from_seed(seed: int, *spawn: int) -> np.random.Generator:
    """Deterministic Philox generator for (seed, spawn index...)."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(spawn))
    return np.random.Generator(np.random.Philox(ss))


def fresh_seed() -> int:
    """Draw a fresh 64-bit seed from OS entropy."""
    return int(np.random.SeedSequence().entropy) & (2**64 - 1)


def _uniform_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def _unitary(z: np.ndarray) -> np.ndarray:
    """Special unitary matrices from the QR factors of z (one matrix or a stack),
    with the phases of the factorization fixed."""
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    q = q * ph[..., None, :]  # make the factorization phase-canonical
    q[..., :, 0] /= np.linalg.det(q)[..., None]
    return q


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, (d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _roots(values: np.ndarray, keep: np.ndarray, d: int) -> np.ndarray:
    """values ** (1/d) where keep, else 1, shaped to divide a stack of matrices.

    Taken point by point: a power of a stacked array rounds differently.
    """
    return np.array([v ** (1.0 / d) if k else 1.0 for v, k in zip(values, keep)])[:, None, None]


def _candidates(space: SpaceSpec, rngs: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """One candidate point per generator, stacked, and which candidates were drawn.

    Stacked determinants, factorizations and exponentials give each matrix the
    numbers it gets alone.
    """
    d = space.ambient_dim
    drawn = np.ones(len(rngs), dtype=bool)
    if space.id == "slr-so":
        m = np.array([rng.uniform(-1.0, 1.0, (d, d)) for rng in rngs])
        dt = np.linalg.det(m)
        drawn = ~(np.abs(dt) < 1e-6)
        x = m / _roots(np.abs(dt), drawn, d)
        x[np.linalg.det(x) < 0, :, 0] *= -1
        return x.astype(complex), drawn
    if space.id == "sus-sp":
        n = space.n
        a = np.empty((len(rngs), d, d), dtype=complex)
        for ai, rng in zip(a, rngs):
            alpha = _uniform_complex(rng, (n, n)) * 0.35
            beta = _uniform_complex(rng, (n, n)) * 0.35
            ai[:n, :n], ai[:n, n:] = alpha, beta
            ai[n:, :n], ai[n:, n:] = -beta.conj(), alpha.conj()
        return mat_exp(a), drawn
    if space.id in ("su-so", "su-sp"):
        return _unitary(np.array([_uniform_complex(rng, (d, d)) for rng in rngs])), drawn
    if space.id == "slc-su":
        z = np.array([_uniform_complex(rng, (d, d)) for rng in rngs])
        dt = np.linalg.det(z)
        drawn = ~(np.hypot(dt.real, dt.imag) < 1e-6)  # abs() of each determinant
        return z / _roots(dt, drawn, d), drawn
    raise AssertionError(space.id)


def sample_group_point(space: SpaceSpec, rng_seed: int, index: int | np.ndarray = 0) -> np.ndarray:
    """A random ambient-group point passing membership within 1e-10; for an array of
    indices, a stack of points of shape index.shape + (d, d).

    Attempt a at an index draws from the generator of (seed, index, a), so a point
    is the same whether it is sampled alone or in a stack.  A stack draws the
    indices still without a point together, and tests them together.
    """
    indices = np.asarray(index)
    flat = indices.ravel()
    d = space.ambient_dim
    out = np.empty((flat.size, d, d), dtype=complex)
    todo = np.arange(flat.size)
    for attempt in range(_MAX_ATTEMPTS):
        if not todo.size:
            break
        x, ok = _candidates(space, [rng_from_seed(rng_seed, int(i), attempt) for i in flat[todo]])
        ok &= ~(np.linalg.cond(x) > COND_CAP) & space.membership(x, MEMBERSHIP_TOL)
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    if todo.size:
        raise RuntimeError(
            f"sampler failed to produce a {space.id} point after {_MAX_ATTEMPTS} attempts")
    return out.reshape(indices.shape + (d, d))


def sample_stabilizer_point(space: SpaceSpec, rng_seed: int, index: int = 0) -> np.ndarray:
    """A random point of the stabilizer K within 1e-10."""
    d = space.ambient_dim
    for attempt in range(_MAX_ATTEMPTS):
        rng = rng_from_seed(rng_seed, index, attempt, 1)
        if space.stabilizer == "so":
            k = _orthogonal(rng, d).astype(complex)
        elif space.stabilizer == "su":
            k = _unitary(_uniform_complex(rng, (d, d)))
        else:  # sp(n): exponential of a symplectic algebra element
            n = space.n
            g = _uniform_complex(rng, (n, n)) * 0.35
            alpha = (g - g.conj().T) / 2.0
            h = _uniform_complex(rng, (n, n)) * 0.35
            beta = (h + h.T) / 2.0
            a = np.block([[alpha, beta], [-beta.conj(), alpha.conj()]])
            k = mat_exp(a)
        if space.stabilizer_membership(k, MEMBERSHIP_TOL):
            return k
    raise RuntimeError(f"stabilizer sampler failed for {space.id}")


# ---------------------------------------------------------------------------
# exact rational sampling (numerators in [-9, 9], denominators in [1, 9])
# ---------------------------------------------------------------------------

def rational_vector(rng: np.random.Generator, n: int) -> list[Fraction]:
    nums = rng.integers(-9, 10, n)
    dens = rng.integers(1, 10, n)
    return [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]


def complex_rational_vector(rng: np.random.Generator, n: int) -> list[ComplexRational]:
    re = rational_vector(rng, n)
    im = rational_vector(rng, n)
    return [ComplexRational(a, b) for a, b in zip(re, im)]
