"""Seeded random sampling of group points, stabilizer points and rationals.

All float randomness flows through Philox (counter-based) keyed by a 64-bit
seed plus a spawn index, so every run is bit-reproducible from the seed
recorded in its report.  Samplers resample until the membership residual
and a conditioning cap (cond <= 1e6) are met; the loop is bounded and
exceeding the bound is an internal error.  The group sampler draws a whole
stack of indices at once, with the same points as one index at a time.

``rng_from_seed`` defines the generator of one key (seed, spawn...).  A stack
of keys gets the same generators without a SeedSequence or a Philox per key:
``philox_keys`` runs SeedSequence's hash over all the keys at once, the part
that depends on the seed alone once with Python ints and each spawn word as a
uint32 array, and ``generators`` resets one Philox to each key's fresh state
in turn.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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


# SeedSequence's hash at numpy's pool size of 4 words (numpy/random/bit_generator.pyx).
# The constants stay Python ints, masked to 32 bits: a numpy uint32 scalar warns
# when a product overflows, an array wraps silently.
_MASK32 = 2**32 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# hashmix calls of the pool: one per pool word, then one per ordered pair of pool words
_POOL_CALLS = _POOL + _POOL * (_POOL - 1)
_FRESH = [0] * 4  # a fresh Philox's counter and buffer


def _powers(init: int, mult: int, count: int) -> list[int]:
    """init, init * mult, init * mult^2, ... modulo 2^32: the hash constant at each call."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hashmix(value, consts, k):
    """The k-th call of the hash on a word, a Python int or a uint32 array; k may be an
    array of call numbers, one per word, with consts then a uint32 array."""
    v = (value ^ consts[k]) * consts[k + 1] & _MASK32
    return v ^ v >> 16


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y & _MASK32
    return r ^ r >> 16


def philox_keys(seed: int, *spawn) -> np.ndarray:
    """The Philox key of rng_from_seed(seed, *key) for every key of the broadcast
    spawn arrays, of shape broadcast shape + (2,) and dtype uint64.

    This is SeedSequence(seed & (2^64 - 1), spawn_key=key).generate_state(2, uint64).
    The seed fills the pool, so the pool before the first spawn word is computed
    once.  Each spawn entry in [0, 2^64) adds one uint32 word, or two from 2^32 on;
    the hash constants of a word depend on its position among the key's words, so
    each key keeps the number of its next hash call.
    """
    entries = [np.asarray(s) for s in spawn]
    shape = np.broadcast_shapes(*(e.shape for e in entries))
    a = _powers(_INIT_A, _MULT_A, _POOL_CALLS + _POOL * 2 * len(entries) + 1)
    seed = int(seed) & (2**64 - 1)
    # the seed's words, padded with zero words to the pool size
    words = [seed & _MASK32, seed >> 32] + [0] * (_POOL - 2)
    pool = [_hashmix(w, a, k) for k, w in enumerate(words)]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a, k))
                k += 1
    # one row per key, one column per pool word, and the number of the word's next hash call
    pools = np.tile(np.array(pool, dtype=np.uint32), (math.prod(shape), 1))
    at = np.tile(np.arange(_POOL_CALLS, _POOL_CALLS + _POOL), (len(pools), 1))
    table = np.array(a, dtype=np.uint32)
    for e in entries:
        if e.dtype.kind not in "iu" or (e < 0).any():
            raise ValueError("spawn entries must be integers in [0, 2^64)")
        e = np.broadcast_to(e, shape).reshape(-1, 1).astype(np.uint64)
        low, high = (e & _MASK32).astype(np.uint32), (e >> 32).astype(np.uint32)
        pools = _mix(pools, _hashmix(low, table, at))
        at += _POOL
        more = high != 0
        if more.any():
            pools = np.where(more, _mix(pools, _hashmix(high, table, at)), pools)
            at += _POOL * more
    b = np.array(_powers(_INIT_B, _MULT_B, _POOL + 1), dtype=np.uint32)
    state = _hashmix(pools, b, np.arange(_POOL)).astype(np.uint64)
    return (state[:, 0::2] | state[:, 1::2] << 32).reshape(shape + (2,))


def generators(seed: int, *spawn) -> Iterator[np.random.Generator]:
    """rng_from_seed(seed, *key) for every key of the broadcast spawn arrays, in C order.

    One Philox generator is reset to each key's fresh state in turn, so a generator
    must be done with before the next one is taken.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    for key in philox_keys(seed, *spawn).reshape(-1, 2).tolist():
        bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _FRESH, "key": key},
                               "buffer": _FRESH, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng


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


def _candidates(space: SpaceSpec, count: int,
                rngs: Iterator[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """One candidate point from each of the count generators, stacked, and which
    candidates were drawn.  Each generator is used up before the next is taken.

    Stacked determinants, factorizations and exponentials give each matrix the
    numbers it gets alone.
    """
    d = space.ambient_dim
    drawn = np.ones(count, dtype=bool)
    if space.id == "slr-so":
        m = np.array([rng.uniform(-1.0, 1.0, (d, d)) for rng in rngs])
        dt = np.linalg.det(m)
        drawn = ~(np.abs(dt) < 1e-6)
        x = m / _roots(np.abs(dt), drawn, d)
        x[np.linalg.det(x) < 0, :, 0] *= -1
        return x.astype(complex), drawn
    if space.id == "sus-sp":
        n = space.n
        a = np.empty((count, d, d), dtype=complex)
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


def first_accepted(index, d: int, draw, attempts: int, failure: Exception) -> np.ndarray:
    """The first accepted candidate of each index of the array, stacked to shape
    index.shape + (d, d).  Round a calls draw(left, a) with the indices left without
    one, which returns a stack of their candidates and which of these are accepted;
    failure is raised for an index with none after the given number of rounds."""
    index = np.asarray(index)
    flat = index.ravel()
    out = np.empty((flat.size, d, d), dtype=complex)
    todo = np.arange(flat.size)
    for attempt in range(attempts):
        if not todo.size:
            break
        x, ok = draw(flat[todo], attempt)
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    if todo.size:
        raise failure
    return out.reshape(index.shape + (d, d))


def sample_group_point(space: SpaceSpec, rng_seed: int, index: int | np.ndarray = 0) -> np.ndarray:
    """A random ambient-group point passing membership within 1e-10; for an array of
    indices, a stack of points of shape index.shape + (d, d).

    Attempt a at an index draws from the generator of (seed, index, a), so a point
    is the same whether it is sampled alone or in a stack.  A stack draws the
    indices still without a point together, with their generators derived
    together, and tests them together.
    """
    def draw(indices, attempt):
        x, ok = _candidates(space, indices.size, generators(rng_seed, indices, attempt))
        return x, ok & ~(np.linalg.cond(x) > COND_CAP) & space.membership(x, MEMBERSHIP_TOL)

    return first_accepted(index, space.ambient_dim, draw, _MAX_ATTEMPTS, RuntimeError(
        f"sampler failed to produce a {space.id} point after {_MAX_ATTEMPTS} attempts"))


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
