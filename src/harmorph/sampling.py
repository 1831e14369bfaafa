"""Seeded random sampling of group points, stabilizer points and exact vectors.

All float randomness flows through Philox (counter-based) keyed by a 64-bit
seed plus a spawn index, so every run is bit-reproducible from the seed
recorded in its report.  Samplers resample until the membership residual
(and, for group points, a conditioning cap cond <= 1e6) is met; the loop is
bounded and exceeding the bound is an internal error.  The cap takes an SVD
only where the cheap bound ||x||_F^d / |det x| leaves it open (``_conditioned``).
A sus-sp point is a quaternionic Q(alpha, beta) scaled to determinant 1, and
an Sp(n) stabilizer point the exponential of a skew-Hermitian Q(alpha, beta),
taken from its eigendecomposition (``normal_exp``).  The group and the
stabilizer samplers draw a whole stack of indices at once through one retry
loop (``first_accepted``), with the same points as one index at a time; each
key's candidate is one rng.random call (``_draw``), rounded as the
rng.uniform calls it replaces.  An exact trial's four rational vectors are one
rng.integers call, each vector drawn directly as its Gaussian-integer multiple
L v, with L the lcm of its drawn denominators (``_exact_draws``); no suite draws
them, since the exact suites prove their identities from coefficients.

Every draw has its own key:

========================= ==================================================
draw                      key (seed, spawn...)
========================= ==================================================
group point, attempt a    (seed, index, a); the domain point of trial t
                          tries the group point of index 1000 t + r in round r
stabilizer point, a       (seed, index, a, 1)
invariance scale factor   (seed, trial, 7)
basis rotation            (seed, rotation, 11)
exact trial's 4 vectors   (seed, trial), one rng.integers call
========================= ==================================================

The stream of a key (seed, spawn...) is that of Philox seeded by
``SeedSequence(seed, spawn_key=spawn)``, with the seed masked to 64 bits.
``generators`` gives a stack of keys their streams without a Philox per key:
it resets one Philox to each key's fresh state in turn.  Each key's Philox key
is SeedSequence's own (``_philox_key``), memoized, since the suites draw the
same few keys again and again.

Above that memo of keys sits one of accepted group points, ``_POINTS``: a
point is a function of (space id, n, seed, index) alone, so every suite on a
space at a seed shares its draws.  A stack looks up each of its indices and
draws only the missing ones, as one stack; a draw that raises stores nothing.
The memo keeps at most _POINTS_MAXSIZE points, the oldest going first, and a
caller always gets a new array.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .spaces import SpaceSpec

COND_CAP = 1e6
MEMBERSHIP_TOL = 1e-10
_MAX_ATTEMPTS = 1000


_FRESH = [0] * 4  # a fresh Philox's counter and buffer


@lru_cache(maxsize=2**14)
def _philox_key(seed: int, spawn: tuple[int, ...]) -> list[int]:
    """The key of Philox(SeedSequence(seed, spawn_key=spawn)), for a seed in [0, 2^64)."""
    return np.random.SeedSequence(seed, spawn_key=spawn).generate_state(2, np.uint64).tolist()


def generators(seed: int, *spawn) -> Iterator[np.random.Generator]:
    """The generator of (seed, *key) for every key of the broadcast spawn arrays, in C order.

    One Philox generator is reset to each key's fresh state in turn, so a generator
    must be done with before the next one is taken.
    """
    seed = int(seed) & (2**64 - 1)
    keys = zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*spawn))) if spawn else [()]
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    for key in keys:
        bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _FRESH, "key": _philox_key(seed, key)},
                               "buffer": _FRESH, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng


def fresh_seed() -> int:
    """Draw a fresh 64-bit seed from OS entropy."""
    return int(np.random.SeedSequence().entropy) & (2**64 - 1)


def _draw(rngs: Iterator[np.random.Generator], shape: tuple[int, ...],
          real: bool = False) -> np.ndarray:
    """A complex (or real) draw of the given shape from each generator in turn, each
    part uniform in [-1, 1), stacked, with one rng.random call per generator.

    -1 + 2u of each word u rounds as uniform(-1, 1) does, since 2u is exact.  Each
    complex n x n matrix takes its real words, then its imaginary words, as
    uniform(-1, 1, (n, n)) + 1j * uniform(-1, 1, (n, n)) does.
    """
    parts = () if real else (2,)
    u = np.array([rng.random(math.prod(shape + parts)) for rng in rngs])
    v = (u * 2.0 - 1.0).reshape((-1,) + shape[:-2] + parts + shape[-2:])
    if real:
        return v
    z = np.empty(v.shape[:-3] + v.shape[-2:], dtype=complex)
    z.real = v[..., 0, :, :]
    z.imag = v[..., 1, :, :]
    return z


def _unitary(z: np.ndarray) -> np.ndarray:
    """Special unitary matrices from the QR factors of z (one matrix or a stack),
    with the phases of the factorization fixed."""
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    q = q * ph[..., None, :]  # make the factorization phase-canonical
    q[..., :, 0] /= np.linalg.det(q)[..., None]
    return q


def sign_fixed_q(m: np.ndarray) -> np.ndarray:
    """The orthogonal QR factor of m (one matrix or a stack), with the signs of the
    factorization fixed so that R has a positive diagonal."""
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def normal_exp(z: np.ndarray, skew: bool, steps=(1.0,)) -> np.ndarray:
    """exp(t z) of each matrix of a stack z that is Hermitian, or skew-Hermitian if skew,
    stacked over the steps t, from one eigh z = V diag(w) V* (of -iz if skew).

    Taken as I + V diag(e^{t w} - 1) V*, so that its rounding is relative to t z and
    not to I: a central difference over a small step t divides it by t^2.
    """
    w, v = np.linalg.eigh(-1j * z if skew else z)
    w = 1j * w if skew else w
    vh = np.swapaxes(v, -1, -2).conj()
    eye = np.eye(z.shape[-1])
    return np.stack([eye + (v * np.expm1(t * w)[..., None, :]) @ vh for t in steps])


def _quaternion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[A, B], [-conj B, conj A]] of each pair of blocks of two stacks."""
    return np.block([[a, b], [-b.conj(), a.conj()]])


def _roots(values: np.ndarray, keep: np.ndarray, d: int) -> np.ndarray:
    """values ** (1/d) where keep, else 1, shaped to divide a stack of matrices.

    Taken point by point: a power of a stacked array rounds differently.
    """
    return np.array([v ** (1.0 / d) if k else 1.0 for v, k in zip(values, keep)])[:, None, None]


def _candidates(space: SpaceSpec, count: int,
                rngs: Iterator[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """One candidate point from each of the count generators, stacked, and which
    candidates were drawn.  Each generator is used up before the next is taken.

    Each generator makes one _draw: slr-so and slc-su scale it, and sus-sp the
    quaternionic matrix Q(alpha, beta) of two 0.35 * draws, to determinant 1; a
    draw with determinant below 1e-6 in modulus is not drawn.  Stacked
    determinants and factorizations give each matrix the numbers it gets alone.
    The conditioning cap is left to _conditioned, which runs after membership.
    """
    d = space.ambient_dim
    drawn = np.ones(count, dtype=bool)
    if space.id == "slr-so":
        m = _draw(rngs, (d, d), real=True)
        dt = np.linalg.det(m)
        drawn = ~(np.abs(dt) < 1e-6)
        x = m / _roots(np.abs(dt), drawn, d)
        x[np.linalg.det(x) < 0, :, 0] *= -1
        return x.astype(complex), drawn
    if space.id in ("su-so", "su-sp"):
        return _unitary(_draw(rngs, (d, d))), drawn
    if space.id == "sus-sp":  # a quaternionic determinant is real and >= 0
        z = _quaternion(*np.moveaxis(_draw(rngs, (2, space.n, space.n)) * 0.35, 1, 0))
        dt = np.linalg.det(z).real
    elif space.id == "slc-su":
        z = _draw(rngs, (d, d))
        dt = np.linalg.det(z)
    else:
        raise AssertionError(space.id)
    drawn = ~(np.hypot(dt.real, dt.imag) < 1e-6)  # abs() of each determinant
    return z / _roots(dt, drawn, d), drawn


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


def _conditioned(x: np.ndarray) -> np.ndarray:
    """~(np.linalg.cond(x) > COND_CAP) of each matrix of a stack, with the SVD taken
    only where the bound cond(x) <= ||x||_F^d / |det x| leaves it open.

    The bound holds since the singular values multiply to |det x| and the largest is
    at most ||x||_F.  A matrix is accepted outright when it is at most COND_CAP / 2:
    the halving absorbs the rounding of both the bound and the SVD.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = np.linalg.norm(x, axis=(-2, -1)) ** x.shape[-1] / np.abs(np.linalg.det(x))
    ok = bound <= COND_CAP / 2
    if not ok.all():
        ok[~ok] = ~(np.linalg.cond(x[~ok]) > COND_CAP)
    return ok


# accepted group points by (space id, n, seed masked to 64 bits, index), oldest first
_POINTS: OrderedDict[tuple[str, int, int, int], np.ndarray] = OrderedDict()
_POINTS_MAXSIZE = 2**13


def sample_group_point(space: SpaceSpec, rng_seed: int, index: int | np.ndarray = 0) -> np.ndarray:
    """A random ambient-group point passing membership within 1e-10; for an array of
    indices, a stack of points of shape index.shape + (d, d).

    Attempt a at an index draws from the generator of (seed, index, a), so a point
    is the same whether it is sampled alone or in a stack.  A stack draws the
    indices still without a point together, with their generators derived
    together, and tests them together.  Accepted points are memoized (_POINTS), so
    only indices never drawn before are drawn; the stack returned is a new array.
    """
    def draw(indices, attempt):
        x, ok = _candidates(space, indices.size, generators(rng_seed, indices, attempt))
        ok &= space.membership(x, MEMBERSHIP_TOL)
        ok[ok] = _conditioned(x[ok])
        return x, ok

    index = np.asarray(index)
    seed, d = int(rng_seed) & (2**64 - 1), space.ambient_dim
    keys = [(space.id, space.n, seed, i) for i in index.ravel().tolist()]
    points = [_POINTS.get(key) for key in keys]
    missing = [j for j, p in enumerate(points) if p is None]
    if missing:
        drawn = first_accepted(index.ravel()[missing], d, draw, _MAX_ATTEMPTS, RuntimeError(
            f"sampler failed to produce a {space.id} point after {_MAX_ATTEMPTS} attempts"))
        for j, x in zip(missing, drawn):
            points[j] = _POINTS[keys[j]] = x.copy()
        while len(_POINTS) > _POINTS_MAXSIZE:
            _POINTS.popitem(last=False)
    return np.array(points, dtype=complex).reshape(index.shape + (d, d))


def _stabilizer_candidates(space: SpaceSpec, rngs: Iterator[np.random.Generator]) -> np.ndarray:
    """One candidate point of K from each generator, stacked."""
    d = space.ambient_dim
    if space.stabilizer == "so":
        q = sign_fixed_q(_draw(rngs, (d, d), real=True))
        q[np.linalg.det(q) < 0, :, 0] *= -1
        return q.astype(complex)
    if space.stabilizer == "su":
        return _unitary(_draw(rngs, (d, d)))
    # sp(n): exp(Q(alpha, beta)), alpha anti-Hermitian and beta symmetric, so Q is skew-Hermitian
    g, h = np.moveaxis(_draw(rngs, (2, space.n, space.n)) * 0.35, 1, 0)
    alpha = (g - np.swapaxes(g, -1, -2).conj()) / 2.0
    beta = (h + np.swapaxes(h, -1, -2)) / 2.0
    return normal_exp(_quaternion(alpha, beta), skew=True)[0]


def sample_stabilizer_point(space: SpaceSpec, rng_seed: int,
                            index: int | np.ndarray = 0) -> np.ndarray:
    """A random point of the stabilizer K within 1e-10; for an array of indices, a
    stack of points of shape index.shape + (d, d).

    Attempt a at an index draws from the generator of (seed, index, a, 1), and the
    indices still without a point are drawn and tested together, as in
    sample_group_point.
    """
    def draw(indices, attempt):
        k = _stabilizer_candidates(space, generators(rng_seed, indices, attempt, 1))
        return k, space.stabilizer_membership(k, MEMBERSHIP_TOL)

    return first_accepted(index, space.ambient_dim, draw, _MAX_ATTEMPTS,
                          RuntimeError(f"stabilizer sampler failed for {space.id}"))


# ---------------------------------------------------------------------------
# exact rational sampling (numerators in [-9, 9], denominators in [1, 9]); no suite calls
# it, but perfbench/tracing.py wraps the two draws by name as globals of harmorph.verify
# ---------------------------------------------------------------------------

def _exact_draws(rngs: Iterator[np.random.Generator], parts: int,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """The four vectors x, y, alpha, beta of each trial of a block, each of n entries
    with parts 1 (real) or 2 (real, then imaginary), from one rng.integers call per
    generator: a drawn q is the fraction (q // 9 - 9) / (q % 9 + 1), so numerators in
    [-9, 9] and denominators in [1, 9] are independent and uniform.  Returns (L, L v):
    L of shape (trials, 4), the lcm of each vector's drawn denominators, and the
    Gaussian-integer multiples L v of shape (trials, 4, parts, n), both int64.  The flat
    size 4 parts n gives the words of the shape (4, parts, n), in the same order."""
    q = np.array([rng.integers(0, 171, 4 * parts * n) for rng in rngs], dtype=np.int64)
    num, den = np.divmod(q.reshape(-1, 4, parts, n), 9)
    den += 1
    scale = np.lcm.reduce(den.reshape(len(q), 4, -1), axis=2)
    return scale, (num - 9) * (scale[..., None, None] // den)


def rational_vector(rngs: Iterator[np.random.Generator], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The four real vectors of each generator's exact trial, from rng.integers(0, 171, 4 n)."""
    return _exact_draws(rngs, 1, n)


def complex_rational_vector(rngs: Iterator[np.random.Generator],
                            n: int) -> tuple[np.ndarray, np.ndarray]:
    """The four complex vectors of each generator's exact trial, from rng.integers(0, 171, 8 n)."""
    return _exact_draws(rngs, 2, n)
