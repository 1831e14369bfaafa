"""Seeded samplers: determinism, membership, conditioning."""

import dataclasses
import math
from collections import Counter, OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import harmorph.sampling
import harmorph.verify
from harmorph.jets import Entry
from harmorph.morphisms import (Morphism, control_morphism, dual_quat_family,
                                dual_real_morphism, quat_family, real_morphism,
                                typeIV_bigcell_morphism)
from harmorph.sampling import (COND_CAP, MEMBERSHIP_TOL, _POINTS, _candidates, _conditioned,
                               _draw, _philox_key, complex_rational_vector, fresh_seed,
                               rational_vector, sample_group_point, sample_stabilizer_point,
                               uniforms)
from harmorph.spaces import SPACE_IDS, make_space
from harmorph.verify import SamplingError, sample_in_domain
from oracles import exact_trial_fractions, rng_from_seed


def test_rng_is_deterministic_and_spawn_separated():
    a = rng_from_seed(123, 0).uniform(size=4)
    b = rng_from_seed(123, 0).uniform(size=4)
    c = rng_from_seed(123, 1).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fresh_seed_fits_64_bits():
    s = fresh_seed()
    assert 0 <= s < 2**64


def _ref_words(seed, shape, *spawn):
    """The words rng.random(shape) draws from the generator of one key, built alone."""
    return np.asarray(rng_from_seed(seed, *(int(s) for s in spawn)).random(shape))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


KEY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
KEY_INDICES = np.array([0, 1, 999, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1])


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_stacked_keys_equal_seed_sequence(seed):
    """Each key of a stack draws the words rng_from_seed draws for the key alone, with
    one- and two-word spawn entries mixed in one stack."""
    for attempt in (0, 1, 7, 999, 2**32, 2**40):
        words = uniforms(seed, (3,), KEY_INDICES, attempt)
        assert _same_bits(words, [_ref_words(seed, (3,), i, attempt) for i in KEY_INDICES])
    # each attempt of each index, as a broadcast (index, attempt) grid in C order
    attempts = np.array([0, 3, 2**33])
    grid = uniforms(seed, (2,), KEY_INDICES[:, None], attempts)
    assert _same_bits(grid, [[_ref_words(seed, (2,), i, a) for a in attempts]
                             for i in KEY_INDICES])
    # other key lengths: the seed alone, one entry, three entries
    for spawn in ((), (2**64 - 1,), (5, 2**35, 1)):
        assert _same_bits(uniforms(seed, (2,), *spawn), _ref_words(seed, (2,), *spawn))


def test_stacked_keys_reject_negative_entries():
    with pytest.raises(ValueError):
        uniforms(7, (), np.array([3, -1]))


_SPAWN = st.one_of(st.integers(0, 2**63 - 1).map(np.array),
                   hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, max_side=3),
                              elements=st.integers(0, 2**63 - 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(-2**70, 2**70), _SPAWN, st.integers(0, 2**64 - 1),
       st.sampled_from([(), (1,), (5,), (2, 3, 3)]))
@example(0, np.array([0, 2**32]), 3, ())
@example(2**32 - 1, np.array(2**32 + 1), 0, (2, 3, 3))
@example(2**63, np.array([[0], [2**40]]), np.array([0, 2**33, 5]), (2, 3, 3))
@example(2**64 - 1, np.array([0, 2**32]), 3, (2, 3, 3))
@example(-1, np.array([0, 2**32]), 3, ())
@example(2**64, np.array([0, 2**32]), 3, (2, 3, 3))
@example(2**70, np.array([0, 2**32]), 3, ())
def test_stacked_keys_property(seed, index, attempt, shape):
    """uniforms stacks, over the broadcast (index, attempt) keys in C order, the words
    rng.random(shape) draws from each key's generator; the seed is masked to 64 bits,
    as in rng_from_seed."""
    words = uniforms(seed, shape, index, attempt)
    keys = np.broadcast_arrays(index, np.asarray(attempt))
    assert words.shape == keys[0].shape + shape
    for at in np.ndindex(keys[0].shape):
        want = _ref_words(seed & (2**64 - 1), shape, *(k[at] for k in keys))
        assert _same_bits(words[at], want)


def test_memoized_keys_give_the_same_generators():
    """A key taken from the memo gives the words its first derivation gave, and the memo
    is bounded."""
    def words():
        return uniforms(11, (4,), np.arange(6)[:, None], np.array([0, 2**33]))

    _philox_key.cache_clear()
    cold = words()
    assert _philox_key.cache_info().misses == 12
    warm = words()
    assert _philox_key.cache_info().hits == 12
    assert _same_bits(cold, warm)
    maxsize = _philox_key.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 2**20


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_stacked_generators_draw_as_rng_from_seed(seed):
    """The suites' draws from a stack of words round as the rng.uniform calls of each
    key's own generator: an invariance scale 0.5 + 1.5 u as uniform(0.5, 2.0), and a
    mixing matrix 2 u - 1 as uniform(-1, 1, (d, d)), for every basis size d used."""
    indices = KEY_INDICES[[0, 2, 3, 4, 6]]
    scales = 0.5 + 1.5 * uniforms(seed, (), indices, 7)
    assert _same_bits(scales, [rng_from_seed(seed, int(i), 7).uniform(0.5, 2.0)
                               for i in indices])
    for d in (0, 1, 2, 5, 9, 14):
        mixing = uniforms(seed, (d, d), indices, 11) * 2.0 - 1.0
        assert _same_bits(mixing, [rng_from_seed(seed, int(i), 11).uniform(-1.0, 1.0, (d, d))
                                   for i in indices])


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_group_points_members_and_conditioned(sid):
    space = make_space(sid, 2)
    for i in range(5):
        x = sample_group_point(space, 99, index=i)
        assert space.membership(x, 1e-10)
        assert np.linalg.cond(x) <= COND_CAP


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_group_points_reproducible(sid):
    space = make_space(sid, 3)
    x = sample_group_point(space, 7, index=4)
    _POINTS.clear()  # so that y is drawn again, not served from the memo
    y = sample_group_point(space, 7, index=4)
    assert np.array_equal(x, y)
    z = sample_group_point(space, 8, index=4)
    assert not np.array_equal(x, z)


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_stabilizer_points_members(sid):
    space = make_space(sid, 2)
    for i in range(3):
        k = sample_stabilizer_point(space, 5, index=i)
        assert space.stabilizer_membership(k, 1e-10)


@pytest.mark.parametrize("seed", (0, 7, 2**64 - 1))
def test_row_draw_equals_successive_uniform_calls(seed):
    """Each key's words draw what successive rng.uniform(-1, 1, shape) calls draw, byte
    for byte: a real draw as one call, a complex n x n matrix as its real, then its
    imaginary call; odd and even word counts."""
    indices = np.array([0, 3, 2**40])
    for shape, real in [((1, 1), True), ((3, 3), True), ((2, 2), True), ((1, 1), False),
                        ((3, 3), False), ((2, 3, 3), False), ((2, 1, 1), False)]:
        words = shape if real else shape[:-2] + (2,) + shape[-2:]
        stack = _draw(uniforms(seed, words, indices, 2), real)
        assert stack.shape == (len(indices),) + shape
        for got, i in zip(stack, indices):
            rng = rng_from_seed(seed, int(i), 2)

            def block():
                re = rng.uniform(-1.0, 1.0, shape[-2:])
                return re if real else re + 1j * rng.uniform(-1.0, 1.0, shape[-2:])
            want = np.array([block() for _ in range(math.prod(shape[:-2]))]).reshape(shape)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (shape, real)


def _with_condition(rng, d, sigma, dtype):
    """U diag(sigma) V of random orthogonal (or unitary) U and V."""
    def q(shape):
        m = rng.standard_normal(shape)
        if dtype is complex:
            m = m + 1j * rng.standard_normal(shape)
        return np.linalg.qr(m)[0]
    return (q((d, d)) * np.asarray(sigma)) @ q((d, d))


CONDITIONS = (1.0, 1e3, 4.9e5, 5.1e5, 9.99e5, 1e6 * (1 - 1e-9), 1e6, 1e6 * (1 + 1e-9),
              2e6, 1e8)


@pytest.mark.parametrize("dtype", [float, complex])
def test_conditioned_equals_the_condition_number_test(dtype):
    """The cap decision, bound first and SVD only where the bound leaves it open, is
    ~(cond(x) > COND_CAP) for every matrix: spread and clustered singular values,
    scaled, next to the cap on both sides, and singular.  The sampler's |det| filter
    removes badly conditioned draws first, so only this test reaches a rejection."""
    rng = np.random.default_rng(18)
    open_below_cap = 0
    for d in range(2, 7):
        spectra = [s for c in CONDITIONS for s in (np.geomspace(1.0, 1.0 / c, d),
                                                   [1.0] * (d - 1) + [1.0 / c],
                                                   [c] + [1.0] * (d - 1))]
        x = [_with_condition(rng, d, s, dtype) * 10.0 ** rng.integers(-3, 4) for s in spectra]
        singular = [np.zeros((d, d), dtype), _with_condition(rng, d, [1.0] * (d - 1) + [0.0], dtype)]
        stack = np.array(x + singular)
        want = ~(np.linalg.cond(stack) > COND_CAP)
        assert _conditioned(stack).tolist() == want.tolist(), d
        assert want.any() and not want.all() and not want[-2:].any()
        bound = np.linalg.norm(x, axis=(-2, -1)) ** d / np.abs(np.linalg.det(x))
        open_below_cap += np.sum((bound > COND_CAP / 2) & want[:-2])
    assert open_below_cap > 0
    assert _conditioned(np.empty((0, 3, 3), dtype=complex)).shape == (0,)


def test_determinant_one_where_required():
    for sid in ("slr-so", "su-so", "su-sp", "slc-su"):
        space = make_space(sid, 3)
        x = sample_group_point(space, 11)
        assert abs(np.linalg.det(x) - 1) < 1e-9


def _rngs(seed, trials):
    """The generators of the keys (seed, t) of the trials t."""
    return [rng_from_seed(seed, t) for t in range(trials)]


def test_rational_vector_ranges():
    scales, v = rational_vector(_rngs(3, 20), 50)
    assert scales.dtype == v.dtype == np.int64
    assert scales.shape == (20, 4) and v.shape == (20, 4, 1, 50)
    for scale, (re,) in zip(scales.ravel().tolist(), v.reshape(80, 1, 50).tolist()):
        assert 2520 % scale == 0  # 2520 = lcm(1, ..., 9)
        assert all(abs(Fraction(q, scale)) <= 9 and Fraction(q, scale).denominator <= 9
                   for q in re)


def test_complex_rational_vector_exact():
    scales, v = complex_rational_vector(_rngs(4, 20), 10)
    assert scales.dtype == v.dtype == np.int64
    assert scales.shape == (20, 4) and v.shape == (20, 4, 2, 10)
    for scale, parts in zip(scales.ravel().tolist(), v.reshape(80, 2, 10).tolist()):
        assert 2520 % scale == 0
        assert all(abs(Fraction(q, scale)) <= 9 for part in parts for q in part)


def _assert_exact(draws, want):
    """Each trial's (L, L v) gives its wanted vectors value for value, with L the lcm of
    each vector's drawn denominators; want holds (vectors, denominators) per trial."""
    scales, v = draws
    assert scales.dtype == v.dtype == np.int64 and scales.shape == v.shape[:2] == (len(want), 4)
    for trial_scales, trial_v, (vectors, dens) in zip(scales.tolist(), v.tolist(), want):
        assert trial_scales == [math.lcm(*d) for d in dens]
        for scale, parts, w in zip(trial_scales, trial_v, vectors):
            values = [[Fraction(q, scale) for q in part] for part in parts]
            assert (list(zip(*values)) if len(parts) == 2 else values[0]) == w


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_exact_draws_equal_the_fractions_of_the_same_integers(seed):
    """A block's exact trials are the decodings of one rng.integers(0, 171, ...) call on
    each trial's generator, which they leave where that call leaves it."""
    trials = np.arange(100)
    for n in range(1, 7):
        for draw, complex_parts in ((rational_vector, False), (complex_rational_vector, True)):
            want = [rng_from_seed(seed, t) for t in trials]
            rngs = [rng_from_seed(seed, t) for t in trials]
            draws = draw(iter(rngs), n)
            _assert_exact(draws, [exact_trial_fractions(rng, n, complex_parts) for rng in want])
            assert all(a.integers(2**62) == b.integers(2**62) for a, b in zip(rngs, want))


def _chi_square_quantile(counts: Counter, probabilities: dict) -> tuple[float, float]:
    """Pearson's chi-square of the counts over the cells of the probabilities, and the
    0.999 quantile of its distribution under them."""
    from scipy.stats import chi2

    total = counts.total()
    stat = sum((counts[c] - total * p) ** 2 / (total * p) for c, p in probabilities.items())
    return stat, chi2.ppf(0.999, len(probabilities) - 1)


_PAIRS = [(a, b) for a in range(-9, 10) for b in range(1, 10)]


def test_exact_draws_are_uniform_over_numerator_denominator_pairs():
    """A real vector of one entry has L = b and L v = a for the drawn a / b, so 5,000 trials
    show 20,000 drawn pairs: each of the 171 must appear, and the counts must fit the
    uniform distribution.  A degenerate draw (all zeros, one denominator) fails here."""
    scales, v = rational_vector(_rngs(20240823, 5000), 1)
    counts = Counter(zip(v.ravel().tolist(), scales.ravel().tolist()))
    assert counts.total() == 20000 and set(counts) == set(_PAIRS)
    stat, quantile = _chi_square_quantile(counts, {c: 1 / 171 for c in _PAIRS})
    assert stat < quantile


def test_complex_exact_draws_have_the_distribution_of_the_pairs():
    """The real and the imaginary parts of 20,000 complex entries each take every value
    a / b of the 171 pairs, as often as the pairs give it."""
    values = {q: k / 171 for q, k in Counter(Fraction(*pair) for pair in _PAIRS).items()}
    scales, v = complex_rational_vector(_rngs(20240823, 5000), 1)
    for part in (0, 1):
        counts = Counter(Fraction(q, scale) for q, scale in
                         zip(v[:, :, part, 0].ravel().tolist(), scales.ravel().tolist()))
        assert counts.total() == 20000 and set(counts) == set(values)
        stat, quantile = _chi_square_quantile(counts, values)
        assert stat < quantile


# ---------------------------------------------------------------------------
# the stacked samplers against the point-by-point loops they replace
# ---------------------------------------------------------------------------

def _reference_membership(space, x, tol):
    """Group membership of one matrix, as tested point by point."""
    d = space.ambient_dim
    if x.shape != (d, d):
        return False
    if space.id == "slr-so":
        if np.max(np.abs(x.imag)) > tol:
            return False
        return np.linalg.det(x.real) > 0
    if space.id == "sus-sp":
        J = space.J
        scale = max(1.0, float(np.linalg.norm(x)))
        if np.linalg.norm(x @ J - J @ x.conj()) > tol * scale:
            return False
        dx = np.linalg.det(x)
        return dx.real > 0 and abs(dx.imag) <= tol * max(1.0, abs(dx))
    if space.id in ("su-so", "su-sp"):
        if np.linalg.norm(x @ x.conj().T - np.eye(d)) > tol:
            return False
        return abs(np.linalg.det(x) - 1) <= tol
    return abs(np.linalg.det(x) - 1) <= tol


def _reference_uniform_complex(rng, shape):
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def _reference_unitary(rng, d):
    z = _reference_uniform_complex(rng, (d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    q = q * ph
    q[:, 0] /= np.linalg.det(q)
    return q


def _reference_exp(q):
    """exp(q) of one skew-Hermitian matrix from the eigh of -iq, as I + V diag(e^{iw} - 1) V*,
    as the sampler takes it."""
    w, v = np.linalg.eigh(-1j * q)
    return np.eye(len(q)) + (v * np.expm1(1j * w)) @ v.conj().T


def _reference_sample_once(space, rng):
    d = space.ambient_dim
    if space.id == "slr-so":
        m = rng.uniform(-1.0, 1.0, (d, d))
        dt = np.linalg.det(m)
        if abs(dt) < 1e-6:
            return None
        x = m / abs(dt) ** (1.0 / d)
        if np.linalg.det(x) < 0:
            x[:, 0] = -x[:, 0]
        return x.astype(complex)
    if space.id == "sus-sp":
        n = space.n
        alpha = _reference_uniform_complex(rng, (n, n)) * 0.35
        beta = _reference_uniform_complex(rng, (n, n)) * 0.35
        q = np.block([[alpha, beta], [-beta.conj(), alpha.conj()]])
        dt = np.linalg.det(q).real
        if abs(dt) < 1e-6:
            return None
        return q / dt ** (1.0 / d)
    if space.id in ("su-so", "su-sp"):
        return _reference_unitary(rng, d)
    z = _reference_uniform_complex(rng, (d, d))
    dt = np.linalg.det(z)
    if abs(dt) < 1e-6:
        return None
    return z / dt ** (1.0 / d)


def _reference_group_point(space, seed, index):
    """sample_group_point for one index, drawn point by point."""
    for attempt in range(1000):
        x = _reference_sample_once(space, rng_from_seed(seed, index, attempt))
        if x is None or np.linalg.cond(x) > COND_CAP:
            continue
        if _reference_membership(space, x, 1e-10):
            return x
    raise RuntimeError(f"sampler failed to produce a {space.id} point after 1000 attempts")


def _reference_in_domain(family, seed, trial):
    """sample_in_domain for one trial, tried point by point."""
    for r in range(1000):
        x = _reference_group_point(family[0].space, seed, trial * 1000 + r)
        if all(m.domain(x) for m in family):
            return x
    labels = ", ".join(m.label for m in family)
    raise SamplingError(f"no in-domain point for {labels} after 1000 attempts")


STACK_SEEDS = (0, 7, 20240823)
SPACE_CASES = [("slr-so", 2), ("slr-so", 4), ("slr-so", 5), ("sus-sp", 1), ("sus-sp", 2),
               ("sus-sp", 3), ("su-so", 3), ("su-sp", 1), ("su-sp", 2), ("slc-su", 2),
               ("slc-su", 3)]


@pytest.mark.parametrize("sid,n", SPACE_CASES)
def test_stacked_group_points_equal_reference_loop(sid, n):
    space = make_space(sid, n)
    indices = np.array([0, 1, 2, 3, 17, 1000, 1001, 41999, 5, 5])
    for seed in STACK_SEEDS:
        stack = sample_group_point(space, seed, index=indices)
        assert stack.shape == (len(indices),) + (space.ambient_dim,) * 2
        for i, x in zip(indices, stack):
            assert np.array_equal(x, _reference_group_point(space, seed, int(i)))
        _POINTS.clear()  # so that index 17 is drawn alone, not served from the memo
        assert np.array_equal(sample_group_point(space, seed, index=17), stack[4])


def test_group_points_past_the_bound_equal_reference_loop():
    """slr-so n=5 indices whose attempt-0 candidates are members but have a bound above
    COND_CAP / 2, so the SVD decides them: each is accepted as the reference loop
    accepts it (cond 1.2e4, 3.6e3 and 7.8e5)."""
    space = make_space("slr-so", 5)
    indices = np.array([250, 969, 3035])
    x, drawn = _candidates(space, 0, indices, 0)
    assert (drawn & space.membership(x, MEMBERSHIP_TOL)).all()
    bound = np.linalg.norm(x, axis=(-2, -1)) ** 5 / np.abs(np.linalg.det(x))
    assert (bound > COND_CAP / 2).all() and (np.linalg.cond(x) <= COND_CAP).all()
    _POINTS.clear()  # so that the stack is drawn, not served from the memo
    stack = sample_group_point(space, 0, index=indices)
    assert np.array_equal(stack, x)
    for i, p in zip(indices, stack):
        assert np.array_equal(p, _reference_group_point(space, 0, int(i)))


# ---------------------------------------------------------------------------
# the memo of accepted group points
# ---------------------------------------------------------------------------

MEMO_CASES = [("slr-so", 2), ("sus-sp", 1), ("su-sp", 1), ("slc-su", 2)]
_COLD = {}


def _cold_point(space, seed, i):
    """The group point of (space, seed, i) drawn alone with an empty memo."""
    key = (space, seed & (2**64 - 1), i)
    if key not in _COLD:
        _POINTS.clear()
        _COLD[key] = sample_group_point(space, seed, i)
    return _COLD[key]


_INDEX_ARRAYS = hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                      max_side=5), elements=st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(MEMO_CASES), st.sampled_from([0, 7, -1, 2**64 + 7]),
                          _INDEX_ARRAYS), min_size=1, max_size=5))
@example([(("slr-so", 2), 7, np.array(i)) for i in (3, [3, 3, 1], [1, 3], [5, 4, 3, 2, 1, 0],
                                                   [0, 1, 2, 3], [[5, 9], [0, 5]])])
@example([(("slc-su", 2), 7, np.arange(4)), (("slr-so", 2), 7, np.arange(4)),
          (("slc-su", 2), 2**64 + 7, np.arange(6)), (("slc-su", 2), 0, np.arange(6))])
def test_memoized_points_equal_cold_draws(calls):
    """Successive calls on any spaces and seeds, each with a scalar or an array of
    indices with repeats, in any order and part served from the memo, give each index
    the bits it gets drawn alone with an empty memo."""
    calls = [(make_space(*case), seed, index) for case, seed, index in calls]
    want = {(space, seed, i): _cold_point(space, seed, i)
            for space, seed, index in calls for i in index.ravel().tolist()}
    _POINTS.clear()
    for space, seed, index in calls:
        d = space.ambient_dim
        got = sample_group_point(space, seed, index)
        assert got.shape == index.shape + (d, d)
        for i, x in zip(index.ravel().tolist(), got.reshape(-1, d, d)):
            assert np.array_equal(x, want[space, seed, i])


def test_mutating_a_returned_stack_leaves_the_memo_unchanged():
    space = make_space("sus-sp", 1)
    stack = sample_group_point(space, 5, np.arange(4))
    want = stack.copy()
    stack[...] = np.nan
    sample_group_point(space, 5, 2)[...] = 0.0
    assert np.array_equal(sample_group_point(space, 5, np.arange(4)), want)


def test_memo_keeps_the_newest_points_up_to_its_bound(monkeypatch):
    """Past the bound the points stored first go first; serving a point does not
    renew it."""
    space = make_space("slr-so", 2)
    want = [_cold_point(space, 7, i) for i in range(9)]
    monkeypatch.setattr(harmorph.sampling, "_POINTS", OrderedDict())
    monkeypatch.setattr(harmorph.sampling, "_POINTS_MAXSIZE", 5)
    for index, kept in [(np.arange(3), [0, 1, 2]), (np.arange(2, 9), [4, 5, 6, 7, 8]),
                        (1, [5, 6, 7, 8, 1]), (np.arange(9)[::-1], [1, 4, 3, 2, 0])]:
        got = sample_group_point(space, 7, index)
        assert [key[-1] for key in harmorph.sampling._POINTS] == kept
        for i, x in zip(np.ravel(index), got.reshape(-1, 2, 2)):
            assert np.array_equal(x, want[i])


def test_failing_draw_stores_nothing(monkeypatch):
    """A stack that raises stores none of its points, also those it accepted."""
    monkeypatch.setattr(harmorph.sampling, "_POINTS", OrderedDict())
    space = make_space("slc-su", 2)
    sample_group_point(space, 3, 0)
    monkeypatch.setattr(harmorph.sampling, "_MAX_ATTEMPTS", 1)
    # the last candidate of every draw is rejected
    monkeypatch.setattr(harmorph.sampling, "_conditioned", lambda x: np.arange(len(x)) < len(x) - 1)
    with pytest.raises(RuntimeError, match="after 1 attempts"):
        sample_group_point(space, 3, np.arange(4))
    assert list(harmorph.sampling._POINTS) == [("slc-su", 2, 3, 0)]


@pytest.mark.parametrize("sid,n", SPACE_CASES)
def test_stacked_membership_equals_reference(sid, n):
    """Stacked membership decides as the per-point test does, also next to the bounds."""
    space = make_space(sid, n)
    x = sample_group_point(space, 3, index=np.arange(6))
    d = space.ambient_dim
    e = np.zeros((d, d), dtype=complex)
    e[0, -1] = 1.0
    # points moved off the group by about a tolerance, on both sides of it
    near = [x * (1 + s) for s in (1e-10, 1e-8)] + [x + s * e for s in (2e-11, 1e-9, 1e-8j)]
    stack = np.concatenate([x] + near)
    for tol in (1e-10, 1e-9, 1e-8):
        got = space.membership(stack, tol)
        assert got.tolist() == [bool(_reference_membership(space, p, tol)) for p in stack]
        assert 0 < got.sum() < len(stack) or tol == 1e-8


@pytest.mark.parametrize("sid,n", [("su-so", 3), ("su-sp", 2), ("slc-su", 3), ("slc-su", 4)])
def test_stacked_membership_at_the_bounds_equals_reference(sid, n):
    """With the tolerance at a point's own residual, the last bit of that residual decides:
    the stacked test must round it as the per-point test does."""
    space = make_space(sid, n)
    x = sample_group_point(space, 9, index=np.arange(40))
    d = space.ambient_dim
    for p in x[:10]:
        bounds = [abs(np.linalg.det(p) - 1)]
        if sid != "slc-su":
            bounds.append(np.linalg.norm(p @ p.conj().T - np.eye(d)))
        for tol in bounds:
            assert space.membership(x, tol).tolist() == [
                bool(_reference_membership(space, q, tol)) for q in x]


def _rejecting_families():
    """The families of each space, and domains that reject a good share of the group
    points: the control's window, and the su-so and su-sp domains (the stated condition
    and the branch-cut guard) with a margin wide enough to reject."""
    return [[control_morphism(2)], [control_morphism(3)], [dual_real_morphism(2, 1, 2)],
            [dual_real_morphism(2, 1, 2, margin=0.3)], [dual_real_morphism(3, 2, 3, margin=0.3)],
            dual_quat_family(1, 1), dual_quat_family(2, 1, margin=0.3),
            [real_morphism(3, 1, 2)], quat_family(2, 2), [typeIV_bigcell_morphism(3, 3, 1)]]


@pytest.mark.parametrize("family", _rejecting_families(), ids=lambda f: f[0].label)
def test_stacked_domain_points_equal_reference_loop(family):
    trials = np.arange(12)
    for seed in STACK_SEEDS:
        stack = sample_in_domain(family, seed, trials)
        for t in trials:
            assert np.array_equal(stack[t], _reference_in_domain(family, seed, int(t)))


def test_shared_domain_is_called_once_per_drawn_point(monkeypatch):
    """The members of dual_quat_family share one predicate: each point drawn is tested
    by one call of it, not one per member."""
    calls, drawn = [], []
    members = dual_quat_family(2, 1, margin=0.3)

    def shared(x):
        calls.append(x)
        return members[0].domain(x)

    def counted(*args, **kwargs):
        drawn.append(harmorph.sampling.sample_group_point(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(harmorph.verify, "sample_group_point", counted)
    sample_in_domain([dataclasses.replace(m, domain=shared) for m in members], 7, np.arange(12))
    assert len(calls) == sum(map(len, drawn)) > 12


@pytest.mark.parametrize("sid,n", [(sid, 2) for sid in SPACE_IDS])
def test_stacked_domain_sampling_error_equals_reference(sid, n):
    space = make_space(sid, n)
    nowhere = Morphism(Entry(1, 1), space, f"{sid}:nowhere", lambda x: False, ())
    with pytest.raises(SamplingError) as ref:
        _reference_in_domain([nowhere], 5, 0)
    with pytest.raises(SamplingError) as got:
        sample_in_domain(nowhere, 5, np.arange(2))
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# the stacked stabilizer sampler against the point-by-point loop it replaces
# ---------------------------------------------------------------------------

def _reference_orthogonal(rng, d):
    m = rng.uniform(-1.0, 1.0, (d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _reference_stabilizer_membership(space, k, tol):
    """Membership in K of one matrix, as tested point by point; a matrix with a
    non-finite entry is not a member."""
    d = space.ambient_dim
    if k.shape != (d, d) or not np.isfinite(k).all():
        return False
    if np.linalg.norm(k @ k.conj().T - np.eye(d)) > tol:
        return False
    if abs(np.linalg.det(k) - 1) > tol:
        return False
    if space.stabilizer == "so":
        return np.max(np.abs(k.imag)) <= tol
    if space.stabilizer == "sp":
        J = space.J
        return np.linalg.norm(k @ J - J @ k.conj()) <= tol
    return True


def _reference_stabilizer_point(space, seed, index):
    """sample_stabilizer_point for one index, drawn point by point."""
    d = space.ambient_dim
    for attempt in range(1000):
        rng = rng_from_seed(seed, index, attempt, 1)
        if space.stabilizer == "so":
            k = _reference_orthogonal(rng, d).astype(complex)
        elif space.stabilizer == "su":
            k = _reference_unitary(rng, d)
        else:
            n = space.n
            g = _reference_uniform_complex(rng, (n, n)) * 0.35
            alpha = (g - g.conj().T) / 2.0
            h = _reference_uniform_complex(rng, (n, n)) * 0.35
            beta = (h + h.T) / 2.0
            k = _reference_exp(np.block([[alpha, beta], [-beta.conj(), alpha.conj()]]))
        if _reference_stabilizer_membership(space, k, 1e-10):
            return k
    raise RuntimeError(f"stabilizer sampler failed for {space.id}")


# one space of each stabilizer kind: so, su and sp
STABILIZER_CASES = [(sid, n) for sid in ("slr-so", "slc-su", "sus-sp") for n in range(1, 5)]


@pytest.mark.parametrize("sid,n", STABILIZER_CASES)
def test_stacked_stabilizer_points_equal_reference_loop(sid, n):
    space = make_space(sid, n)
    indices = np.array([0, 1, 2, 3, 17, 1000, 41999, 5, 5])
    for seed in (0, 7, 2**63 + 5):
        stack = sample_stabilizer_point(space, seed, indices)
        assert stack.shape == (len(indices),) + (space.ambient_dim,) * 2
        for i, k in zip(indices, stack):
            assert np.array_equal(k, _reference_stabilizer_point(space, seed, int(i)))
        assert np.array_equal(sample_stabilizer_point(space, seed, 17), stack[4])
        assert np.array_equal(sample_stabilizer_point(space, seed, indices.reshape(3, 3)),
                              stack.reshape((3, 3) + stack.shape[1:]))


def _phases(d, theta):
    """diag(e^{i theta}, e^{-i theta}, 1, ...): special unitary, not real, and for d >= 4
    not commuting with J."""
    p = np.ones(d, dtype=complex)
    p[:2] = np.exp(1j * theta), np.exp(-1j * theta)
    return np.diag(p)


@pytest.mark.parametrize("sid,n", STABILIZER_CASES)
def test_stacked_stabilizer_membership_equals_reference(sid, n):
    """Stacked K membership decides as the per-matrix test does, on members and on
    points moved off K by about a tolerance: scaled, and (for d >= 2) multiplied by
    phases, which gives so an imaginary part and breaks the J condition of sp(n >= 2)."""
    space = make_space(sid, n)
    k = sample_stabilizer_point(space, 3, np.arange(6))
    d = space.ambient_dim
    near = [k * (1 + s) for s in (1e-12, 1e-8)]
    if d >= 2:
        near += [k @ _phases(d, theta) for theta in (1e-12, 1e-8)]
    stack = np.concatenate([k] + near)
    bounds = [np.linalg.norm(p @ p.conj().T - np.eye(d)) for p in stack[6:9]]
    for tol in [1e-10, 1e-9, 1e-7] + bounds:
        got = space.stabilizer_membership(stack, tol)
        assert got.tolist() == [bool(_reference_stabilizer_membership(space, p, tol))
                                for p in stack]
        assert got.tolist() == [bool(space.stabilizer_membership(p, tol)) for p in stack]
    assert space.stabilizer_membership(k, 1e-10).all()
    assert not space.stabilizer_membership(stack, 1e-10).all()
    if sid != "slc-su" and n >= 2:
        # multiplied by phases: special unitary, yet outside SO(n) and Sp(n)
        assert not space.stabilizer_membership(k @ _phases(d, 1e-8), 1e-10).any()


@pytest.mark.parametrize("sid,n", [("sus-sp", 2), ("su-so", 3), ("su-sp", 2), ("slr-so", 3),
                                   ("slc-su", 2)])
def test_membership_of_non_finite_and_huge_matrices_equals_reference(sid, n):
    """A stacked norm that is NaN, infinite or overflows is taken again matrix by matrix,
    so group and stabilizer membership still decide as the per-matrix test does, for
    every kind of stabilizer."""
    space = make_space(sid, n)
    x = sample_group_point(space, 5, index=np.arange(4))
    k = sample_stabilizer_point(space, 5, np.arange(4))
    bad = []
    for value in (np.nan, np.inf, 1e200, 1e-200):
        for p in (x[0], k[0]):
            q = p.copy()
            q[0, -1] = value
            bad.append(q)
    stack = np.concatenate([x, k, np.stack(bad)])
    with np.errstate(all="ignore"):
        for tol in (1e-10, 1e-8):
            assert space.membership(stack, tol).tolist() == [
                bool(_reference_membership(space, p, tol)) for p in stack]
            assert space.stabilizer_membership(stack, tol).tolist() == [
                bool(_reference_stabilizer_membership(space, p, tol)) for p in stack]


@pytest.mark.parametrize("sid", ["slr-so", "slc-su", "sus-sp"])
def test_stabilizer_membership_of_a_wrong_shape_is_false(sid):
    space = make_space(sid, 2)
    d = space.ambient_dim
    assert not space.stabilizer_membership(np.eye(d + 1, dtype=complex))
    assert not space.stabilizer_membership(np.eye(d, dtype=complex)[:, :-1])
    assert space.stabilizer_membership(np.eye(d + 1, dtype=complex)[None]).tolist() == [False]
