"""2-jet propagation: chain rules, base-map jets, oracle agreement."""

import math
import time

import numpy as np
import pytest

from harmorph.jets import (BRANCH_CUT_EPS, Add, BranchCutError, Const, Div, Entry,
                           EvaluationError, Jet2, JetContext, Mul, ScaleByI, Sqrt, Sub,
                           _companion, _direction_sum, _eval, _first_errors, _gram,
                           _stock_products, _values, base_map_value, eval_jet, eval_jet_cached,
                           fd_jet, jet_sums, kappa_sum, normalized_residual, raise_first_error)
from harmorph.morphisms import (dual_quat_family, dual_real_morphism, holomorphic_compose,
                                quat_family, real_morphism, typeIV_bigcell_morphism)
from harmorph.sampling import normal_exp, sample_group_point
from harmorph.spaces import (HALF, SPACE_IDS, dense, make_space, p_basis,
                             stabilizer_algebra, unit)
from harmorph.verify import sample_in_domain
from oracles import eval_value, random_rotation, rng_from_seed


def _record():
    """The error record of one point."""
    return np.full((), None, dtype=object)


def test_jet_arithmetic_against_polynomials():
    # f(s) = (2+s)^2 at s=0 -> (4, 4, 2); g(s) = 1/(1+s) -> (1, -1, 2)
    f = Jet2(2.0, 1.0, 0.0) * Jet2(2.0, 1.0, 0.0)
    assert (f.v, f.d1, f.d2) == (4.0, 4.0, 2.0)
    errors = _record()
    g = Jet2(1.0, 0.0, 0.0).divide(Jet2(1.0, 1.0, 0.0), errors)
    assert (g.v, g.d1, g.d2) == (1.0, -1.0, 2.0)
    assert errors.item() is None


def test_jet_sqrt_chain_rule():
    # w(s) = 1 + s, sqrt(w) at s=0 -> (1, 1/2, -1/4)
    j = Jet2(1.0, 1.0, 0.0).sqrt(_record())
    assert abs(j.v - 1.0) < 1e-15
    assert abs(j.d1 - 0.5) < 1e-15
    assert abs(j.d2 + 0.25) < 1e-15


def test_jet_sqrt_branch_cut_raises():
    """The square root records the cut, and raise_first_error raises it."""
    for w in (-1.0 + 0.0j, 0.0):
        errors = _record()
        Jet2(w, 1.0, 0.0).sqrt(errors)
        with pytest.raises(BranchCutError):
            raise_first_error(errors)


@pytest.mark.parametrize("factor,cut", [(0.5, True), (4.0, False)])
def test_jet_sqrt_branch_cut_width_is_branch_cut_eps(factor, cut):
    """The cut is the BRANCH_CUT_EPS-wide wedge about the negative real axis: at
    w = -1 + 0.5 eps i the root records a BranchCutError, at -1 + 4 eps i it does not."""
    errors = _record()
    Jet2(complex(-1.0, factor * BRANCH_CUT_EPS), 1.0, 0.0).sqrt(errors)
    assert isinstance(errors.item(), BranchCutError) if cut else errors.item() is None


def test_jet_division_by_zero_raises():
    errors = _record()
    Jet2(1.0, 0.0, 0.0).divide(Jet2(0.0, 1.0, 0.0), errors)
    with pytest.raises(EvaluationError):
        raise_first_error(errors)


# Each numpy loop a jet walk, its sums or the oracle's central differences take, as a
# function of two complex arrays of one shape.  A real operand is the real part.
ENGINE_LOOPS = {
    "multiply": lambda a, b: a * b,
    "true_divide": lambda a, b: a / b,
    "reciprocal": lambda a, b: 1.0 / b,
    "sqrt": lambda a, b: np.sqrt(a),
    "absolute": lambda a, b: np.abs(a),
    "hypot": lambda a, b: np.hypot(a.real, a.imag),
    "add": lambda a, b: a + b,
    "subtract": lambda a, b: a - b,
    "i times complex": lambda a, b: 1j * a,
    "real times complex": lambda a, b: a.real * b,
    "real scalar times complex": lambda a, b: 2.0 * a,
    "complex over real": lambda a, b: a / b.real,
    "complex over real scalar": lambda a, b: a / 2e-4,
}


@pytest.mark.parametrize("loop", ENGINE_LOOPS)
def test_numpy_loops_give_an_element_the_same_bits_in_any_array(loop):
    """The jet engine relies on numpy's complex loops to give a point the same bits
    alone and in any stack.  Each loop gives every element of arrays of lengths 1-64,
    at any offset, contiguous, strided or broadcast against a stack, the bits it gets
    in an array of one.  A numpy build or host whose vector and scalar loops round
    differently fails here, not in a one-trial replay."""
    op = ENGINE_LOOPS[loop]
    rng = np.random.default_rng(7)
    size = 64
    a, b = rng.normal(size=(2, size, 2)) * 10.0 ** rng.integers(-3, 4, (2, size, 2)) @ [1, 1j]
    alone = np.concatenate([op(a[i:i + 1], b[i:i + 1]) for i in range(size)])
    for step in (1, 2, 3):
        wide = np.zeros((2, size * step), complex)
        wide[:, ::step] = a, b
        sa, sb = wide[0, ::step], wide[1, ::step]
        for start in range(size):
            for stop in range(start + 1, size + 1):
                got = op(sa[start:stop], sb[start:stop])
                assert got.tobytes() == alone[start:stop].tobytes(), (step, start, stop)
    stacked = np.broadcast_to(op(np.stack([a, a, a]), b), (3, size))
    assert all(row.tobytes() == alone.tobytes() for row in stacked)


def test_expression_operators_build_dag():
    e = (Entry(1, 2) + 1) * Entry(2, 2) ** 2 - Entry(1, 1) / 2
    assert isinstance(e, Sub) and isinstance(e.a, Mul)
    assert e.a.a == Add(Entry(1, 2), Const(1))
    assert e.a.b == Mul(Entry(2, 2), Entry(2, 2))
    with pytest.raises(ValueError):
        Entry(1, 1) ** -1


def test_base_map_value_checks_membership():
    space = make_space("slr-so", 2)
    with pytest.raises(ValueError):
        base_map_value(space, 1j * np.eye(2, dtype=complex))


def test_base_map_jet_worked_examples():
    """At the identity of GL+(2,R): entries of Phi = x x^t along known directions."""
    space = make_space("slr-so", 2)
    x = np.eye(2, dtype=complex)
    j = eval_jet(Entry(1, 1), space, x, dense(unit(2, 1, 1, 1), 1, 2))
    assert abs(j.v - 1) < 1e-15 and abs(j.d1 - 2) < 1e-15 and abs(j.d2 - 4) < 1e-15
    j = eval_jet(Entry(1, 2), space, x, dense(unit(2, 1, 2, 1), HALF, 2))
    assert abs(j.v) < 1e-15
    assert abs(j.d1 - math.sqrt(2)) < 1e-14
    assert abs(j.d2) < 1e-14


def test_base_map_jet_dimension_mismatch():
    space = make_space("slr-so", 2)
    with pytest.raises(ValueError):
        eval_jet(Entry(1, 1), space, np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def _fd(f, space, x, z, h):
    """fd_jet at the one point x along z, on a context of one point and one direction."""
    fd, errors = fd_jet(f, JetContext(space, x[None], z[None]), [0], [0], h)
    raise_first_error(errors)
    return Jet2(*(complex(a[0]) for a in (fd.v, fd.d1, fd.d2)))


def _jets(f, space, x, basis=None):
    """Jet of f at a point or a stack x along every direction of the basis; a point
    is walked as a stack of one."""
    jet, errors = eval_jet_cached(f, JetContext(space, x[None] if x.ndim == 2 else x, basis))
    raise_first_error(errors)
    return jet


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_analytic_jet_matches_finite_differences(sid):
    space = make_space(sid, 2)
    basis = p_basis(space)
    if not len(basis):
        pytest.skip("zero-dimensional horizontal complement")
    expr = Entry(1, 1) * Entry(2, 2) + Entry(1, 2) ** 2
    for i in range(3):
        x = sample_group_point(space, 21, index=i)
        z = basis[i % len(basis)]
        a = eval_jet(expr, space, x, z)
        f = _fd(expr, space, x, z, 1e-5)
        scale = max(1.0, abs(a.v) + abs(a.d1) + abs(a.d2))
        assert abs(a.d1 - f.d1) / scale < 1e-7
        assert abs(a.d2 - f.d2) / scale < 1e-4


def test_quotient_rule_invariants():
    """tau and kappa of P/Q against the expanded product-rule combinations."""
    space = make_space("slr-so", 3)
    p_expr, q_expr = Entry(1, 2), Entry(2, 2)
    ratio = p_expr / q_expr
    for i in range(5):
        x = sample_group_point(space, 31, index=i)
        p = eval_value(p_expr, space, x)
        q = eval_value(q_expr, space, x)
        jp, jq = _jets(p_expr, space, x), _jets(q_expr, space, x)
        tp, kpp, _ = jet_sums(jp)
        tq, kqq, _ = jet_sums(jq)
        tr, kr, _ = jet_sums(_jets(ratio, space, x))
        kpq = kappa_sum(jp, jq)
        lhs_tau = q ** 3 * tr
        rhs_tau = q ** 2 * tp - p * q * tq - 2 * q * kpq + 2 * p * kqq
        scale = max(1.0, abs(lhs_tau), abs(rhs_tau))
        assert abs(lhs_tau - rhs_tau) / scale < 1e-8
        lhs_kap = q ** 4 * kr
        rhs_kap = q ** 2 * kpp - 2 * p * q * kpq + p ** 2 * kqq
        scale = max(1.0, abs(lhs_kap), abs(rhs_kap))
        assert abs(lhs_kap - rhs_kap) / scale < 1e-8


def test_scale_by_i_and_const():
    space = make_space("slr-so", 2)
    x = np.eye(2, dtype=complex)
    assert eval_value(ScaleByI(Const(2.0)), space, x) == 2j
    assert eval_value(Sqrt(Const(4.0)), space, x) == 2.0


def test_tau_kappa_basis_rotation_invariance():
    space = make_space("slr-so", 2)
    x = sample_group_point(space, 17)
    expr = Entry(1, 2) / Entry(2, 2)
    stock = p_basis(space)
    rot = random_rotation(stock, rng_from_seed(5))
    tau0, kap0, _ = jet_sums(_jets(expr, space, x, stock))
    tau1, kap1, _ = jet_sums(_jets(expr, space, x, rot))
    assert abs(tau0 - tau1) < 1e-10
    assert abs(kap0 - kap1) < 1e-10


@pytest.mark.parametrize("directions", [0, 1, 7, 15])
def test_direction_sums_do_not_depend_on_stack_or_layout(directions):
    """jet_sums and kappa_sum give each point the same bits whether its derivatives
    lie in C order, in F order (directions fastest, as JetContext lays them out),
    alone in a stack of one, or in part of a larger stack, and the bits of the loop
    that adds each direction's term to a new array in basis order: with complex or
    real d2, with a real d1 against a complex one, and with a constant's scalar 0."""
    rng = np.random.default_rng(directions)
    points = 40
    # d1 and d2 of f, and d1 of g, over (directions, points) in C order
    re, im = rng.normal(size=(2, 3, directions, points))
    derivs = re + 1j * im

    def sums(f1, f2, g1):
        jf = Jet2(np.zeros(f1.shape[1:], complex), f1, f2)
        return [*jet_sums(jf), jet_sums(Jet2(jf.v, f1, f2.real))[0],
                kappa_sum(jf, Jet2(jf.v, g1, g1)), kappa_sum(jf, Jet2(jf.v, g1.real, g1.real)),
                kappa_sum(Jet2(2.0, 0.0, 0.0), jf)]

    def reference(a, b=None):
        if b is not None:
            a, b = np.broadcast_arrays(a, b)
        total = np.zeros(a.shape[1:])
        for z in range(len(a)):
            total = total + (a[z] if b is None else a[z] * b[z])
        return total

    def bits(arrays):
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    c_order = sums(*derivs)
    f1, f2, g1 = derivs
    assert bits(c_order) == bits([
        reference(f2), reference(f1, f1), reference(np.abs(f1), np.abs(f1)),
        reference(f2.real), reference(f1, g1), reference(f1, g1.real), reference(0.0, f1)])
    assert all(a.shape == (points,) for a in c_order)
    wide = np.zeros((3, points + 20, directions), complex)
    wide[:, 5:5 + points] = np.swapaxes(derivs, 1, 2)
    layouts = {
        "F order": sums(*(np.asfortranarray(a) for a in derivs)),
        "stacks of one": [np.concatenate(parts) for parts in
                          zip(*(sums(*derivs[..., p:p + 1]) for p in range(points)))],
        "part of a stack": sums(*np.swapaxes(wide, 1, 2)[..., 5:5 + points]),
    }
    for name, got in layouts.items():
        assert bits(got) == bits(c_order), name
    if not directions:
        assert not any(a.any() for a in c_order)


def test_direction_sums_of_a_constant_are_zero():
    const = Jet2(2.0, 0.0, 0.0)
    assert jet_sums(const) == (0.0, 0.0, 0.0)
    f = Jet2(np.ones(4, complex), np.ones((3, 4), complex), np.ones((3, 4), complex))
    kappa = kappa_sum(const, f)
    assert kappa.shape == (4,) and not kappa.any()


def _lemma_jets(sid, n, points):
    """d1 of the base map, and on slr-so d1 of psi_12, at points of the space."""
    space = make_space(sid, n)
    ctx = JetContext(space, sample_group_point(space, 3, index=np.arange(points)))
    if sid == "sus-sp":
        return ctx.d1, None
    psi, _ = eval_jet_cached(Sqrt(Entry(1, 1) * Entry(2, 2) - Entry(1, 2) ** 2), ctx)
    return ctx.d1, psi.d1


def _gram_cases(d1, psi1):
    """The (a, b) of each kappa table the derivative-lemma suite takes with _gram:
    kappa(phi_kl, phi_ij) on slr-so with kappa(phi_1m, psi_12), and kappa(phi_kl, phi_rl)
    on sus-sp, each over (directions, points, ...)."""
    if psi1 is None:
        return [(np.swapaxes(d1, -1, -2), None)]
    return [(d1.reshape(d1.shape[:-2] + (-1,)), None), (d1[..., 0, :], psi1)]


def _pairs(a, b):
    """The factors of each term of _gram(a, b), broadcast to the table's entries."""
    return (a[..., :, None], a[..., None, :]) if b is None else (a, b[..., None])


@pytest.mark.parametrize("sid,n", [("slr-so", n) for n in (2, 3, 4, 5, 8)]
                         + [("sus-sp", n) for n in (1, 2, 3, 5)])
def test_gram_agrees_with_direction_sum_to_rounding(sid, n):
    """Each entry of a lemma kappa table by _gram and by _direction_sum differs by at
    most gamma_m = m u / (1 - m u) of the sum of its terms' moduli, u the unit
    round-off and m the number of real products the entry adds: one a direction, two
    for complex tables.  The worst gap seen was 0.61 gamma_m, on slr-so n=2 and on
    sus-sp n=1, whose one complex product takes 1.22 u."""
    for a, b in _gram_cases(*_lemma_jets(sid, n, 8)):
        m, u = len(a) * (2 if np.iscomplexobj(a) else 1), np.finfo(float).eps / 2
        gamma = m * u / (1 - m * u)
        left, right = _pairs(a, b)
        terms = _direction_sum(np.abs(left), np.abs(right))
        gap = np.abs(_gram(a, b) - _direction_sum(left, right))
        assert terms.any() and (gap <= gamma * terms).all()


@pytest.mark.parametrize("sid,n", [("slr-so", 3), ("slr-so", 5), ("sus-sp", 2), ("sus-sp", 3)])
def test_gram_does_not_depend_on_stack_or_layout(sid, n):
    """The lemma kappa tables have the same bits at each point whether d1 lies as
    JetContext lays it out, in C or F order or transposed in memory, or alone in a
    stack of one."""
    points = 6
    d1, psi1 = _lemma_jets(sid, n, points)

    def tables(d1, psi1):
        return np.concatenate([_gram(a, b).reshape(d1.shape[1], -1)
                               for a, b in _gram_cases(d1, psi1)], axis=1)

    def one_by_one(d1, psi1):
        return np.concatenate([tables(d1[:, p:p + 1], psi1 if psi1 is None else psi1[:, p:p + 1])
                               for p in range(points)])

    want = tables(np.ascontiguousarray(d1), psi1)
    for name, layout in {"JetContext": lambda a: a, "F order": np.asfortranarray,
                         "transposed": lambda a: np.ascontiguousarray(a.T).T}.items():
        d1_, psi1_ = (None if a is None else layout(a) for a in (d1, psi1))
        assert tables(d1_, psi1_).tobytes() == want.tobytes(), name
        assert one_by_one(d1_, psi1_).tobytes() == want.tobytes(), f"{name}, stacks of one"


def test_normalized_residual_convention():
    assert normalized_residual(1.0, 0.5) == 1.0     # floor at 1
    assert normalized_residual(1.0, 4.0) == 0.25
    js = _jets(Const(3.0), make_space("slr-so", 2), np.eye(2, dtype=complex))
    assert jet_sums(js)[2] == 0.0


REFERENCE_CASES = [real_morphism(3, 1, 2), quat_family(2, 1)[0],
                   dual_real_morphism(3, 1, 2), dual_quat_family(2, 1)[0],
                   typeIV_bigcell_morphism(3, 2, 1)]


def _closed_form_jet(space, x, z):
    """(Phi, dPhi, d2Phi) along s -> x exp(sZ) at s = 0 at one point along one
    direction, by the closed form in JetContext's docstring."""
    tx, tz = _companion(space, x), _companion(space, z)
    return x @ tx, x @ (z + tz) @ tx, x @ (z @ z + 2.0 * (z @ tz) + tz @ tz) @ tx


def _reference_jet(f, space, x, z):
    """Jet of f along s -> x exp(sZ): one walk at the point, seeded by the closed form."""
    phi, d1, d2 = _closed_form_jet(space, x, z)
    jet, errors = _eval(f, lambda k, l: Jet2(phi[k - 1, l - 1], d1[k - 1, l - 1],
                                             d2[k - 1, l - 1]), ())
    raise_first_error(errors)
    return Jet2(*(complex(a) for a in (jet.v, jet.d1, jet.d2)))


def _reference_sums(f, g, space, x):
    """tau(f), kappa(f, g) and the energy of f by a plain loop over p_basis."""
    tau = kappa = energy = 0.0
    for z in p_basis(space):
        jf, jg = _reference_jet(f, space, x, z), _reference_jet(g, space, x, z)
        tau += jf.d2
        kappa += jf.d1 * jg.d1
        energy += abs(jf.d1) ** 2
    return tau, kappa, energy


# The batched jets use numpy's complex arithmetic and summation where the loop
# uses CPython's, so the sums agree to round-off: over 1,200 sampled points on
# the five spaces the largest gap was 3.8e-14 * max(1, energy), at a point where
# the numerator of an su-so map cancels to 2% of its terms.  The tightest suite
# tolerance is 1e-8.
REFERENCE_REL_TOL = 1e-13


@pytest.mark.parametrize("m", REFERENCE_CASES, ids=lambda m: m.label)
def test_reductions_equal_reference_loop(m):
    """jet_sums and kappa_sum reproduce the direct per-direction loop to round-off."""
    for t in range(3):
        x = sample_in_domain(m, 41, t)
        sums = jet_sums(_jets(m.expr, m.space, x))
        ref = _reference_sums(m.expr, m.expr, m.space, x)
        bound = REFERENCE_REL_TOL * max(1.0, ref[2])
        assert all(abs(a - b) <= bound for a, b in zip(sums, ref))


def test_cross_kappa_equals_reference_loop():
    f, g = quat_family(2, 1)[:2]
    for t in range(3):
        x = sample_in_domain([f, g], 43, t)
        kappa = kappa_sum(_jets(f.expr, f.space, x), _jets(g.expr, g.space, x))
        _, ref, energy = _reference_sums(f.expr, g.expr, f.space, x)
        assert abs(kappa - ref) <= REFERENCE_REL_TOL * max(1.0, energy)


def _column_jets(ctx, l):
    """phi, d1 and d2 of the context's base-map column l, 1-based, asked of entry_jet,
    with the rows k last as in the context's arrays."""
    jets = [ctx.entry_jet(k, l) for k in range(1, ctx.x.shape[-1] + 1)]
    return tuple(np.stack([getattr(j, a) for j in jets], axis=-1) for a in ("v", "d1", "d2"))


def _all_columns(ctx, l):
    """phi, d1 and d2 of column l in the context's product of all columns."""
    return ctx.phi[..., l - 1], ctx.d1[..., l - 1], ctx.d2[..., l - 1]


def _same_bits(got, want):
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("sid,n", [("slr-so", 3), ("slr-so", 5), ("sus-sp", 2), ("su-so", 3),
                                   ("su-sp", 2), ("slc-su", 3)])
@pytest.mark.parametrize("algebra", ["tangent", "stabilizer", "rotated"])
def test_point_jets_do_not_depend_on_stack_or_columns(sid, n, algebra):
    """Each point's phi, d1 and d2 have the same bits alone and in a stack of 100, whatever
    columns are asked for and in whatever order: the reference loops and the
    basis-independence suite compare a point alone against the suites' stacks, and a
    suite asks for the columns its maps read, one at a time.  A context computes only
    the columns asked for.  A rotated basis is dense, so no product term is an exact
    zero that would hide a change of rounding."""
    space = make_space(sid, n)
    basis = {"tangent": p_basis(space), "stabilizer": np.array(stabilizer_algebra(space)),
             "rotated": random_rotation(p_basis(space), rng_from_seed(83, 0))}[algebra]
    d = space.ambient_dim
    x = sample_group_point(space, 81, index=np.arange(100))
    full = JetContext(space, x, basis)
    for order in ((d, 1), tuple(range(1, d + 1)), (d,)):
        stacked = JetContext(space, x, basis)
        alone = [JetContext(space, x[p:p + 1], basis) for p in range(len(x))]
        for l in order:
            want = _all_columns(full, l)
            assert _same_bits(_column_jets(stacked, l), want)
            for p, ctx in enumerate(alone):
                phi, d1, d2 = _column_jets(ctx, l)
                assert _same_bits((phi[0], d1[:, 0], d2[:, 0]),
                                  (want[0][p], want[1][:, p], want[2][:, p]))
        assert sorted(stacked._columns) == sorted(order)


@pytest.mark.parametrize("sid,n", [("slr-so", 3), ("sus-sp", 2), ("su-so", 3), ("su-sp", 1),
                                   ("su-sp", 2), ("slc-su", 3)])
def test_stock_basis_products_are_built_once_with_the_same_jets(sid, n):
    """A context on the stock basis takes the basis products from the per-space cache;
    one on a copy of the basis builds them afresh, with the same jets bit for bit, for
    all columns at once and for one column asked alone."""
    space = make_space(sid, n)
    d = space.ambient_dim
    x = sample_group_point(space, 81, index=np.arange(12))
    hits = _stock_products.cache_info().hits
    cached = [JetContext(space, x, basis) for basis in (p_basis(space), None)]
    assert _stock_products.cache_info().hits >= hits + 1
    fresh = JetContext(space, x, p_basis(space).copy())
    for ctx in cached:
        assert _same_bits(_column_jets(ctx, d), _column_jets(fresh, d))
        assert _same_bits((ctx.phi, ctx.d1, ctx.d2), (fresh.phi, fresh.d1, fresh.d2))


def test_a_context_walks_maps_after_maps_on_other_columns():
    """A walk on a context that an earlier walk left holding other columns computes
    the columns it reads and gets the jets and errors of a fresh context."""
    space = make_space("slr-so", 4)
    x = sample_group_point(space, 81, index=np.arange(10))
    ctx = JetContext(space, x)
    # (phi_kl + i psi_kl) / phi_ll reads the columns k and l
    for (k, l), held in (((1, 2), [1, 2]), ((3, 4), [1, 2, 3, 4]), ((2, 1), [1, 2, 3, 4])):
        m = real_morphism(4, k, l)
        jet, errors = eval_jet_cached(m.expr, ctx)
        want, want_errors = eval_jet_cached(m.expr, JetContext(space, x))
        assert _same_bits((jet.v, jet.d1, jet.d2), (want.v, want.d1, want.d2))
        assert errors.tolist() == want_errors.tolist()
        assert sorted(ctx._columns) == held


def test_real_points_along_a_real_basis_get_real_derivatives():
    """slr-so points along a real basis (the tangent basis, the stabilizer algebra, a
    rotation of the tangent basis) get float64 derivatives equal to the closed form to
    round-off, and phi is base_map_value's complex product; a complex stack keeps
    complex128 derivatives."""
    space = make_space("slr-so", 4)
    x = sample_group_point(space, 91, index=np.arange(20))
    stock = p_basis(space)
    for basis in (stock, np.array(stabilizer_algebra(space)),
                  random_rotation(stock, rng_from_seed(5, 0))):
        ctx = JetContext(space, x, basis)
        assert ctx.d1.dtype == ctx.d2.dtype == np.float64
        assert ctx.phi.dtype == complex
        assert np.array_equal(ctx.phi, base_map_value(space, x, check=False))
        for p in range(len(x)):
            for zi, z in enumerate(basis):
                for got, ref in zip((ctx.d1[zi, p], ctx.d2[zi, p]),
                                    _closed_form_jet(space, x[p], z)[1:]):
                    assert np.max(np.abs(got - ref)) <= REFERENCE_REL_TOL * max(
                        1.0, np.max(np.abs(ref)))
    sus = make_space("sus-sp", 2)
    ctx = JetContext(sus, sample_group_point(sus, 91, index=np.arange(3)))
    assert ctx.d1.dtype == ctx.d2.dtype == complex


# Every node type: Const, Entry, Add, Sub, Mul, Div, Sqrt, ScaleByI.
ALL_NODES = Div(Sqrt(Add(Mul(Entry(1, 1), Entry(2, 2)), ScaleByI(Entry(1, 2)))),
                Sub(Entry(2, 1), Const(3.0)))


@pytest.mark.parametrize("sid,n", [("slr-so", 3), ("sus-sp", 2), ("su-so", 3), ("su-sp", 1),
                                   ("su-sp", 2), ("slc-su", 3)])
@pytest.mark.parametrize("expr", [ALL_NODES, Const(2.5)], ids=["all-nodes", "const"])
def test_batched_jet_matches_eval_jet_per_direction(sid, n, expr):
    """One walk over all directions and a stack of points gives each point the jet it
    gets alone, bit for bit, and the closed form's jet along each direction to
    round-off.  The closed form walks 0-d scalars, which numpy multiplies as Python
    does and its arrays do not, so it is not the same numbers."""
    space = make_space(sid, n)
    basis = p_basis(space)
    xs = sample_group_point(space, 51, index=np.arange(3))
    stacked, errors = eval_jet_cached(expr, JetContext(space, xs, basis))
    assert all(e is None for e in errors)
    v = np.broadcast_to(stacked.v, 3)
    d1, d2 = (np.broadcast_to(a, (len(basis), 3)) for a in (stacked.d1, stacked.d2))
    for i, x in enumerate(xs):
        alone, errors = eval_jet_cached(expr, JetContext(space, x[None], basis))
        assert errors.item() is None
        assert _same_bits((np.broadcast_to(alone.v, 1), np.broadcast_to(alone.d1, (len(basis), 1)),
                           np.broadcast_to(alone.d2, (len(basis), 1))),
                          (v[i:i + 1], d1[:, i:i + 1], d2[:, i:i + 1]))
        assert v[i] == eval_value(expr, space, x)
        for zi, z in enumerate(basis):
            ref = _reference_jet(expr, space, x, z)
            scale = max(1.0, abs(ref.v) + abs(ref.d1) + abs(ref.d2))
            assert abs(v[i] - ref.v) <= REFERENCE_REL_TOL * scale
            assert abs(d1[zi, i] - ref.d1) <= REFERENCE_REL_TOL * scale
            assert abs(d2[zi, i] - ref.d2) <= REFERENCE_REL_TOL * scale
    if isinstance(expr, Const) or not len(basis):
        assert not any(np.any(a) for a in jet_sums(stacked))


def _all_nodes_in_python(phi):
    """ALL_NODES in Python complex arithmetic, on the base-map matrix phi."""
    import cmath
    e = {(k, l): complex(phi[k - 1, l - 1]) for k in (1, 2) for l in (1, 2)}
    # a jet divides by multiplying with the reciprocal
    return cmath.sqrt(e[1, 1] * e[2, 2] + 1j * e[1, 2]) * (1.0 / (e[2, 1] - complex(3.0)))


def _reference_exp(z, t, skew):
    """exp(t z) of one Hermitian (or, if skew, skew-Hermitian) matrix from one eigh of
    z (of -iz), as I + V diag(e^{tw} - 1) V*, as fd_jet takes it."""
    w, v = np.linalg.eigh(-1j * z if skew else z)
    return np.eye(len(z)) + (v * np.expm1(t * (1j * w if skew else w))) @ v.conj().T


@pytest.mark.parametrize("sid,n", [("slr-so", 3), ("sus-sp", 2), ("su-so", 3), ("slc-su", 3)])
def test_values_are_the_same_numbers_alone_and_stacked(sid, n):
    """A value walk gives each point the same bits alone and in a stack, so the oracle's
    central differences are those of one-point values, bit for bit.  Python's complex
    arithmetic gives the values, and the central differences of the same values, to
    round-off."""
    space = make_space(sid, n)
    z = p_basis(space)[-1]
    x = sample_group_point(space, 61, index=np.arange(4))
    stencil = np.stack([x @ _reference_exp(z, 1e-4, space.compact), x,
                        x @ _reference_exp(z, -1e-4, space.compact)])
    values, errors = _values(ALL_NODES, base_map_value(space, stencil, check=False))
    assert all(e is None for e in errors.flat)
    d1, d2 = (values[0] - values[2]) / 2e-4, (values[0] - 2.0 * values[1] + values[2]) / 1e-8
    for i, p in enumerate(x):
        fd = _fd(ALL_NODES, space, p, z, 1e-4)
        fp, f0, fm = (eval_value(ALL_NODES, space, q) for q in stencil[:, i])
        assert (fp, f0, fm) == tuple(values[:, i])
        assert (fd.v, fd.d1, fd.d2) == (f0, d1[i], d2[i])
        ref = Jet2(f0, (fp - fm) / 2e-4, (fp - 2.0 * f0 + fm) / 1e-8)
        scale = max(1.0, abs(ref.v) + abs(ref.d1) + abs(ref.d2))
        assert abs(fd.d1 - ref.d1) <= REFERENCE_REL_TOL * scale
        assert abs(fd.d2 - ref.d2) <= REFERENCE_REL_TOL * scale
        ref = _all_nodes_in_python(p @ p.T if space.base_map_variant == "x_xt" else p @ p.conj().T)
        assert abs(f0 - ref) <= REFERENCE_REL_TOL * max(1.0, abs(ref))


# The error maps of test_verify's certification cases: phi_12 / (sqrt(phi_12^2) - phi_12)
# divides by exactly 0 where phi_12 > 0, sqrt(phi_11 - 1) is on the cut where phi_11 < 1.
DIVIDES_BY_ZERO = Entry(1, 2) / (Sqrt(Entry(1, 2) * Entry(1, 2)) - Entry(1, 2))
ON_THE_CUT = Sqrt(Entry(1, 1) - 1.0)


@pytest.mark.parametrize("sid,n,expr", [
    ("slr-so", 3, ALL_NODES), ("sus-sp", 2, ALL_NODES), ("su-so", 3, ALL_NODES),
    ("su-sp", 2, ALL_NODES), ("slc-su", 3, ALL_NODES), ("slr-so", 2, ALL_NODES),
    ("slr-so", 2, DIVIDES_BY_ZERO), ("slr-so", 2, ON_THE_CUT)],
    ids=["slr-so-3", "sus-sp-2", "su-so-3", "su-sp-2", "slc-su-3", "slr-so-2",
         "divides-by-zero", "on-the-cut"])
def test_stacked_fd_jet_equals_per_point(sid, n, expr):
    """One stacked exponential and one stencil walk give each point the central
    differences and the stencil error it gets alone, bit for bit."""
    space = make_space(sid, n)
    basis = p_basis(space)
    k = 12
    x = sample_group_point(space, 71, index=np.arange(k))
    zi = np.arange(k) % len(basis)
    z = basis[zi]
    stacked, errors = fd_jet(expr, JetContext(space, x), np.arange(k), zi, 1e-4)
    assert stacked.v.shape == stacked.d1.shape == stacked.d2.shape == (k,)
    failed = []
    for i in range(k):
        ref, alone = fd_jet(expr, JetContext(space, x[i:i + 1], z[i:i + 1]), [0], [0], 1e-4)
        assert type(errors[i]) is type(alone[0]) and str(errors[i]) == str(alone[0])
        if alone[0] is None:
            assert (stacked.v[i], stacked.d1[i], stacked.d2[i]) == (ref.v[0], ref.d1[0], ref.d2[0])
        else:
            failed.append(i)
    if expr is ALL_NODES:
        assert not failed
    else:
        # the stack mixes evaluated points and failed ones
        assert 0 < len(failed) < k
        # a point's error is its stencil's first: at +h, then at 0, then at -h
        ep, em = normal_exp(z, space.compact, (1e-4, -1e-4))
        stencil = [_values(expr, base_map_value(space, p, check=False))[1]
                   for p in (x @ ep, x, x @ em)]
        for i in failed:
            first = next(e for e in (s[i] for s in stencil) if e is not None)
            assert str(errors[i]) == str(first)
        # merged after an earlier record, a point that already has an error keeps it
        earlier = np.full(k, None, dtype=object)
        earlier[failed[0]] = marker = ValueError("earlier")
        kept = _first_errors(earlier, errors)
        assert kept[failed[0]] is marker
        assert ([str(e) for e in np.delete(kept, failed[0])]
                == [str(e) for e in np.delete(errors, failed[0])])


def _psi_cut_point():
    """x = blockdiag([[i cos t, sin t], [-sin t, -i cos t]], 1) of su-so n=3, t = 0.3, where
    w_13 = phi_11 phi_33 - phi_13^2 = -cos 2t lies on psi_13's branch cut."""
    c, s = np.cos(0.3), np.sin(0.3)
    x = np.eye(3, dtype=complex)
    x[:2, :2] = [[1j * c, s], [-s, -1j * c]]
    return x


# (name, expression, space, points besides the sampled ones, an error they must record)
VALUE_CASES = [(m.label, m.expr, m.space, (), None) for m in REFERENCE_CASES] + [
    ("composition", holomorphic_compose({(2, 0, 0): 1, (1, 1, 0): 3}, quat_family(2, 1)).expr,
     make_space("sus-sp", 2), (), None),
    ("constants", Sqrt(Const(4.0)) / Const(3.0) + ScaleByI(Const(2.0)), make_space("slr-so", 2),
     (), None),
    ("psi-cut", dual_real_morphism(3, 1, 3).expr, make_space("su-so", 3), (_psi_cut_point(),),
     BranchCutError),
    # phi_12 = 1/2, so sqrt(phi_12^2) - phi_12 is exactly 0
    ("zero-denominator", DIVIDES_BY_ZERO, make_space("slr-so", 2),
     (np.array([[1.0, 0.5], [0.0, 1.0]], complex),), EvaluationError),
]


@pytest.mark.parametrize("name,expr,space,extra,error", VALUE_CASES,
                         ids=[case[0] for case in VALUE_CASES])
def test_the_value_walk_is_the_jet_walks_value(name, expr, space, extra, error):
    """The value walk gives each point the bits of the jet walk's value and the same
    error record: both take a node's value by the same operations, and a quotient's
    and a root's by the same guarded reciprocal and root."""
    x = np.concatenate([sample_group_point(space, 97, index=np.arange(30)),
                        *(e[None] for e in extra)])
    ctx = JetContext(space, x)
    jet, jet_errors = eval_jet_cached(expr, ctx)
    values, errors = _values(expr, ctx.phi)
    want = np.broadcast_to(jet.v, jet_errors.shape)
    assert values.dtype == want.dtype and values.tobytes() == want.tobytes()
    assert [(type(e), str(e)) for e in errors] == [(type(e), str(e)) for e in jet_errors]
    if error is not None:
        assert isinstance(errors[-1], error)


def test_programs_are_built_once_per_expression_by_identity():
    """An expression's program lists each node once by identity, so sixty squarings,
    a tree of 2^61 - 1 nodes unfolded, make a program of 61 nodes that walks at once;
    every later walk replays the same program."""
    leaf = e = Entry(1, 1)
    for _ in range(60):
        e = e * e
    built = "program" in vars(e)
    assert not built
    ctx = JetContext(make_space("slr-so", 2), np.eye(2, dtype=complex)[None])
    start = time.perf_counter()
    jet, errors = eval_jet_cached(e, ctx)
    assert time.perf_counter() - start < 1.0
    program = vars(e)["program"]
    assert [kids for _, kids in program] == [()] + [(i, i) for i in range(60)]
    ends = program[0][0] is leaf, program[-1][0] is e
    assert ends == (True, True)
    assert jet.v.tolist() == [1] and errors.tolist() == [None]
    eval_jet_cached(e, ctx)
    _values(e, ctx.phi)
    replayed = e.program is program
    assert replayed


def _squarings(count, leaf):
    e = leaf
    for _ in range(count):
        e = e * e
    return e


def test_equality_hash_and_repr_go_once_over_the_program():
    """Sixty squarings of Entry(1, 1) unfold to a tree of 2^61 - 1 nodes: their repr,
    their equality with a chain built apart and their hash each take one pass over the
    61 nodes of the program.  Equality stays structural: a DAG equals the tree built
    without sharing, and equal expressions hash alike."""
    e, f = _squarings(60, Entry(1, 1)), _squarings(60, Entry(1, 1))
    for op in (lambda: repr(e), lambda: e == f, lambda: hash(e) == hash(f)):
        start = time.perf_counter()
        assert op()
        assert time.perf_counter() - start < 1.0
    assert e != _squarings(59, Entry(1, 1)) and e != _squarings(60, Entry(1, 2))
    assert repr(e).startswith("Mul(a=#59, b=#59) where #0 = Entry(k=1, l=1), "
                              "#1 = Mul(a=#0, b=#0), #2 = Mul(a=#1, b=#1), ")
    half = Entry(1, 2) / 2
    tree = Mul(Div(Entry(1, 2), Const(2)), Entry(1, 2) / 2.0)
    assert Mul(half, half) == tree and hash(Mul(half, half)) == hash(tree)
    assert Mul(half, half) != Mul(half, Entry(1, 2) / 3) != Add(half, half)
    assert repr(tree) == ("Mul(a=Div(a=Entry(k=1, l=2), b=Const(value=2)), "
                          "b=Div(a=Entry(k=1, l=2), b=Const(value=(2+0j))))")
    assert repr(Mul(half, half)) == ("Mul(a=#2, b=#2) where "
                                     "#2 = Div(a=Entry(k=1, l=2), b=Const(value=(2+0j)))")


def test_a_context_needs_a_stack_axis():
    """A point of shape (d, d) would walk 0-d values, which numpy rounds as Python's
    scalars and not as its arrays: a context takes a stack, x[None] for one point."""
    space = make_space("su-so", 3)
    x = sample_group_point(space, 5)
    with pytest.raises(ValueError):
        JetContext(space, x)
    assert JetContext(space, x[None]).phi.shape == (1, 3, 3)


@pytest.mark.parametrize("sid,n", [("slr-so", 3), ("sus-sp", 2), ("su-so", 3), ("slc-su", 3)])
def test_fd_jet_reads_no_jets_of_its_context(sid, n, monkeypatch):
    """The oracle stays independent of the jets it checks: on a context that cannot
    compute a jet column it still runs, and on a context whose columns are all
    computed it gives the same bits as on a fresh one."""
    space = make_space(sid, n)
    k = 12
    x = sample_group_point(space, 71, index=np.arange(k))
    points, directions = np.arange(0, k, 2), np.arange(k // 2) % len(p_basis(space))
    computed = JetContext(space, x)
    for l in range(1, x.shape[-1] + 1):  # every column, one at a time and all in one product
        computed.entry_jet(1, l)
    assert computed.d1.size

    def no_jets(self, columns):
        raise AssertionError("fd_jet read a jet column")

    monkeypatch.setattr(JetContext, "_jets", no_jets)
    fresh, errors = fd_jet(ALL_NODES, JetContext(space, x), points, directions, 1e-4)
    assert all(e is None for e in errors)
    warm, _ = fd_jet(ALL_NODES, computed, points, directions, 1e-4)
    assert _same_bits((fresh.v, fresh.d1, fresh.d2), (warm.v, warm.d1, warm.d2))


def test_each_point_keeps_its_first_error_in_dag_order():
    space = make_space("slr-so", 2)
    cut = np.diag([0.5, 2.0]).astype(complex)      # phi_11 = 0.25: sqrt(phi_11 - 1) on the cut
    fine = np.diag([2.0, 0.5]).astype(complex)     # phi_11 = 4
    zero = Entry(1, 2) - Entry(1, 2)                # phi_12 - phi_12 = 0 at every point
    sqrt_first = Sqrt(Entry(1, 1) - 1.0) / zero
    div_first = Entry(1, 1) / zero + Sqrt(Entry(1, 1) - 1.0)
    for expr, kinds in ((sqrt_first, (BranchCutError, EvaluationError)),
                        (div_first, (EvaluationError, EvaluationError))):
        _, errors = eval_jet_cached(expr, JetContext(space, np.stack([cut, fine])))
        assert [type(e) for e in errors] == list(kinds)
        for x, kind in zip((cut, fine), kinds):
            with pytest.raises(kind):
                eval_value(expr, space, x)
            with pytest.raises(kind):
                eval_jet(expr, space, x, p_basis(space)[0])
