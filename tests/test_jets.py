"""2-jet propagation: chain rules, base-map jets, oracle agreement."""

import math

import numpy as np
import pytest

from harmorph.jets import (Add, BranchCutError, Const, Div, Entry, EvaluationError, Jet2,
                           JetContext, Mul, ScaleByI, Sqrt, Sub, _companion, _eval,
                           _first_errors, _stock_products, _values, base_map_value, eval_jet,
                           eval_jet_cached, fd_jet, jet_sums, kappa_sum, normalized_residual,
                           raise_first_error)
from harmorph.morphisms import (dual_quat_family, dual_real_morphism, quat_family,
                                real_morphism, typeIV_bigcell_morphism)
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


def test_jet_division_by_zero_raises():
    errors = _record()
    Jet2(1.0, 0.0, 0.0).divide(Jet2(0.0, 1.0, 0.0), errors)
    with pytest.raises(EvaluationError):
        raise_first_error(errors)


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
    """Jet of f at a point or a stack x along every direction of the basis."""
    jet, errors = eval_jet_cached(f, JetContext(space, x, basis))
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
    alone in a stack of one, or in part of a larger stack."""
    rng = np.random.default_rng(directions)
    points = 40
    # d1 and d2 of f, and d1 of g, over (directions, points) in C order
    re, im = rng.normal(size=(2, 3, directions, points))
    derivs = re + 1j * im

    def sums(f1, f2, g1):
        jf = Jet2(np.zeros(f1.shape[1:], complex), f1, f2)
        return np.stack([*jet_sums(jf), kappa_sum(jf, Jet2(jf.v, g1, g1))])

    c_order = sums(*derivs)
    assert c_order.shape == (4, points)
    wide = np.zeros((3, points + 20, directions), complex)
    wide[:, 5:5 + points] = np.swapaxes(derivs, 1, 2)
    layouts = {
        "F order": sums(*(np.asfortranarray(a) for a in derivs)),
        "stacks of one": np.concatenate([sums(*derivs[..., p:p + 1]) for p in range(points)],
                                        axis=1),
        "part of a stack": sums(*np.swapaxes(wide, 1, 2)[..., 5:5 + points]),
    }
    for name, got in layouts.items():
        assert got.tobytes() == c_order.tobytes(), name
    if not directions:
        assert not c_order.any()


def test_direction_sums_of_a_constant_are_zero():
    const = Jet2(2.0, 0.0, 0.0)
    assert jet_sums(const) == (0.0, 0.0, 0.0)
    f = Jet2(np.ones(4, complex), np.ones((3, 4), complex), np.ones((3, 4), complex))
    kappa = kappa_sum(const, f)
    assert kappa.shape == (4,) and not kappa.any()


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
    """One walk over all directions gives the closed form's jet along each direction."""
    space = make_space(sid, n)
    basis = p_basis(space)
    for i in range(3):
        x = sample_group_point(space, 51, index=i)
        jet, errors = eval_jet_cached(expr, JetContext(space, x, basis))
        assert errors.item() is None
        assert jet.v == eval_value(expr, space, x)
        d1, d2 = (np.broadcast_to(a, len(basis)) for a in (jet.d1, jet.d2))
        for zi, z in enumerate(basis):
            ref = _reference_jet(expr, space, x, z)
            assert jet.v == ref.v
            scale = max(1.0, abs(ref.v) + abs(ref.d1) + abs(ref.d2))
            assert abs(d1[zi] - ref.d1) <= 1e-13 * scale
            assert abs(d2[zi] - ref.d2) <= 1e-13 * scale
        tau, kappa, energy = jet_sums(jet)
        if isinstance(expr, Const) or not len(basis):
            assert (tau, kappa, energy) == (0.0, 0.0, 0.0)


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
    """A stacked value walk rounds as Python's complex arithmetic at one point, so the
    oracle's central differences are those of one-point values, bit for bit."""
    space = make_space(sid, n)
    basis = p_basis(space)
    x = sample_group_point(space, 61, index=np.arange(4))
    for p in x:
        z = basis[-1]
        fd = _fd(ALL_NODES, space, p, z, 1e-4)
        fp, f0, fm = (eval_value(ALL_NODES, space, q)
                      for q in (p @ _reference_exp(z, 1e-4, space.compact), p,
                                p @ _reference_exp(z, -1e-4, space.compact)))
        assert (fd.v, fd.d1, fd.d2) == (f0, (fp - fm) / 2e-4, (fp - 2.0 * f0 + fm) / 1e-8)
        ref = _all_nodes_in_python(p @ p.T if space.base_map_variant == "x_xt" else p @ p.conj().T)
        assert eval_value(ALL_NODES, space, p) == ref


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
