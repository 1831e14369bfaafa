"""2-jet propagation: chain rules, base-map jets, oracle agreement."""

import math

import numpy as np
import pytest

from harmorph.jets import (Add, BranchCutError, Const, Entry, EvaluationError, Jet2,
                           Mul, ScaleByI, Sqrt, Sub, base_map_jet, base_map_value,
                           direction_jets, eval_jet, eval_value, fd_jet, jet_sums,
                           kappa_sum, normalized_residual, rotated_basis)
from harmorph.morphisms import (dual_quat_family, dual_real_morphism, quat_family,
                                real_morphism, typeIV_bigcell_morphism)
from harmorph.sampling import rng_from_seed, sample_group_point
from harmorph.spaces import SPACE_IDS, elem_D, elem_X, make_space, p_basis
from harmorph.verify import sample_in_domain


def test_jet_arithmetic_against_polynomials():
    # f(s) = (2+s)^2 at s=0 -> (4, 4, 2); g(s) = 1/(1+s) -> (1, -1, 2)
    f = Jet2(2.0, 1.0, 0.0) * Jet2(2.0, 1.0, 0.0)
    assert (f.v, f.d1, f.d2) == (4.0, 4.0, 2.0)
    g = Jet2(1.0, 0.0, 0.0) / Jet2(1.0, 1.0, 0.0)
    assert (g.v, g.d1, g.d2) == (1.0, -1.0, 2.0)


def test_jet_sqrt_chain_rule():
    # w(s) = 1 + s, sqrt(w) at s=0 -> (1, 1/2, -1/4)
    j = Jet2(1.0, 1.0, 0.0).sqrt()
    assert abs(j.v - 1.0) < 1e-15
    assert abs(j.d1 - 0.5) < 1e-15
    assert abs(j.d2 + 0.25) < 1e-15


def test_jet_sqrt_branch_cut_raises():
    with pytest.raises(BranchCutError):
        Jet2(-1.0 + 0.0j, 1.0, 0.0).sqrt()
    with pytest.raises(BranchCutError):
        Jet2(0.0, 1.0, 0.0).sqrt()


def test_jet_division_by_zero_raises():
    with pytest.raises(EvaluationError):
        Jet2(1.0, 0.0, 0.0) / Jet2(0.0, 1.0, 0.0)


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
    j = eval_jet(Entry(1, 1), space, x, elem_D(2, 1))
    assert abs(j.v - 1) < 1e-15 and abs(j.d1 - 2) < 1e-15 and abs(j.d2 - 4) < 1e-15
    j = eval_jet(Entry(1, 2), space, x, elem_X(2, 1, 2))
    assert abs(j.v) < 1e-15
    assert abs(j.d1 - math.sqrt(2)) < 1e-14
    assert abs(j.d2) < 1e-14


def test_base_map_jet_dimension_mismatch():
    space = make_space("slr-so", 2)
    with pytest.raises(ValueError):
        base_map_jet(space, np.eye(2, dtype=complex), np.eye(3, dtype=complex))


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_analytic_jet_matches_finite_differences(sid):
    space = make_space(sid, 2)
    basis = p_basis(space)
    if not len(basis):
        pytest.skip("zero-dimensional horizontal complement")
    expr = Entry(1, 1) * Entry(2, 2) + Entry(1, 2) ** 2
    for i in range(3):
        x = sample_group_point(space, 21, index=i)
        z = basis.elements[i % len(basis)]
        a = eval_jet(expr, space, x, z)
        f = fd_jet(expr, space, x, z, h=1e-5)
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
        jp, jq = direction_jets(p_expr, space, x), direction_jets(q_expr, space, x)
        tp, kpp, _ = jet_sums(jp)
        tq, kqq, _ = jet_sums(jq)
        tr, kr, _ = jet_sums(direction_jets(ratio, space, x))
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
    rot = rotated_basis(stock, rng_from_seed(5))
    tau0, kap0, _ = jet_sums(direction_jets(expr, space, x, stock))
    tau1, kap1, _ = jet_sums(direction_jets(expr, space, x, rot))
    assert abs(tau0 - tau1) < 1e-10
    assert abs(kap0 - kap1) < 1e-10


def test_normalized_residual_convention():
    assert normalized_residual(1.0, 0.5) == 1.0     # floor at 1
    assert normalized_residual(1.0, 4.0) == 0.25
    js = direction_jets(Const(3.0), make_space("slr-so", 2), np.eye(2, dtype=complex))
    assert jet_sums(js)[2] == 0.0


REFERENCE_CASES = [real_morphism(3, 1, 2), quat_family(2, 1)[0],
                   dual_real_morphism(3, 1, 2), dual_quat_family(2, 1)[0],
                   typeIV_bigcell_morphism(3, 2, 1)]


def _reference_sums(f, g, space, x):
    """tau(f), kappa(f, g) and the energy of f by a plain loop of eval_jet over p_basis."""
    tau = kappa = energy = 0.0
    for z in p_basis(space):
        jf, jg = eval_jet(f, space, x, z), eval_jet(g, space, x, z)
        tau += jf.d2
        kappa += jf.d1 * jg.d1
        energy += abs(jf.d1) ** 2
    return tau, kappa, energy


@pytest.mark.parametrize("m", REFERENCE_CASES, ids=lambda m: m.label)
def test_reductions_equal_reference_loop(m):
    """jet_sums and kappa_sum reproduce the direct per-direction loop exactly."""
    for t in range(3):
        x = sample_in_domain(m, 41, t)
        assert jet_sums(direction_jets(m.expr, m.space, x)) == \
            _reference_sums(m.expr, m.expr, m.space, x)


def test_cross_kappa_equals_reference_loop():
    f, g = quat_family(2, 1)[:2]
    for t in range(3):
        x = sample_in_domain([f, g], 43, t)
        kappa = kappa_sum(direction_jets(f.expr, f.space, x), direction_jets(g.expr, g.space, x))
        assert kappa == _reference_sums(f.expr, g.expr, f.space, x)[1]
