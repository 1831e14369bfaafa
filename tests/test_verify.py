"""Verification suites: green paths, report contract, determinism, sensitivity."""

import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import harmorph.verify
from harmorph.jets import Const, Entry, Sqrt, base_map_value
from harmorph.morphisms import (STABILIZER_RIGHT, Morphism, control_morphism,
                                dual_quat_family, dual_real_morphism, quat_family,
                                real_morphism, typeIV_bigcell_morphism)
from harmorph.sampling import _POINTS, sample_group_point
from harmorph.spaces import make_space
from harmorph.verify import (MAX_CAPTURED_FAILURES, SCHEMA_VERSION, VerificationReport,
                             default_tolerance, render_report, verify_basis_independence,
                             verify_bigcell,
                             verify_derivative_lemmas, verify_family,
                             verify_harmonic, verify_invariance,
                             verify_lemma_formula_real, verify_lemma_long)
from oracles import exact_trial_fractions

TRIALS = 10
SEED = 424242


def _strip_time(report):
    d = report.to_dict()
    d.pop("wall_time")
    return d


def test_exact_identity_suites_pass():
    assert verify_lemma_formula_real(3, TRIALS, SEED).passed
    assert verify_lemma_long(2, TRIALS, SEED).passed


def test_derivative_lemmas_pass_both_spaces():
    assert verify_derivative_lemmas(make_space("slr-so", 3), TRIALS, SEED).passed
    assert verify_derivative_lemmas(make_space("slr-so", 1), TRIALS, SEED).passed  # no psi pairs
    assert verify_derivative_lemmas(make_space("sus-sp", 2), TRIALS, SEED).passed
    with pytest.raises(ValueError):
        verify_derivative_lemmas(make_space("su-so", 3), TRIALS, SEED)


@pytest.mark.parametrize("suite", [
    lambda t: verify_lemma_formula_real(3, t, SEED),
    lambda t: verify_lemma_long(2, t, SEED),
    lambda t: verify_derivative_lemmas(make_space("slr-so", 3), t, SEED),
    lambda t: verify_harmonic(real_morphism(3, 1, 2), t, SEED),
    lambda t: verify_family(quat_family(2, 1), t, SEED),
    lambda t: verify_invariance(real_morphism(3, 1, 2), t, SEED),
    lambda t: verify_bigcell(2, t, SEED),
    lambda t: verify_basis_independence(real_morphism(3, 1, 2), t, SEED),
], ids=["formula-real", "long", "derivative-lemmas", "harmonic", "family", "invariance",
        "bigcell", "basis-independence"])
def test_zero_trials_give_an_empty_pass(suite):
    r = suite(0)
    assert r.passed and r.trials == 0
    assert r.max_residuals == {} and r.failures == [] and r.failed_trials == set()


def test_harmonic_suite_real_morphism():
    r = verify_harmonic(real_morphism(3, 1, 2), TRIALS, SEED)
    assert r.passed
    assert r.max_residuals["tau"] <= r.tolerance
    assert r.max_residuals["kappa"] <= r.tolerance
    assert "oracle" in r.max_residuals


def test_family_suite_includes_all_pairs():
    fam = quat_family(2, 1)
    r = verify_family(fam, TRIALS, SEED)
    assert r.passed
    pair_keys = [k for k in r.max_residuals if k.startswith("kappa[")]
    m = len(fam)
    assert len(pair_keys) == m * (m + 1) // 2  # self-pairs included
    with pytest.raises(ValueError):
        verify_family([], TRIALS, SEED)


def test_compact_dual_suites():
    assert verify_harmonic(dual_real_morphism(3, 1, 2), TRIALS, SEED).passed
    assert verify_family(dual_quat_family(2, 1), TRIALS, SEED).passed


def test_bigcell_suite():
    r = verify_bigcell(2, 100, SEED)
    assert r.passed
    assert r.max_residuals["minor_imag_rel"] <= 1e-10
    with pytest.raises(ValueError):
        verify_bigcell(1, 10, SEED)


def test_bigcell_records_every_minor_of_a_point_off_the_big_cell(monkeypatch):
    """A g whose first row is zero has g g* with every leading minor zero: the report
    fails with minor_1 .. minor_n of that trial, and its minor_imag_rel is the maximum
    over per-point minors of the base map's top-left blocks."""
    n, trials, bad = 3, 8, 3
    space = make_space("slc-su", n)
    g = sample_group_point(space, SEED, index=np.arange(trials))
    g[bad, 0] = 0
    monkeypatch.setattr(harmorph.verify, "sample_group_point", lambda *args, **kwargs: g)
    r = verify_bigcell(n, trials, SEED)
    assert not r.passed and r.failed_trials == {bad}
    assert [(f["trial"], f["quantity"]) for f in r.failures] == [
        (bad, f"minor_{k}") for k in range(1, n + 1)]
    assert all(set(f["inputs"]) == {"g"} for f in r.failures)
    minors = [np.linalg.det(base_map_value(space, g[t], check=False)[:k, :k])
              for t in range(trials) for k in range(1, n + 1)]
    assert r.max_residuals["minor_imag_rel"] == max(
        abs(m.imag) / max(np.hypot(m.real, m.imag), 1e-300) for m in minors)


def test_invariance_suite():
    r = verify_invariance(real_morphism(2, 1, 2), 5, SEED)
    assert r.passed
    assert {"stabilizer-right", "positive-scale", "stabilizer-jet"} <= set(r.max_residuals)


def test_basis_independence_suite():
    m = typeIV_bigcell_morphism(2, 2, 1)
    assert verify_basis_independence(m, 5, SEED).passed


def test_default_tolerances():
    assert default_tolerance(make_space("slr-so", 2)) == 1e-8
    assert default_tolerance(make_space("su-so", 2)) == 1e-7
    assert default_tolerance(make_space("slc-su", 2)) == 1e-7


def test_reports_are_deterministic_up_to_wall_time():
    a = verify_harmonic(real_morphism(2, 1, 2), TRIALS, SEED)
    b = verify_harmonic(real_morphism(2, 1, 2), TRIALS, SEED)
    assert _strip_time(a) == _strip_time(b)
    c = verify_harmonic(real_morphism(2, 1, 2), TRIALS, SEED + 1)
    assert _strip_time(a) != _strip_time(c)


def test_report_json_contract():
    r = verify_harmonic(real_morphism(2, 1, 2), 3, SEED)
    d = json.loads(r.to_json())
    assert d["schema_version"] == SCHEMA_VERSION
    for key in ("suite", "space", "morphisms", "n", "trials", "seed", "tolerance",
                "max_residuals", "failures", "passed", "wall_time"):
        assert key in d
    assert d["seed"] == SEED and d["trials"] == 3


def test_non_finite_residuals_fail_and_serialize_as_strings():
    r = VerificationReport("harmonic", "slr-so", [], 2, 3, SEED, 1e-8)
    inputs = lambda t: {"t": t}
    r.check("tau", [np.nan, 0.0, 2e-9], 1e-8, inputs)
    r.check("kappa", [[0.0, 0.0], [0.0, np.nan], [0.0, 0.0]], 1e-8, inputs)
    r.check("oracle", [0.0, 0.0, np.inf], 1e-8, inputs)
    r.check("tau", [1e-9, 0.0, 0.0], 1e-8, inputs)  # a finite residual keeps the nan maximum
    assert not r.passed and r.failed_trials == {0, 1, 2}
    d = json.loads(json.dumps(r.to_dict(), allow_nan=False))
    assert [f["value"] for f in d["failures"]] == ["nan", "nan", "inf"]
    assert [f["inputs"] for f in d["failures"]] == [{"t": 0}, {"t": 1}, {"t": 2}]
    assert d["max_residuals"] == {"kappa": "nan", "oracle": "inf", "tau": "nan"}
    assert "  worst residual : nan" in render_report(r).splitlines()


def test_render_text_report():
    r = verify_harmonic(real_morphism(2, 1, 2), 3, SEED)
    text = render_report(r, "text")
    assert text.startswith("PASS")
    assert "seed" in text
    with pytest.raises(ValueError):
        render_report(r, "yaml")


@pytest.mark.parametrize("seconds,shown", [(0.0012345, "0.00123s"), (0.25, "0.25s"),
                                           (12.345, "12.3s")])
def test_text_report_shows_wall_time_to_three_digits(seconds, shown):
    """A suite that takes milliseconds does not read 0.00s; the JSON time is unrounded."""
    r = verify_harmonic(real_morphism(2, 1, 2), 3, SEED)
    r.wall_time = seconds
    assert f"  wall time  : {shown}" in render_report(r).splitlines()
    assert r.to_dict()["wall_time"] == seconds


def test_sensitivity_control_fails_with_large_residual():
    r = verify_harmonic(control_morphism(2), TRIALS, SEED)
    assert not r.passed
    assert r.max_residuals["tau"] >= 0.1
    assert r.failures  # captured evidence
    assert all("inputs" in f or f["quantity"] == "oracle" for f in r.failures)


def test_failure_capture_is_bounded():
    r = verify_harmonic(control_morphism(2), 50, SEED)
    assert len(r.failures) <= 10


def _gaussian(text):
    """(Re, Im) as Fractions of an exact value's text: a rational, or (a+bi) or (a-bi)."""
    m = re.fullmatch(r"\((.*)([+-])(.*)i\)", text)
    return (Fraction(text), Fraction(0)) if m is None else (Fraction(m[1]), Fraction(m[2] + m[3]))


def test_exact_suite_failure_detection(monkeypatch):
    """A corrupted identity must be caught by the coefficient comparison, and each failure
    names its coefficient (i, j, k, l) with both sides, whose difference is its value."""
    assert verify_lemma_formula_real(2, 5, SEED).passed
    assert verify_lemma_long(1, 5, SEED).passed
    # drop the last basis element: both sum identities lose a term
    full = harmorph.verify.p_basis_exact
    monkeypatch.setattr(harmorph.verify, "p_basis_exact", lambda space: full(space)[:-1])
    real = verify_lemma_formula_real(2, 5, SEED)
    quat = verify_lemma_long(1, 5, SEED)
    for r, quantity in ((real, "symmetric-family identity"), (quat, "quaternionic sum identity")):
        assert not r.passed and r.failed_trials == {0}
        for f in r.failures:
            assert f["trial"] == 0 and f["quantity"] == quantity
            assert set(f["inputs"]) == {"coefficient", "lhs", "rhs"}
            assert len(f["inputs"]["coefficient"]) == 4
            assert all(0 <= i < 2 for i in f["inputs"]["coefficient"])
            (lre, lim), (rre, rim) = (_gaussian(f["inputs"][side]) for side in ("lhs", "rhs"))
            assert _gaussian(f["value"]) == (lre - rre, lim - rim) != (0, 0)
    # sus-sp at n = 1 has the one element I / sqrt(2): each coefficient of I (x) I fails
    assert [f["inputs"]["coefficient"] for f in quat.failures] == [
        [0, 0, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1]]


def _dense_exact(entries, d, scalar):
    """Exact entries as a d x d object array of scalar(Re, Im)."""
    m = np.full((d, d), scalar(0, 0), dtype=object)
    for i, j, re, im in entries:
        m[i, j] = scalar(re, im)
    return m


def _real(re, im):
    assert im == 0
    return Fraction(re)


def _reference_lemma_formula_real(n, x, y, a, b):
    """(lhs, rhs) of both real identities at Fraction vectors, by quantity, on object
    arrays of Fractions, one dense product per element."""
    from harmorph.spaces import HALF, unit

    sym = [(_dense_exact(m, n, _real), c)
           for m, c in harmorph.verify.p_basis_exact(make_space("slr-so", n))]
    skew = [(_dense_exact(unit(n, k, l, -1), n, _real), HALF)
            for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    x, y, a, b = (np.array(v, dtype=object) for v in (x, y, a, b))
    dot = lambda u, w: sum(u[i] * w[i] for i in range(n))
    return {quantity: (sum(c * (x @ m @ y) * (a @ m @ b) for m, c in family),
                       Fraction(1, 2) * (dot(a, x) * dot(y, b) + sign * dot(y, a) * dot(x, b)))
            for quantity, sign, family in (("symmetric-family identity", 1, sym),
                                           ("antisymmetric-family identity", -1, skew))}


def _reference_lemma_long(n, x, y, a, b):
    """(lhs, rhs) of the quaternionic identity at ComplexRational vectors, on object arrays
    of ComplexRationals."""
    from harmorph.scalars import ComplexRational
    from harmorph.spaces import symplectic_J_entries

    d = 2 * n
    basis = [(_dense_exact(m, d, ComplexRational), c)
             for m, c in harmorph.verify.p_basis_exact(make_space("sus-sp", n))]
    J = _dense_exact(symplectic_J_entries(n), d, ComplexRational)
    herm = lambda u, w: sum(u[i] * w[i].conjugate() for i in range(d))
    omega = lambda u, w: (u @ J) @ w
    x, y, a, b = (np.array(v, dtype=object) for v in (x, y, a, b))
    lhs = ComplexRational(0)
    for m, c in basis:
        lhs = lhs + c * herm(a @ m, b) * herm(x @ m, y)
    rhs = Fraction(1, 2) * (herm(x, b) * herm(y, a).conjugate()
                            + omega(x, a) * omega(y, b).conjugate())
    return {"quaternionic sum identity": (lhs, rhs)}


def _contract(terms, d, denom, u):
    """The sum of value / denom times u[0]_i u[1]_j u[2]_k u[3]_l over the terms, each a
    flat index of (i, j, k, l) and its Gaussian-integer value."""
    from harmorph.scalars import ComplexRational

    total = ComplexRational(0)
    for keys, (re, im) in terms:
        for key, vre, vim in zip(keys.tolist(), re.tolist(), im.tolist()):
            i, j, k, l = np.unravel_index(key, (d,) * 4)
            total = total + (ComplexRational(Fraction(vre, denom), Fraction(vim, denom))
                             * u[0][i] * u[1][j] * u[2][k] * u[3][l])
    return total


def _rescale_middle(basis):
    k = len(basis) // 2
    return basis[:k] + [(basis[k][0], basis[k][1] * Fraction(3, 2))] + basis[k + 1:]


def _flip_entry(basis):
    """The sign of the first entry of the last element flipped; that element has two
    entries or more, so this is not the sign of the whole element, which cancels."""
    (m, c) = basis[-1]
    return basis[:-1] + [(((m[0][0], m[0][1], -m[0][2], -m[0][3]),) + m[1:], c)]


_CORRUPTIONS = {"intact": None, "drop-first": lambda b: b[1:], "drop-last": lambda b: b[:-1],
                "rescale-middle": _rescale_middle, "flip-entry": _flip_entry}
_EXACT_SUITES = {"formula-real": verify_lemma_formula_real, "long": verify_lemma_long}
_EXACT_RANKS = [("formula-real", 2), ("formula-real", 3), ("formula-real", 4), ("long", 1),
                ("long", 2), ("long", 3)]


@pytest.mark.parametrize("corrupt", list(_CORRUPTIONS))
@pytest.mark.parametrize("lemma, n", _EXACT_RANKS)
def test_exact_mutations_fail(monkeypatch, lemma, n, corrupt):
    """Every corruption of the basis FAILs, at every rank, and the intact basis PASSes."""
    if _CORRUPTIONS[corrupt] is not None:
        full = harmorph.verify.p_basis_exact
        monkeypatch.setattr(harmorph.verify, "p_basis_exact",
                            lambda space: _CORRUPTIONS[corrupt](full(space)))
    assert _EXACT_SUITES[lemma](n, 100, SEED).passed is (corrupt == "intact")


def _agrees_with_reference_loop(monkeypatch, lemma, n, corrupt, trial_vectors):
    """The coefficients that the suite compares, contracted with each trial's vectors x, y,
    alpha and beta, give the Fraction and ComplexRational loops' two sides at those
    vectors, and the suite FAILs iff the loops find the sides apart at some vector."""
    from harmorph.scalars import ComplexRational

    if corrupt is not None:
        full = harmorph.verify.p_basis_exact
        monkeypatch.setattr(harmorph.verify, "p_basis_exact", lambda space: corrupt(full(space)))
    compared, prove = {}, harmorph.verify._prove

    def recorded(report, quantity, d, denom, lhs, *rhs):
        compared[quantity] = d, denom, [lhs], rhs
        return prove(report, quantity, d, denom, lhs, *rhs)

    monkeypatch.setattr(harmorph.verify, "_prove", recorded)
    real = lemma == "formula-real"
    report = _EXACT_SUITES[lemma](n, 100, SEED)
    apart = False
    for vectors in trial_vectors:
        if real:
            x, y, a, b = vectors
            sides, u = _reference_lemma_formula_real(n, x, y, a, b), (x, y, a, b)
        else:
            x, y, a, b = ([ComplexRational(re, im) for re, im in v] for v in vectors)
            sides = _reference_lemma_long(n, x, y, a, b)
            u = (a, [v.conjugate() for v in b], x, [v.conjugate() for v in y])
        assert set(sides) == set(compared)
        for quantity, (d, denom, lhs, rhs) in compared.items():
            assert [_contract(terms, d, denom, u) for terms in (lhs, rhs)] == list(sides[quantity])
            apart |= sides[quantity][0] != sides[quantity][1]
    assert report.passed is (corrupt is None)
    assert apart is not report.passed


@pytest.mark.parametrize("corrupt", [None, lambda b: b[1:], lambda b: b[:-1], _rescale_middle],
                         ids=["intact", "drop-first", "drop-last", "rescale"])
@pytest.mark.parametrize("lemma, n", _EXACT_RANKS)
def test_exact_suites_equal_reference_loop(monkeypatch, lemma, n, corrupt):
    """The suite agrees with the exact loops at drawn vectors."""
    from oracles import rng_from_seed

    d, complex_parts = (n, False) if lemma == "formula-real" else (2 * n, True)
    trial_vectors = [exact_trial_fractions(rng_from_seed(SEED, t), d, complex_parts)[0]
                     for t in range(12)]
    _agrees_with_reference_loop(monkeypatch, lemma, n, corrupt, trial_vectors)


_WIDEST = 9 * 2520  # the largest |L v_i| of a draw: v_i = +-9 and L = lcm(1, ..., 9)


def _widest_draws(trials, parts, d):
    """Multiples L v of modulus _WIDEST in every part, L = 2520 (as when a vector draws
    the denominators 5, 7, 8 and 9 beside its +-9/1 entries): trial 0 all +, trial 1 x
    and alpha with the signs (+, +, -) repeated and y and beta all +, the rest random.
    Trial 1 lines up the four terms of the last sus-sp element at n = 3, so that its
    term alone is -16 (2 _WIDEST^2)^2, past -2^63."""
    signs = np.random.default_rng(SEED).choice([-1, 1], (trials, 4, parts, d))
    signs[:2] = 1
    signs[1, [0, 2]] = np.resize([1, 1, -1], d)
    return _WIDEST * signs


@pytest.mark.parametrize("corrupt", [None, lambda b: b[:-1]], ids=["intact", "drop-last"])
@pytest.mark.parametrize("lemma, n", [("formula-real", 5), ("long", 3)])
def test_exact_suites_at_the_widest_draws(monkeypatch, lemma, n, corrupt):
    """At the widest draws, where the products of two forms and their sums at L v pass
    2^63, the suite still agrees with the exact loops: it PASSes with the intact basis
    and FAILs with its last element dropped."""
    real = lemma == "formula-real"
    v = _widest_draws(12, 1 if real else 2, n if real else 2 * n)
    parts = lambda w: [[Fraction(q, 2520) for q in part] for part in w]
    trial_vectors = [[parts(w)[0] if real else list(zip(*parts(w))) for w in t]
                     for t in v.tolist()]
    _agrees_with_reference_loop(monkeypatch, lemma, n, corrupt, trial_vectors)


@pytest.mark.parametrize("suite, n", [(verify_lemma_long, 4), (verify_lemma_long, 5),
                                      (verify_lemma_long, 8), (verify_lemma_long, 12),
                                      (verify_lemma_long, 16),
                                      (verify_lemma_formula_real, 5),
                                      (verify_lemma_formula_real, 6),
                                      (verify_lemma_formula_real, 8),
                                      (verify_lemma_formula_real, 12),
                                      (verify_lemma_formula_real, 16)],
                         ids=lambda v: getattr(v, "__name__", v))
def test_exact_identities_at_higher_ranks(suite, n):
    r = suite(n, 100, SEED)
    assert r.passed and not r.failed_trials


@given(st.integers(), st.integers(), st.integers(min_value=1))
@example(0, 0, 1)
@example(0, -3, 6)
@example(-4, 0, 6)
@example(6, 4, 2)
@example(-9, 12, 3)
def test_exact_text_is_the_text_of_the_complex_rational(re, im, denom):
    """A failing exact gap or input is written from its Gaussian integer and denominator
    as ComplexRational writes the same value."""
    from harmorph.scalars import ComplexRational
    from harmorph.verify import _exact_text

    want = str(ComplexRational(Fraction(re, denom), Fraction(im, denom)))
    assert _exact_text(re, im, denom) == want


def test_purely_imaginary_quaternionic_gap_is_a_failure(monkeypatch):
    """One element (2+i) I at n = 1 with scale^2 1/6 gives (1/2 + 2/3 i) on each
    coefficient of I (x) I: the real parts are the identity's, so the gaps have no real
    part, and they fail."""
    element = (((0, 0, 2, 1), (1, 1, 2, 1)), Fraction(1, 6))
    monkeypatch.setattr(harmorph.verify, "p_basis_exact", lambda space: [element])
    r = verify_lemma_long(1, 1, SEED)
    assert not r.passed
    assert r.failures == [{"trial": 0, "quantity": "quaternionic sum identity",
                           "value": "(0+2/3i)",
                           "inputs": {"coefficient": c, "lhs": "(1/2+2/3i)", "rhs": "1/2"}}
                          for c in ([0, 0, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1])]


def test_real_gap_and_inputs_are_written_in_lowest_terms(monkeypatch):
    """One element E_11 at n = 1 with scale^2 2/3 leaves lhs - rhs = 2/3 - 1 on the one
    coefficient, taken times D = 6 as 4 - 6: the report shows the values in lowest terms,
    not over D."""
    monkeypatch.setattr(harmorph.verify, "p_basis_exact",
                        lambda space: [(((0, 0, 1, 0),), Fraction(2, 3))])
    r = verify_lemma_formula_real(1, 1, SEED)
    assert not r.passed
    assert r.failures == [{"trial": 0, "quantity": "symmetric-family identity",
                           "value": "-1/3",
                           "inputs": {"coefficient": [0, 0, 0, 0], "lhs": "2/3", "rhs": "1"}}]


def test_harmonic_suite_skips_out_of_domain_points():
    """Sampled points always satisfy the morphism's domain predicate."""
    m = dual_real_morphism(2, 1, 2)
    from harmorph.verify import sample_in_domain
    for t in range(5):
        x = sample_in_domain(m, SEED, t)
        assert m.domain(x)


def _zero_denominator_morphism():
    """phi_11 / (phi_12 - phi_12) on slr-so n=2: in domain everywhere, never evaluable."""
    space = make_space("slr-so", 2)
    return Morphism(Entry(1, 1) / (Entry(1, 2) - Entry(1, 2)), space, "zero-denominator",
                    lambda x: space.membership(x, 1e-8), (STABILIZER_RIGHT,))


def test_jet_errors_at_in_domain_points_are_recorded_failures():
    bad = _zero_denominator_morphism()
    for r in (verify_harmonic(bad, 3, SEED), verify_family([real_morphism(2, 1, 2), bad], 3, SEED)):
        assert not r.passed
        assert r.max_residuals == {}
        assert [f["trial"] for f in r.failures] == [0, 1, 2]
        for f in r.failures:
            assert f["quantity"] == "evaluation-error"
            assert "division by zero" in f["value"]
            assert set(f["inputs"]) == {"x"}
        json.loads(r.to_json())
        assert render_report(r).startswith("FAIL")


def test_check_captures_failures_in_trial_check_entry_order(monkeypatch):
    """Failures of several checks come out by trial, then check, then entry; the
    mask leaves entries out of both the verdict and the maximum; every failing trial
    is counted, also past the captured failures."""
    def run():
        r = VerificationReport("s", None, [], 2, 3, 0, 1.0)
        inputs = lambda t: {"t": t}
        r.check("a", [[0.5, 3.0], [2.0, 9.0], [4.0, 0.0]], 1.0, inputs,
                [[True, True], [True, False], [True, True]])
        r.check("errors", np.array([None, "bad", "masked"], dtype=object), None, inputs,
                [True, True, False])
        r.check("b", [5.0, np.nan, 0.5], 1.0, inputs)
        r.check("empty", [0.5, 2.0, 0.5], 1.0, inputs, False)
        return r

    r = run()
    assert [(f["trial"], f["quantity"], f["value"]) for f in r.failures] == [
        (0, "a", [3.0, 0.0]), (0, "b", [5.0, 0.0]), (1, "a", [2.0, 0.0]), (1, "errors", "bad"),
        (1, "b", "nan"), (2, "a", [4.0, 0.0])]
    assert all(f["inputs"] == {"t": f["trial"]} for f in r.failures)
    assert r.max_residuals["a"] == 4.0 and np.isnan(r.max_residuals["b"])
    assert set(r.max_residuals) == {"a", "b"}
    assert r.failed_trials == {0, 1, 2} and not r.passed
    monkeypatch.setattr(harmorph.verify, "MAX_CAPTURED_FAILURES", 4)
    few = run()
    assert few.failures == r.failures[:4] and few.failed_trials == r.failed_trials
    clean = VerificationReport("s", None, [], 2, 3, 0, 1.0)
    clean.check("a", [0.5, 1.0, 0.0], 1.0, None)
    assert clean.passed and clean.failures == [] and clean.max_residuals == {"a": 1.0}


def test_check_streams_blocks_under_their_global_trial_numbers(monkeypatch):
    """Two blocks of trials checked in turn, the second from trial first=3, in either
    order, give the report of one check of all five: the failing trials, each captured
    failure's trial and inputs, and the capture order (trial, check, entry)."""
    a = np.array([[0.5, 3.0], [2.0, 0.0], [0.0, 0.0], [0.5, 7.0], [np.nan, 4.0]])
    b = np.array([0.5, 6.0, 0.5, 8.0, 0.5])
    inputs = lambda t: {"t": t}

    def run(blocks):
        r = VerificationReport("s", None, [], 2, 5, 0, 1.0)
        for t in blocks:
            r.check("a", a[t], 1.0, inputs, first=t.start)
            r.check("b", b[t], 1.0, inputs, first=t.start)
        return r

    one = run([slice(0, 5)])
    assert [(f["trial"], f["quantity"], f["value"]) for f in one.failures] == [
        (0, "a", [3.0, 0.0]), (1, "a", [2.0, 0.0]), (1, "b", [6.0, 0.0]), (3, "a", [7.0, 0.0]),
        (3, "b", [8.0, 0.0]), (4, "a", "nan"), (4, "a", [4.0, 0.0])]
    assert one.failed_trials == {0, 1, 3, 4}
    for blocks in ([slice(0, 3), slice(3, 5)], [slice(3, 5), slice(0, 3)]):
        got = run(blocks)
        assert got.failures == one.failures and got.failed_trials == one.failed_trials
        assert all(f["inputs"] == {"t": f["trial"]} for f in got.failures)
        assert np.isnan(got.max_residuals["a"]) and got.max_residuals["b"] == 8.0
    monkeypatch.setattr(harmorph.verify, "MAX_CAPTURED_FAILURES", 4)
    for blocks in ([slice(0, 3), slice(3, 5)], [slice(3, 5), slice(0, 3)]):
        got = run(blocks)
        assert got.failures == one.failures[:4] and got.failed_trials == one.failed_trials


def _as_family_names(report, label):
    """The report with the family suite's name and quantity names for its one member."""
    names = {"tau": f"tau[{label}]", "kappa": f"kappa[{label}|{label}]"}
    d = _strip_time(report)
    d["suite"] = "family"
    d["max_residuals"] = {names.get(q, q): v for q, v in d["max_residuals"].items()}
    d["failures"] = [{**f, "quantity": names.get(f["quantity"], f["quantity"])}
                     for f in d["failures"]]
    return d


@pytest.mark.parametrize("morphism", [real_morphism(3, 1, 2), dual_real_morphism(3, 1, 2),
                                      typeIV_bigcell_morphism(3, 2, 1), control_morphism(2),
                                      _zero_denominator_morphism()],
                         ids=lambda m: m.label)
def test_harmonic_suite_is_the_one_member_family(morphism):
    single = verify_harmonic(morphism, 20, SEED)
    assert single.suite == "harmonic"
    assert _as_family_names(single, morphism.label) == _strip_time(
        verify_family([morphism], 20, SEED))


def _recorded_checks(monkeypatch) -> dict:
    """From now on, the values each check counts, by quantity: a list per trial, each
    block's trials after the trials of the quantity's earlier blocks."""
    recorded = {}
    check = VerificationReport.check

    def recording(report, quantity, values, tol, inputs, checked=True, first=0):
        v = np.asarray(values)
        mask = np.broadcast_to(checked, v.shape)
        rows = recorded.setdefault(quantity, [])
        assert len(rows) == first
        rows += [row[keep].tolist() for row, keep in
                 zip(v.reshape(len(v), -1), mask.reshape(len(v), -1))]
        return check(report, quantity, values, tol, inputs, checked, first)

    monkeypatch.setattr(VerificationReport, "check", recording)
    return recorded


def _check_one(report, trial, quantity, value, tol, inputs):
    """One residual of one trial, checked as report.check checks each entry."""
    report.max_residuals[quantity] = max(report.max_residuals.get(quantity, 0.0), value)
    if not value <= tol:
        report.record_failure(trial, quantity, value, inputs)


def _reference_lemmas(space, trials, seed, tol, ratio_tol):
    """The derivative lemmas one trial at a time, at the jets of each point as a stack
    of one, with each tau of one base-map entry, each kappa table from the point's own
    Gram products, and psi and its sums pair by pair: the report, and each quantity's
    guarded ratios per trial."""
    from harmorph.jets import JetContext, _gram, eval_jet_cached, jet_sums
    from harmorph.verify import RATIO_GUARD, _ser_mat

    d = space.ambient_dim
    idx = range(1, d + 1)
    c_tau = 2 * (space.n + 1) if space.id == "slr-so" else 4 * space.n - 2
    report = VerificationReport(f"derivative-lemmas:{space.id}", space.id, [], space.n,
                                trials, seed, tol)
    residuals = {}
    _POINTS.clear()  # so that each point is drawn alone, not served from the memo
    for t in range(trials):
        x = sample_group_point(space, seed, index=t)
        ctx = JetContext(space, x[None])
        phi, e, d1 = ctx.phi[0], ctx.entry_jet, ctx.d1
        tau_phi = [jet_sums(e(k, l))[0][0] for k in idx for l in idx]
        sides = {"tau_phi_ratio": zip(tau_phi, (c_tau * phi).ravel())}
        if space.id == "sus-sp":
            pt = phi.T
            expected = 2.0 * pt[:, :, None] * pt[:, None, :]
            kap = _gram(np.swapaxes(d1, -1, -2))[0]  # indexed [l, k, r]
            sides["kappa_phi_phi_shared_col"] = zip(kap.ravel(), expected.ravel())
        else:
            expected = 2.0 * (np.einsum("ki,lj->klij", phi, phi)
                              + np.einsum("kj,li->klij", phi, phi))
            kap = _gram(d1.reshape(len(d1), 1, d * d))[0]  # indexed [(k, l), (i, j)]
            sides["kappa_phi_phi"] = zip(kap.ravel(), expected.ravel())
            sides.update(kappa_psi_psi=[], tau_psi=[], kappa_phi_psi=[])
            for k in idx:
                for l in range(k + 1, d + 1):
                    psi, _ = eval_jet_cached(Sqrt(Entry(k, k) * Entry(l, l) - Entry(k, l) ** 2),
                                             ctx)
                    tau, kap_psi, _ = jet_sums(psi)
                    sides["kappa_psi_psi"].append((kap_psi[0], (2.0 * psi.v ** 2)[0]))
                    sides["tau_psi"].append((tau[0], (2.0 * (d - 1) * psi.v)[0]))
                    kap = _gram(d1[..., k - 1, :], psi.d1)[0]  # indexed [m]
                    sides["kappa_phi_psi"] += [(kap[m - 1], (2.0 * phi[k - 1, m - 1] * psi.v)[0])
                                               for m in idx]
        for q, pairs in sides.items():
            guarded = [float(np.abs(lhs - rhs) / np.abs(rhs)) for lhs, rhs in pairs
                       if not np.abs(rhs) < RATIO_GUARD]
            residuals.setdefault(q, []).append(guarded)
            for r in guarded:
                _check_one(report, t, q, r, ratio_tol if q == "tau_phi_ratio" else tol,
                           {"x": _ser_mat(x)})
    return report, residuals


LEMMA_CASES = [("slr-so", n) for n in (2, 3, 4, 5)] + [("sus-sp", n) for n in (1, 2, 3)]


@pytest.mark.parametrize("sid,n", LEMMA_CASES)
def test_stacked_lemmas_equal_per_trial_loop(sid, n, monkeypatch):
    """The blocks of stacked trials give each relation the guarded ratios of the
    trial-by-trial loop, bit for bit, and the same report."""
    space = make_space(sid, n)
    recorded = _recorded_checks(monkeypatch)
    got = verify_derivative_lemmas(space, 25, SEED)
    ref, residuals = _reference_lemmas(space, 25, SEED, 1e-8, 1e-9)
    assert recorded == residuals
    assert _strip_time(got) == _strip_time(ref)


@pytest.mark.parametrize("captured", [10, 10_000])
def test_lemma_failures_keep_trial_check_entry_order_across_blocks(captured, monkeypatch):
    """At a tolerance nothing meets, every trial of every block of 10 fails several
    relations; the captured failures are the loop's, in its order."""
    monkeypatch.setattr(harmorph.verify, "MAX_CAPTURED_FAILURES", captured)
    monkeypatch.setattr(harmorph.verify, "_BLOCK_ENTRIES", 10 * 3**4)
    space = make_space("slr-so", 3)
    got = verify_derivative_lemmas(space, 25, SEED, 1e-17, 1e-17)
    ref, _ = _reference_lemmas(space, 25, SEED, 1e-17, 1e-17)
    assert got.failed_trials == ref.failed_trials == set(range(25))
    assert _strip_time(got) == _strip_time(ref)
    assert len(got.failures) == min(captured, len(ref.failures))
    if captured > 10:
        assert len({f["quantity"] for f in got.failures if f["trial"] == 24}) > 1


@pytest.mark.parametrize("tol", [1e-8, 1e-17], ids=["pass", "fail"])
@pytest.mark.parametrize("sid, n", [("slr-so", 3), ("sus-sp", 2)])
def test_lemma_blocks_give_the_report_of_one_block(monkeypatch, sid, n, tol):
    """Blocks of 1 and of 7 trials give the report of one block; a trial computes d^4
    entries, and at tol 1e-17 more trials fail than the report captures."""
    space = make_space(sid, n)
    sizes, context = [], harmorph.verify.JetContext

    def recorded(space, x, *args):
        sizes.append(len(x))
        return context(space, x, *args)

    monkeypatch.setattr(harmorph.verify, "JetContext", recorded)
    trials = 30
    want = verify_derivative_lemmas(space, trials, SEED, tol, tol)
    assert sizes == [trials]
    assert want.passed if tol > 1e-17 else len(want.failed_trials) > MAX_CAPTURED_FAILURES
    for size in (1, 7):
        sizes.clear()
        monkeypatch.setattr(harmorph.verify, "_BLOCK_ENTRIES", size * space.ambient_dim ** 4)
        got = verify_derivative_lemmas(space, trials, SEED, tol, tol)
        assert sizes == [size] * (trials // size) + [trials % size] * (trials % size > 0)
        assert _strip_time(got) == _strip_time(want)
        assert got.failed_trials == want.failed_trials


def test_lemma_memory_is_bounded_by_the_block():
    """Each block's relations are checked and dropped: at 3,000 trials of slr-so n=5, the
    traced peak stays near a block's arrays and the drawn points (about 5 MB), where
    holding every block's ratios took over 40 MB."""
    space = make_space("slr-so", 5)
    tracemalloc.start()
    try:
        assert verify_derivative_lemmas(space, 3000, SEED).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_exact_failures_are_the_first_coefficients_in_order(monkeypatch):
    """Doubling every element's scale^2 fails every coefficient of T: the report captures
    the first MAX_CAPTURED_FAILURES by flat index, all of trial 0, and the text report
    prints them without a count of points, which a proof has none of."""
    full = harmorph.verify.p_basis_exact
    monkeypatch.setattr(harmorph.verify, "p_basis_exact",
                        lambda space: [(m, 2 * c) for m, c in full(space)])
    r = verify_lemma_long(2, 100, SEED)
    assert len(r.failures) == MAX_CAPTURED_FAILURES and r.failed_trials == {0}
    keys = [np.ravel_multi_index(f["inputs"]["coefficient"], (4,) * 4) for f in r.failures]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    text = render_report(r)
    assert "exact:" not in text
    assert text.count("    trial 0: quaternionic sum identity = ") == MAX_CAPTURED_FAILURES
    # nor does a float suite print one, even when no trial left a residual
    bad = verify_harmonic(_zero_denominator_morphism(), 3, SEED)
    assert bad.max_residuals == {}
    assert "exact:" not in render_report(bad)


def test_public_names_resolve_once():
    """Every name in harmorph.__all__ is exported, and none is listed twice."""
    import harmorph

    assert len(harmorph.__all__) == len(set(harmorph.__all__))
    for name in harmorph.__all__:
        assert hasattr(harmorph, name), name


def test_benchmark_traced_names_are_verify_globals():
    """perfbench/tracing.py wraps these module globals of harmorph.verify by name."""
    import ast
    from pathlib import Path

    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(source.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(tg, "id", None) for tg in node.targets] == ["VERIFY_GLOBALS"])
    names = ast.literal_eval(value)
    assert names
    for name in names:
        assert callable(getattr(harmorph.verify, name, None)), name


# ---------------------------------------------------------------------------
# the stacked certification against the trial-by-trial loop it replaces
# ---------------------------------------------------------------------------

def _reference_certify(suite, family, trials, seed, tag):
    """The certification loop one trial at a time: the jets at each trial's point
    alone, as a stack of one, and the one-point oracle."""
    from harmorph.jets import (JetContext, eval_jet_cached, fd_jet, jet_sums, kappa_sum,
                               normalized_residual)
    from harmorph.spaces import p_basis
    from harmorph.verify import ORACLE_ABS_TOL, ORACLE_STEP, _ser_mat, sample_in_domain

    space = family[0].space
    tol = default_tolerance(space)
    report = VerificationReport(suite, space.id, [m.label for m in family], space.n,
                                trials, seed, tol)
    basis = p_basis(space)
    _POINTS.clear()  # so that each point is drawn alone, not served from the memo
    for t in range(trials):
        x = sample_in_domain(family, seed, t)
        # the point as a stack of one, whose walk rounds as the suite's stack does
        walks = [eval_jet_cached(m.expr, JetContext(space, x[None], basis)) for m in family]
        error = next((e for _, errors in walks for e in errors if e is not None), None)
        if error is not None:
            report.record_failure(t, "evaluation-error", str(error), {"x": _ser_mat(x)})
            continue
        jets = [j for j, _ in walks]
        energies = []
        for m, jet in zip(family, jets):
            tau, _, energy = (np.broadcast_to(v, 1) for v in jet_sums(jet))
            energies.append(energy)
            _check_one(report, t, f"tau{tag(m)}", float(normalized_residual(tau, energy)[0]),
                       tol, {"x": _ser_mat(x)})
        for a in range(len(family)):
            for b in range(a, len(family)):
                scale = np.maximum(1.0, np.sqrt(energies[a] * energies[b]))
                kappa = np.broadcast_to(kappa_sum(jets[a], jets[b]), 1)
                _check_one(report, t, f"kappa{tag(family[a], family[b])}",
                           float((np.abs(kappa) / scale)[0]), tol, {"x": _ser_mat(x)})
        if t % 10 == 0 and len(basis):
            a = t % len(family)
            zi = t % len(basis)
            d1, d2 = (complex(np.broadcast_to(v, (len(basis), 1))[zi, 0])
                      for v in (jets[a].d1, jets[a].d2))
            fd, errors = fd_jet(family[a].expr, JetContext(space, x[None], basis), [0], [zi],
                                ORACLE_STEP)
            inputs = {"morphism": family[a].label, "x": _ser_mat(x)}
            if errors[0] is not None:
                report.record_failure(t, "oracle-evaluation-error", str(errors[0]), inputs)
                continue
            scale = max(1.0, abs(complex(np.ravel(jets[a].v)[0])) + abs(d1) + abs(d2))
            err = (abs(d1 - complex(fd.d1[0])) + abs(d2 - complex(fd.d2[0]))) / scale
            _check_one(report, t, "oracle", err, ORACLE_ABS_TOL, inputs)
    return report


def _slr2(expr, label):
    space = make_space("slr-so", 2)
    return Morphism(expr, space, label, lambda x: space.membership(x, 1e-8), (STABILIZER_RIGHT,))


# phi_12 / (sqrt(phi_12^2) - phi_12) divides by exactly 0 where phi_12 > 0, and
# sqrt(phi_11 - 1) lies on the branch cut where phi_11 < 1: stacks in which some
# trials raise EvaluationError, some BranchCutError and the rest evaluate.
DIVIDES_BY_ZERO = _slr2(Entry(1, 2) / (Sqrt(Entry(1, 2) * Entry(1, 2)) - Entry(1, 2)),
                        "zero-where-phi12-positive")
ON_THE_CUT = _slr2(Sqrt(Entry(1, 1) - 1.0), "cut-where-phi11-below-1")

CERTIFY_CASES = [
    ("harmonic", [real_morphism(3, 1, 2)]), ("harmonic", [dual_real_morphism(3, 1, 2)]),
    ("harmonic", [typeIV_bigcell_morphism(3, 2, 1)]), ("harmonic", [control_morphism(2)]),
    ("harmonic", [DIVIDES_BY_ZERO]), ("harmonic", [ON_THE_CUT]),
    ("harmonic", [_slr2(Entry(1, 1) / (Entry(1, 2) - Entry(1, 2)), "zero-everywhere")]),
    # two errors in one walk where phi_11 < 1: the square root's comes first
    ("harmonic", [_slr2(Sqrt(Entry(1, 1) - 1.0) / (Entry(1, 2) - Entry(1, 2)), "cut-then-zero")]),
    ("harmonic", [_slr2(Const(2.0) * Const(1.5), "constant")]),
    ("family", quat_family(2, 1)), ("family", dual_quat_family(1, 1)),
    ("family", dual_quat_family(2, 1)), ("family", [DIVIDES_BY_ZERO, ON_THE_CUT]),
    ("family", [ON_THE_CUT, real_morphism(2, 1, 2), _slr2(Const(3.0), "constant")]),
]


@pytest.mark.parametrize("suite,family", CERTIFY_CASES,
                         ids=lambda c: c if isinstance(c, str) else c[0].label)
def test_certification_equals_reference_loop(suite, family, monkeypatch):
    """Same verdict, failures and failing trials as trial by trial, and every
    residual and failure value the same number."""
    monkeypatch.setattr(harmorph.verify, "MAX_CAPTURED_FAILURES", 10_000)  # compare them all
    for seed in (SEED, 11):
        if suite == "harmonic":
            got = verify_harmonic(family[0], 30, seed)
            ref = _reference_certify(suite, family, 30, seed, lambda *members: "")
        else:
            got = verify_family(family, 30, seed)
            ref = _reference_certify(suite, family, 30, seed,
                                     lambda *ms: f"[{'|'.join(m.label for m in ms)}]")
        assert got.passed == ref.passed
        assert got.failed_trials == ref.failed_trials
        assert got.max_residuals == ref.max_residuals
        assert got.failures == ref.failures


@pytest.mark.parametrize("step", [0.5, 1.0])
def test_failed_oracle_stencil_is_recorded_as_reference_loop(step, monkeypatch):
    """A step this long carries some oracle stencils across the cut while their
    centers evaluate: the suite records each such stencil's error as a failure of
    its trial, as the trial-by-trial loop does, and raises nothing."""
    monkeypatch.setattr(harmorph.verify, "ORACLE_STEP", step)
    monkeypatch.setattr(harmorph.verify, "MAX_CAPTURED_FAILURES", 10_000)
    stencil_errors = 0
    for seed in (SEED, 11):
        got = verify_harmonic(ON_THE_CUT, 30, seed)
        ref = _reference_certify("harmonic", [ON_THE_CUT], 30, seed, lambda *members: "")
        assert got.failed_trials == ref.failed_trials
        assert got.max_residuals.get("oracle") == ref.max_residuals.get("oracle")
        assert ([(f["trial"], f["quantity"], f.get("inputs")) for f in got.failures]
                == [(f["trial"], f["quantity"], f.get("inputs")) for f in ref.failures])
        oracle = [f for f in got.failures if f["quantity"].startswith("oracle")]
        assert oracle == [f for f in ref.failures if f["quantity"].startswith("oracle")]
        stencil_errors += sum(f["quantity"] == "oracle-evaluation-error" for f in oracle)
    assert stencil_errors


def test_error_stacks_mix_failing_and_evaluated_trials():
    """At the points of the cases above some trials fail each way and the rest evaluate."""
    from harmorph.jets import JetContext, eval_jet_cached
    from harmorph.verify import sample_in_domain

    kinds = set()
    for t in range(30):
        x = sample_in_domain([DIVIDES_BY_ZERO, ON_THE_CUT], SEED, t)
        errors = [eval_jet_cached(m.expr, JetContext(m.space, x[None]))[1][0]
                  for m in (DIVIDES_BY_ZERO, ON_THE_CUT)]
        first = next((e for e in errors if e is not None), None)
        kinds.add("evaluated" if first is None else type(first).__name__)
    assert kinds == {"evaluated", "EvaluationError", "BranchCutError"}


@pytest.mark.parametrize("seed", [1, 11, SEED])
def test_basis_independence_compares_the_certified_jets(seed, monkeypatch):
    """The stock-basis tau, kappa and energy that the basis-independence suite
    compares are, bit for bit, those the certification computes at the same points."""
    from harmorph.jets import jet_sums

    calls = []
    walk = harmorph.verify.eval_jet_cached

    def recording(f, ctx):
        out = walk(f, ctx)
        calls.append((ctx, out[0]))
        return out

    monkeypatch.setattr(harmorph.verify, "eval_jet_cached", recording)
    m = dual_real_morphism(3, 1, 2)
    verify_harmonic(m, 10, seed)
    (certified_ctx, certified), = calls
    calls.clear()
    verify_basis_independence(m, 10, seed)
    stock_ctx, stock = calls[0]
    assert stock_ctx.basis is certified_ctx.basis
    assert np.array_equal(stock_ctx.x, certified_ctx.x)
    for a, b in zip(jet_sums(stock), jet_sums(certified)):
        assert a.shape == (10,) and np.array_equal(a, b)


@pytest.mark.parametrize("m", [DIVIDES_BY_ZERO, ON_THE_CUT], ids=lambda m: m.label)
def test_basis_independence_and_invariance_record_jet_errors(m):
    """A point whose jet or value cannot be evaluated is a failure of its trial."""
    for suite in (verify_basis_independence, verify_invariance):
        r = suite(m, 20, SEED)
        assert not r.passed
        assert {f["quantity"] for f in r.failures} == {"evaluation-error"}
        assert 0 < len(r.failed_trials) < 20


def test_basis_independence_walks_each_trial_along_its_drawn_rotation(monkeypatch):
    """Each trial's rotated walk goes along the stock basis mixed by the orthogonal
    factor of its draw rng_from_seed(seed, trial, 11).uniform(-1, 1, (m, m)), built
    here by Givens rotations, not by jets.rotated_basis: a suite that compared the
    stock basis with itself would fail here."""
    from harmorph.spaces import p_basis
    from oracles import random_rotation, rng_from_seed

    walk, bases = harmorph.verify.eval_jet_cached, []

    def recording(f, ctx):
        bases.append(ctx.basis)
        return walk(f, ctx)

    monkeypatch.setattr(harmorph.verify, "eval_jet_cached", recording)
    m = real_morphism(3, 1, 2)
    assert verify_basis_independence(m, 10, SEED).passed
    stock = p_basis(m.space)
    assert len(bases) == 11 and bases[0] is stock
    for t, basis in enumerate(bases[1:]):
        want = random_rotation(stock, rng_from_seed(SEED, t, 11))
        assert np.max(np.abs(basis - want)) <= 1e-12
        assert np.max(np.abs(basis - stock)) > 0.1


def test_basis_independence_records_an_error_of_a_rotated_walk(monkeypatch):
    """An error that only a trial's rotated walk has is a failure of that trial, and a
    trial with errors in both walks records its stock walk's: the suite merges the
    records in that order with jets._first_errors."""
    from harmorph.jets import EvaluationError

    walk, rotated_walks = harmorph.verify.eval_jet_cached, []

    def failing_walks(f, ctx):
        jet, errors = walk(f, ctx)
        if len(ctx.x) > 1:  # the stock walk of every trial
            errors[5] = EvaluationError("stock walk of trial 5")
        else:  # a trial's point alone along its rotated basis
            rotated_walks.append(ctx)
            if len(rotated_walks) in (4, 6):
                errors[0] = EvaluationError(f"rotated walk of trial {len(rotated_walks) - 1}")
        return jet, errors

    monkeypatch.setattr(harmorph.verify, "eval_jet_cached", failing_walks)
    r = verify_basis_independence(real_morphism(3, 1, 2), 10, SEED)
    assert len(rotated_walks) == 10 and r.failed_trials == {3, 5}
    assert [(f["trial"], f["quantity"], f["value"]) for f in r.failures] == [
        (3, "evaluation-error", "rotated walk of trial 3"),
        (5, "evaluation-error", "stock walk of trial 5")]


def _reference_invariance(morphism, trials, seed, tol):
    """The invariance suite one trial at a time, by eval_value and eval_jet."""
    from harmorph.jets import BranchCutError, EvaluationError, eval_jet
    from harmorph.morphisms import POSITIVE_SCALE
    from harmorph.sampling import sample_stabilizer_point
    from harmorph.spaces import stabilizer_algebra
    from harmorph.verify import _ser_mat, sample_in_domain
    from oracles import eval_value, rng_from_seed

    space = morphism.space
    report = VerificationReport("invariance", space.id, [morphism.label], space.n,
                                trials, seed, tol)
    k_gens = stabilizer_algebra(space)
    scaled = POSITIVE_SCALE in morphism.invariances
    _POINTS.clear()  # so that each point is drawn alone, not served from the memo
    for t in range(trials):
        x = sample_in_domain(morphism, seed, t)
        k = sample_stabilizer_point(space, seed, index=t)
        inputs = {"x": _ser_mat(x)}
        try:
            fx = eval_value(morphism.expr, space, x)
            fxk = eval_value(morphism.expr, space, x @ k)
            if scaled:
                frx = eval_value(morphism.expr, space,
                                 rng_from_seed(seed, t, 7).uniform(0.5, 2.0) * x)
            j = eval_jet(morphism.expr, space, x, k_gens[t % len(k_gens)])
        except (EvaluationError, BranchCutError) as exc:
            report.record_failure(t, "evaluation-error", str(exc), inputs)
            continue
        _check_one(report, t, "stabilizer-right", abs(fxk - fx), tol,
                   {"x": _ser_mat(x), "k": _ser_mat(k)})
        if scaled:
            _check_one(report, t, "positive-scale", abs(frx - fx), tol, inputs)
        _check_one(report, t, "stabilizer-jet", abs(j.d1), tol, inputs)
    return report


INVARIANCE_CASES = [real_morphism(3, 1, 2), quat_family(2, 1)[0], typeIV_bigcell_morphism(3, 2, 1),
                    dual_real_morphism(3, 1, 2), dual_quat_family(2, 1)[0], DIVIDES_BY_ZERO,
                    ON_THE_CUT]


@pytest.mark.parametrize("m", INVARIANCE_CASES, ids=lambda m: m.label)
@pytest.mark.parametrize("tol", [1e-9, 1e-16])
def test_stacked_invariance_equals_per_trial_loop(m, tol, monkeypatch):
    """One value walk over x, x k and r x and one jet walk along the stabilizer algebra
    give the report of eval_value and eval_jet trial by trial: the same residuals,
    errors and failures, bit for bit."""
    monkeypatch.setattr(harmorph.verify, "MAX_CAPTURED_FAILURES", 10_000)
    got = verify_invariance(m, 20, SEED, tol)
    ref = _reference_invariance(m, 20, SEED, tol)
    assert got.failed_trials == ref.failed_trials
    assert _strip_time(got) == _strip_time(ref)


# ---------------------------------------------------------------------------
# the held stack: suites on the same points share their base-map work
# ---------------------------------------------------------------------------

def _clear_memos():
    """Forget the memoized points and the held context, with the stencils it keeps."""
    _POINTS.clear()
    harmorph.verify._held = None


def _count_contexts(monkeypatch):
    """The contexts harmorph.verify builds from now on, in a list."""
    built, context = [], harmorph.verify.JetContext

    def counted(*args):
        built.append(context(*args))
        return built[-1]

    monkeypatch.setattr(harmorph.verify, "JetContext", counted)
    return built


def test_shared_base_map_work_gives_the_reports_of_fresh_calls():
    """float-certify's kinds of calls on shared points (every slr-so n=3 pair, the sus-sp
    n=2 families) and on points of their own (the phi_11 control), in order and then
    shuffled, give the reports of the same calls with every memo cleared before each."""
    import random
    from functools import partial

    calls = [partial(verify_harmonic, real_morphism(3, k, l), 100, SEED)
             for k in range(1, 4) for l in range(1, 4) if k != l]
    calls += [partial(verify_family, quat_family(2, l), 100, SEED) for l in (1, 2)]
    calls.append(partial(verify_harmonic, control_morphism(2), 100, SEED))
    want = []
    for call in calls:
        _clear_memos()
        want.append(_strip_time(call()))
    order = list(range(len(calls)))
    random.Random(SEED).shuffle(order)
    for i in list(range(len(calls))) + order:
        assert _strip_time(calls[i]()) == want[i]


def test_the_held_stack_misses_on_other_points(monkeypatch):
    """Another map on the same points reuses the held context; another seed, trial
    count, space or domain (so another stack of points) builds a new one."""
    _clear_memos()
    built = _count_contexts(monkeypatch)
    verify_harmonic(real_morphism(3, 1, 2), 20, SEED)
    verify_harmonic(real_morphism(3, 2, 1), 20, SEED)
    assert len(built) == 1
    for call in (lambda: verify_harmonic(real_morphism(3, 1, 2), 20, SEED + 1),  # seed
                 lambda: verify_harmonic(real_morphism(3, 1, 2), 21, SEED + 1),  # trials
                 lambda: verify_harmonic(real_morphism(4, 1, 2), 21, SEED + 1),  # space
                 lambda: verify_harmonic(real_morphism(2, 1, 2), 21, SEED + 1),
                 lambda: verify_harmonic(control_morphism(2), 21, SEED + 1)):  # domain
        before = len(built)
        call()
        assert len(built) == before + 1
        assert harmorph.verify._held is built[-1]


def test_held_arrays_are_read_only():
    _clear_memos()
    verify_harmonic(real_morphism(3, 1, 2), 20, SEED)
    ctx = harmorph.verify._held
    jet = ctx.entry_jet(1, 2)
    [stencil] = ctx._stencils.values()
    for a in (ctx.x, ctx.phi, ctx.d1, ctx.d2, jet.v, jet.d1, jet.d2, stencil):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0


def test_only_one_stack_is_held(monkeypatch):
    """After calls on several stacks, only the last one's context is alive, and the
    oracle stencils of the others went with their contexts."""
    import gc
    import weakref

    _clear_memos()
    built = _count_contexts(monkeypatch)
    for call in (lambda: verify_harmonic(real_morphism(3, 1, 2), 20, SEED),
                 lambda: verify_family(quat_family(3, 1), 20, SEED),
                 lambda: verify_family(quat_family(3, 2), 20, SEED),
                 lambda: verify_harmonic(real_morphism(4, 1, 2), 20, SEED)):
        call()
    alive = [weakref.ref(ctx) for ctx in built]
    stencils = [weakref.ref(s) for ctx in built for s in ctx._stencils.values()]
    assert all(ctx._stencils for ctx in built)
    built.clear()
    gc.collect()
    assert [r() for r in alive if r() is not None] == [harmorph.verify._held]
    assert len(alive) == 3
    assert ([id(r()) for r in stencils if r() is not None]
            == [id(s) for s in harmorph.verify._held._stencils.values()])


def _count_exponentials(monkeypatch):
    """The stencil exponentials fd_jet takes from now on, in a list."""
    exps, normal_exp = [], harmorph.jets.normal_exp

    def counted(*args):
        exps.append(args)
        return normal_exp(*args)

    monkeypatch.setattr(harmorph.jets, "normal_exp", counted)
    return exps


def test_maps_of_one_space_build_its_base_map_work_once(monkeypatch):
    """The 20 slr-so n=5 pairs at one seed build one JetContext and take one stencil
    exponential between them: the base-map work of a stack of points is not redone
    per map."""
    _clear_memos()
    built = _count_contexts(monkeypatch)
    exps = _count_exponentials(monkeypatch)
    for k in range(1, 6):
        for l in range(1, 6):
            if k != l:
                assert verify_harmonic(real_morphism(5, k, l), 100, 7).passed
    assert len(built) == 1 and len(exps) == 1


def test_families_on_one_stack_share_a_stencil_per_member(monkeypatch):
    """The two sus-sp n=2 quaternionic families at one seed build one JetContext and
    take one stencil exponential per member between them: member a of each family is
    checked at the same trials along the same directions, so the second family reuses
    the first one's stencils from the held context."""
    _clear_memos()
    built = _count_contexts(monkeypatch)
    exps = _count_exponentials(monkeypatch)
    for l in (1, 2):
        assert verify_family(quat_family(2, l), 100, 7).passed
    assert len(quat_family(2, 1)) == 3
    assert len(built) == 1 and len(exps) == 3
    assert len(built[0]._stencils) == 3


def test_another_oracle_step_takes_new_stencils_on_the_held_stack(monkeypatch):
    """A patched ORACLE_STEP on the held stack gives the report of a fresh call: the
    stencils the context keeps are keyed by the step as well as by the trials."""
    _clear_memos()
    default = _strip_time(verify_harmonic(ON_THE_CUT, 30, SEED))
    monkeypatch.setattr(harmorph.verify, "ORACLE_STEP", 0.5)
    warm = _strip_time(verify_harmonic(ON_THE_CUT, 30, SEED))
    _clear_memos()
    assert _strip_time(verify_harmonic(ON_THE_CUT, 30, SEED)) == warm != default
