"""Verification suites: green paths, report contract, determinism, sensitivity."""

import json
from fractions import Fraction

import numpy as np
import pytest

import harmorph.verify
from harmorph.jets import Entry
from harmorph.morphisms import (STABILIZER_RIGHT, Morphism, control_morphism,
                                dual_quat_family, dual_real_morphism, quat_family,
                                real_morphism, typeIV_bigcell_morphism)
from harmorph.spaces import make_space
from harmorph.verify import (SCHEMA_VERSION, VerificationReport, default_tolerance,
                             render_report, verify_basis_independence, verify_bigcell,
                             verify_derivative_lemmas, verify_family,
                             verify_harmonic, verify_invariance,
                             verify_lemma_formula_real, verify_lemma_long)

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
    assert verify_derivative_lemmas(make_space("sus-sp", 2), TRIALS, SEED).passed
    with pytest.raises(ValueError):
        verify_derivative_lemmas(make_space("su-so", 3), TRIALS, SEED)


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


def test_invariance_suite():
    r = verify_invariance(real_morphism(2, 1, 2), 5, SEED)
    assert r.passed
    assert {"stabilizer-right", "positive-scale", "stabilizer-jet"} <= set(r.max_residuals)


def test_basis_independence_suite():
    m = typeIV_bigcell_morphism(2, 2, 1)
    assert verify_basis_independence(m.space, m, 5, SEED).passed


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


def test_render_text_report():
    r = verify_harmonic(real_morphism(2, 1, 2), 3, SEED)
    text = render_report(r, "text")
    assert text.startswith("PASS")
    assert "seed" in text
    with pytest.raises(ValueError):
        render_report(r, "yaml")


def test_sensitivity_control_fails_with_large_residual():
    r = verify_harmonic(control_morphism(2), TRIALS, SEED)
    assert not r.passed
    assert r.max_residuals["tau"] >= 0.1
    assert r.failures  # captured evidence
    assert all("inputs" in f or f["quantity"] == "oracle" for f in r.failures)


def test_failure_capture_is_bounded():
    r = verify_harmonic(control_morphism(2), 50, SEED)
    assert len(r.failures) <= 10


def test_exact_suite_failure_detection(monkeypatch):
    """A corrupted identity must be caught by the exact comparison."""
    assert verify_lemma_formula_real(2, 5, SEED).passed
    assert verify_lemma_long(1, 5, SEED).passed
    # drop the last basis element: both sum identities lose a term
    full = harmorph.verify.p_basis_exact
    monkeypatch.setattr(harmorph.verify, "p_basis_exact", lambda space: full(space)[:-1])
    real = verify_lemma_formula_real(2, 5, SEED)
    assert not real.passed
    assert {f["quantity"] for f in real.failures} == {"symmetric-family identity"}
    for f in real.failures:
        Fraction(f["value"])
        assert set(f["inputs"]) == {"x", "y", "alpha", "beta"}
        for vec in f["inputs"].values():
            for v in vec:
                Fraction(v)  # serialized as an exact rational, not a float pair
    quat = verify_lemma_long(1, 5, SEED)
    assert not quat.passed and len(quat.failures) == 5
    for f in quat.failures:
        assert f["quantity"] == "quaternionic sum identity"
        assert all(isinstance(v, str) for vec in f["inputs"].values() for v in vec)


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


def test_check_all_equals_check_in_order():
    residuals = np.array([0.5, 3.0, 0.0, 2.0])
    one, many = (VerificationReport("s", None, [], 2, 1, 0, 1.0) for _ in range(2))
    for r in residuals:
        one.check(4, "q", float(r), 1.0, {"x": 1})
    many.check_all(4, "q", residuals, 1.0, {"x": 1})
    many.check_all(4, "empty", residuals[:0], 1.0)
    assert one.to_dict() == many.to_dict()
    assert [f["value"] for f in many.failures] == [[3.0, 0.0], [2.0, 0.0]]
