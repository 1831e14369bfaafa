"""Verification suites: green paths, report contract, determinism, sensitivity."""

import json
from fractions import Fraction

import numpy as np
import pytest

import harmorph.verify
from harmorph.jets import Const, Entry, Sqrt
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
    assert verify_derivative_lemmas(make_space("slr-so", 1), TRIALS, SEED).passed  # no psi pairs
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
    r.check(0, "tau", float("nan"), 1e-8)
    r.check_all(1, "kappa", np.array([0.0, np.nan]), 1e-8)
    r.check(2, "oracle", float("inf"), 1e-8)
    assert not r.passed and r.failed_trials == {0, 1, 2}
    d = json.loads(json.dumps(r.to_dict(), allow_nan=False))
    assert [f["value"] for f in d["failures"]] == ["nan", "nan", "inf"]
    assert d["max_residuals"] == {"kappa": 0.0, "oracle": "inf", "tau": 0.0}


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


def _dense_exact(entries, d, scalar):
    """Exact entries as a d x d object array of scalar(Re, Im)."""
    m = np.full((d, d), scalar(0, 0), dtype=object)
    for i, j, re, im in entries:
        m[i, j] = scalar(re, im)
    return m


def _real(re, im):
    assert im == 0
    return Fraction(re)


def _reference_lemma_formula_real(n, trials, seed):
    """Both real identities on object arrays of Fractions, one dense product per element."""
    from harmorph.sampling import rational_vector, rng_from_seed
    from harmorph.spaces import HALF, unit
    from harmorph.verify import _ser_vec

    report = VerificationReport("lemma-formula-real", None, [], n, trials, seed, None)
    sym = [(_dense_exact(m, n, _real), c)
           for m, c in harmorph.verify.p_basis_exact(make_space("slr-so", n))]
    skew = [(_dense_exact(unit(n, k, l, -1), n, _real), HALF)
            for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    for t in range(trials):
        rng = rng_from_seed(seed, t)
        x, y, a, b = (np.array(rational_vector(rng, n), dtype=object) for _ in range(4))
        dot = lambda u, w: sum(u[i] * w[i] for i in range(n))
        lhs_sym = sum(c * (x @ m @ y) * (a @ m @ b) for m, c in sym)
        rhs_sym = Fraction(1, 2) * (dot(a, x) * dot(y, b) + dot(y, a) * dot(x, b))
        lhs_skew = sum(c * (x @ m @ y) * (a @ m @ b) for m, c in skew)
        rhs_skew = Fraction(1, 2) * (dot(a, x) * dot(y, b) - dot(y, a) * dot(x, b))
        inputs = {"x": _ser_vec(x), "y": _ser_vec(y), "alpha": _ser_vec(a), "beta": _ser_vec(b)}
        if lhs_sym != rhs_sym:
            report.record_failure(t, "symmetric-family identity", lhs_sym - rhs_sym, inputs)
        if lhs_skew != rhs_skew:
            report.record_failure(t, "antisymmetric-family identity", lhs_skew - rhs_skew, inputs)
    return report


def _reference_lemma_long(n, trials, seed):
    """The quaternionic identity on object arrays of ComplexRationals."""
    from harmorph.sampling import complex_rational_vector, rng_from_seed
    from harmorph.scalars import ComplexRational
    from harmorph.spaces import symplectic_J_entries
    from harmorph.verify import _ser_vec

    report = VerificationReport("lemma-long", None, [], n, trials, seed, None)
    d = 2 * n
    basis = [(_dense_exact(m, d, ComplexRational), c)
             for m, c in harmorph.verify.p_basis_exact(make_space("sus-sp", n))]
    J = _dense_exact(symplectic_J_entries(n), d, ComplexRational)
    herm = lambda u, w: sum(u[i] * w[i].conjugate() for i in range(d))
    omega = lambda u, w: (u @ J) @ w
    for t in range(trials):
        rng = rng_from_seed(seed, t)
        x, y, a, b = (np.array(complex_rational_vector(rng, d), dtype=object) for _ in range(4))
        lhs = ComplexRational(0)
        for m, c in basis:
            lhs = lhs + c * herm(a @ m, b) * herm(x @ m, y)
        rhs = Fraction(1, 2) * (herm(x, b) * herm(y, a).conjugate()
                                + omega(x, a) * omega(y, b).conjugate())
        if lhs != rhs:
            inputs = {"x": _ser_vec(x), "y": _ser_vec(y), "alpha": _ser_vec(a), "beta": _ser_vec(b)}
            report.record_failure(t, "quaternionic sum identity", lhs - rhs, inputs)
    return report


def _rescale_middle(basis):
    k = len(basis) // 2
    return basis[:k] + [(basis[k][0], basis[k][1] * Fraction(3, 2))] + basis[k + 1:]


@pytest.mark.parametrize("corrupt", [None, lambda b: b[1:], lambda b: b[:-1], _rescale_middle],
                         ids=["intact", "drop-first", "drop-last", "rescale"])
@pytest.mark.parametrize("lemma, n", [("formula-real", 2), ("formula-real", 3),
                                      ("formula-real", 4), ("long", 1), ("long", 2),
                                      ("long", 3)])
def test_exact_suites_equal_reference_loop(monkeypatch, lemma, n, corrupt):
    """The integer kernel gives the object-array computation's reports, failures included."""
    suite, reference = {"formula-real": (verify_lemma_formula_real, _reference_lemma_formula_real),
                        "long": (verify_lemma_long, _reference_lemma_long)}[lemma]
    if corrupt is not None:
        full = harmorph.verify.p_basis_exact
        monkeypatch.setattr(harmorph.verify, "p_basis_exact", lambda space: corrupt(full(space)))
    # more than MAX_CAPTURED_FAILURES trials, except where the reference is slow
    trials = 4 if (lemma, n) == ("long", 3) else 12
    for seed in (SEED, 5):
        got, want = suite(n, trials, seed), reference(n, trials, seed)
        assert _strip_time(got) == _strip_time(want)
        assert got.failed_trials == want.failed_trials


@pytest.mark.parametrize("suite, n", [(verify_lemma_long, 4), (verify_lemma_long, 5),
                                      (verify_lemma_formula_real, 5),
                                      (verify_lemma_formula_real, 6)],
                         ids=lambda v: getattr(v, "__name__", v))
def test_exact_identities_at_higher_ranks(suite, n):
    r = suite(n, 100, SEED)
    assert r.passed and not r.failed_trials


def test_purely_imaginary_quaternionic_gap_is_a_failure(monkeypatch):
    """With the one element of n = 1 dropped, x = y = alpha = (1, 0) and beta = (i, 0)
    leave lhs - rhs = 0 - (-i/2), a gap with no real part."""
    from harmorph.scalars import ComplexRational

    one, i, zero = ComplexRational(1), ComplexRational(0, 1), ComplexRational(0)
    draws = iter([[one, zero], [one, zero], [one, zero], [i, zero]])
    monkeypatch.setattr(harmorph.verify, "complex_rational_vector", lambda rng, d: next(draws))
    monkeypatch.setattr(harmorph.verify, "p_basis_exact", lambda space: [])
    r = verify_lemma_long(1, 1, SEED)
    assert not r.passed
    assert r.failures == [{"trial": 0, "quantity": "quaternionic sum identity",
                           "value": "(0+1/2i)",
                           "inputs": {"x": ["1", "0"], "y": ["1", "0"], "alpha": ["1", "0"],
                                      "beta": ["(0+1i)", "0"]}}]


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


class _RecordingReport(VerificationReport):
    """Keeps every residual array passed to check_all, per quantity."""

    def __init__(self):
        super().__init__("s", None, [], 0, 1, 0, 1.0)
        self.residuals = {}

    def check_all(self, trial, quantity, residuals, tol, inputs=None):
        self.residuals.setdefault(quantity, []).extend(residuals.tolist())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_psi_residuals_equal_reference_loop(n):
    """The stacked psi relations give the guarded ratios of a plain per-pair loop, bit for bit."""
    from harmorph.jets import JetContext, Sqrt, eval_jet_cached, jet_sums, kappa_sum
    from harmorph.sampling import sample_group_point
    from harmorph.verify import RATIO_GUARD, _check_psi_relations

    def guarded(lhs, rhs):
        return [] if abs(rhs) < RATIO_GUARD else [abs(lhs - rhs) / abs(rhs)]

    space = make_space("slr-so", n)
    for t in range(5):
        x = sample_group_point(space, SEED, index=t)
        ctx = JetContext(space, x)
        ref = {"kappa_psi_psi": [], "tau_psi": [], "kappa_phi_psi": []}
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                jet, _ = eval_jet_cached(Sqrt(Entry(k, k) * Entry(l, l) - Entry(k, l) ** 2), ctx)
                tau, kap, _ = jet_sums(jet)
                ref["kappa_psi_psi"] += guarded(kap, 2.0 * jet.v ** 2)
                ref["tau_psi"] += guarded(tau, 2.0 * (n - 1) * jet.v)
                for m in range(1, n + 1):
                    ref["kappa_phi_psi"] += guarded(kappa_sum(ctx.entry_jet(k, m), jet),
                                                    2.0 * ctx.phi[k - 1, m - 1] * jet.v)
        report = _RecordingReport()
        _check_psi_relations(report, space, ctx, t, x, 1e-8)
        assert report.residuals == ref


def test_exact_line_counts_every_failing_trial(monkeypatch):
    full = harmorph.verify.p_basis_exact
    monkeypatch.setattr(harmorph.verify, "p_basis_exact", lambda space: full(space)[:-1])
    r = verify_lemma_formula_real(2, 100, SEED)
    # 97 trials fail (at 3 the dropped term vanishes), but only 10 failures are captured
    assert len(r.failures) == 10 and len(r.failed_trials) == 97
    assert "  exact: 3/100" in render_report(r).splitlines()
    # a float suite prints no exact line, even when no trial left a residual
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
    from harmorph.jets import (Jet2, JetContext, eval_jet_cached, fd_jet, jet_sums, kappa_sum,
                               normalized_residual)
    from harmorph.spaces import p_basis
    from harmorph.verify import (ORACLE_ABS_TOL, ORACLE_STEP, _inputs, _ser_mat,
                                 sample_in_domain)

    space = family[0].space
    tol = default_tolerance(space)
    report = VerificationReport(suite, space.id, [m.label for m in family], space.n,
                                trials, seed, tol)
    basis = p_basis(space)
    for t in range(trials):
        x = sample_in_domain(family, seed, t)
        # the point as a stack of one, whose walk rounds as the suite's stack does
        walks = [eval_jet_cached(m.expr, JetContext(space, x[None], basis)) for m in family]
        error = next((e for _, errors in walks for e in errors if e is not None), None)
        if error is not None:
            report.record_failure(t, "evaluation-error", str(error), _inputs(x=x))
            continue
        jets = [Jet2(*(a[..., 0] if np.ndim(a) else a for a in (j.v, j.d1, j.d2)))
                for j, _ in walks]
        energies = []
        for m, jet in zip(family, jets):
            tau, _, energy = jet_sums(jet)
            energies.append(float(energy))
            report.check(t, f"tau{tag(m)}", float(normalized_residual(tau, energy)), tol,
                         _inputs(x=x))
        for a in range(len(family)):
            for b in range(a, len(family)):
                scale = max(1.0, (energies[a] * energies[b]) ** 0.5)
                report.check(t, f"kappa{tag(family[a], family[b])}",
                             abs(complex(kappa_sum(jets[a], jets[b]))) / scale, tol, _inputs(x=x))
        if t % 10 == 0 and len(basis):
            a = t % len(family)
            zi = t % len(basis)
            d1, d2 = (complex(np.broadcast_to(v, len(basis))[zi]) for v in (jets[a].d1, jets[a].d2))
            errors = np.full(1, None, dtype=object)
            fd = fd_jet(family[a].expr, space, x[None], basis.stack[zi:zi + 1], ORACLE_STEP,
                        errors)
            inputs = {"morphism": family[a].label, "x": _ser_mat(x)}
            if errors[0] is not None:
                report.record_failure(t, "oracle-evaluation-error", str(errors[0]), inputs)
                continue
            scale = max(1.0, abs(complex(jets[a].v)) + abs(d1) + abs(d2))
            err = (abs(d1 - complex(fd.d1[0])) + abs(d2 - complex(fd.d2[0]))) / scale
            report.check(t, "oracle", err, ORACLE_ABS_TOL, inputs)
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
    """Same verdict, quantities, failures and failing trials as trial by trial, the
    same oracle residuals, and the other residuals equal to round-off (they are
    already divided by max(1, energy))."""
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
        assert set(got.max_residuals) == set(ref.max_residuals)
        for q, v in ref.max_residuals.items():
            if q == "oracle":
                assert got.max_residuals[q] == v
            else:
                assert abs(got.max_residuals[q] - v) <= 1e-13, q
        assert ([(f["trial"], f["quantity"], f.get("inputs")) for f in got.failures]
                == [(f["trial"], f["quantity"], f.get("inputs")) for f in ref.failures])
        for f, g in zip(got.failures, ref.failures):
            if isinstance(g["value"], str) or g["quantity"] == "oracle":
                assert f["value"] == g["value"]
            else:
                assert abs(complex(*f["value"]) - complex(*g["value"])) <= 1e-13


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
