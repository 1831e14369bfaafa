"""Verification suites: green paths, report contract, determinism, sensitivity."""

import json
from fractions import Fraction

import numpy as np
import pytest

import harmorph.verify
from harmorph.jets import Const, Entry, Jet2, Sqrt
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
    """From now on, the values each check counts, by quantity: a list per trial."""
    recorded = {}
    check = VerificationReport.check

    def recording(report, quantity, values, tol, inputs, checked=True):
        v = np.asarray(values)
        mask = np.broadcast_to(checked, v.shape)
        recorded[quantity] = [row[keep].tolist() for row, keep in
                              zip(v.reshape(len(v), -1), mask.reshape(len(v), -1))]
        check(report, quantity, values, tol, inputs, checked)

    monkeypatch.setattr(VerificationReport, "check", recording)
    return recorded


def _check_one(report, trial, quantity, value, tol, inputs):
    """One residual of one trial, checked as report.check checks each entry."""
    report.max_residuals[quantity] = max(report.max_residuals.get(quantity, 0.0), value)
    if not value <= tol:
        report.record_failure(trial, quantity, value, inputs)


def _point(jet):
    """The jet at the one point of a stack of one."""
    return Jet2(jet.v[..., 0], jet.d1[..., 0], jet.d2[..., 0])


def _reference_lemmas(space, trials, seed, tol, ratio_tol):
    """The derivative lemmas one trial at a time, at the jets of each point as a stack
    of one, with psi and its sums pair by pair: the report, and each quantity's
    guarded ratios per trial."""
    from harmorph.jets import JetContext, eval_jet_cached, jet_sums, kappa_sum
    from harmorph.sampling import sample_group_point
    from harmorph.verify import RATIO_GUARD, _ser_mat

    d = space.ambient_dim
    c_tau = 2 * (space.n + 1) if space.id == "slr-so" else 4 * space.n - 2
    report = VerificationReport(f"derivative-lemmas:{space.id}", space.id, [], space.n,
                                trials, seed, tol)
    residuals = {}
    for t in range(trials):
        x = sample_group_point(space, seed, index=t)
        ctx = JetContext(space, x[None])
        phi = ctx.phi[0]
        tau_phi, kap = (a[0] for a in ctx.base_map_sums())
        sides = {"tau_phi_ratio": zip(tau_phi.ravel(), (c_tau * phi).ravel())}
        if space.id == "sus-sp":
            pt = phi.T
            expected = 2.0 * pt[:, :, None] * pt[:, None, :]
            sides["kappa_phi_phi_shared_col"] = zip(np.einsum("klrl->lkr", kap).ravel(),
                                                    expected.ravel())
        else:
            expected = 2.0 * (np.einsum("ki,lj->klij", phi, phi)
                              + np.einsum("kj,li->klij", phi, phi))
            sides["kappa_phi_phi"] = zip(kap.ravel(), expected.ravel())
            sides.update(kappa_psi_psi=[], tau_psi=[], kappa_phi_psi=[])
            for k in range(1, d + 1):
                for l in range(k + 1, d + 1):
                    stack, _ = eval_jet_cached(Sqrt(Entry(k, k) * Entry(l, l) - Entry(k, l) ** 2),
                                               ctx)
                    psi = _point(stack)
                    tau, kap_psi, _ = jet_sums(psi)
                    sides["kappa_psi_psi"].append((kap_psi, 2.0 * psi.v ** 2))
                    sides["tau_psi"].append((tau, 2.0 * (d - 1) * psi.v))
                    sides["kappa_phi_psi"] += [(kappa_sum(_point(ctx.entry_jet(k, m)), psi),
                                                2.0 * phi[k - 1, m - 1] * psi.v)
                                               for m in range(1, d + 1)]
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
    """At a tolerance nothing meets, every trial of every block fails several
    relations; the captured failures are the loop's, in its order."""
    monkeypatch.setattr(harmorph.verify, "MAX_CAPTURED_FAILURES", captured)
    space = make_space("slr-so", 3)
    got = verify_derivative_lemmas(space, 25, SEED, 1e-17, 1e-17)
    ref, _ = _reference_lemmas(space, 25, SEED, 1e-17, 1e-17)
    assert got.failed_trials == ref.failed_trials == set(range(25))
    assert _strip_time(got) == _strip_time(ref)
    assert len(got.failures) == min(captured, len(ref.failures))
    if captured > 10:
        assert len({f["quantity"] for f in got.failures if f["trial"] == 24}) > 1


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
    from harmorph.verify import ORACLE_ABS_TOL, ORACLE_STEP, _ser_mat, sample_in_domain

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
            report.record_failure(t, "evaluation-error", str(error), {"x": _ser_mat(x)})
            continue
        jets = [Jet2(*(a[..., 0] if np.ndim(a) else a for a in (j.v, j.d1, j.d2)))
                for j, _ in walks]
        energies = []
        for m, jet in zip(family, jets):
            tau, _, energy = jet_sums(jet)
            energies.append(float(energy))
            _check_one(report, t, f"tau{tag(m)}", float(normalized_residual(tau, energy)), tol,
                       {"x": _ser_mat(x)})
        for a in range(len(family)):
            for b in range(a, len(family)):
                scale = max(1.0, (energies[a] * energies[b]) ** 0.5)
                _check_one(report, t, f"kappa{tag(family[a], family[b])}",
                           abs(complex(kappa_sum(jets[a], jets[b]))) / scale, tol,
                           {"x": _ser_mat(x)})
        if t % 10 == 0 and len(basis):
            a = t % len(family)
            zi = t % len(basis)
            d1, d2 = (complex(np.broadcast_to(v, len(basis))[zi]) for v in (jets[a].d1, jets[a].d2))
            errors = np.full(1, None, dtype=object)
            fd = fd_jet(family[a].expr, space, x[None], basis[zi:zi + 1], ORACLE_STEP,
                        errors)
            inputs = {"morphism": family[a].label, "x": _ser_mat(x)}
            if errors[0] is not None:
                report.record_failure(t, "oracle-evaluation-error", str(errors[0]), inputs)
                continue
            scale = max(1.0, abs(complex(jets[a].v)) + abs(d1) + abs(d2))
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


def _reference_invariance(morphism, trials, seed, tol):
    """The invariance suite one trial at a time, by eval_value and eval_jet."""
    from harmorph.jets import BranchCutError, EvaluationError, eval_jet, eval_value
    from harmorph.morphisms import POSITIVE_SCALE
    from harmorph.sampling import rng_from_seed, sample_stabilizer_point
    from harmorph.spaces import stabilizer_algebra
    from harmorph.verify import _ser_mat, sample_in_domain

    space = morphism.space
    report = VerificationReport("invariance", space.id, [morphism.label], space.n,
                                trials, seed, tol)
    k_gens = stabilizer_algebra(space)
    scaled = POSITIVE_SCALE in morphism.invariances
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
