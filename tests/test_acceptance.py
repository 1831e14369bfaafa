"""Acceptance gate: the nine headline claims, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every criterion uses the fixed seed below, so the
whole gate is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from harmorph.jets import (JetContext, eval_jet, eval_jet_cached, fd_jet, jet_sums,
                           normalized_residual, raise_first_error)
from harmorph.morphisms import (control_morphism, dual_quat_family,
                                dual_real_morphism, holomorphic_compose,
                                quat_family, real_morphism,
                                typeIV_bigcell_morphism)
from harmorph.spaces import make_space, p_basis
from harmorph.verify import (sample_in_domain,
                             verify_basis_independence, verify_bigcell,
                             verify_derivative_lemmas, verify_family,
                             verify_harmonic, verify_invariance,
                             verify_lemma_formula_real, verify_lemma_long)
from oracles import rng_from_seed

SEED = 20240823


def _line(num: int, name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    return ok


def test_criterion_1_exact_identities():
    t0 = time.time()
    reports = [verify_lemma_formula_real(n, 100, SEED) for n in (2, 3, 4)]
    reports += [verify_lemma_long(n, 100, SEED) for n in (1, 2, 3)]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed <= 60.0
    assert _line(1, "exact identity suites (proved from their coefficients)", ok,
                 f"{elapsed:.1f}s")


def test_criterion_2_derivative_constants():
    reports = [verify_derivative_lemmas(make_space("slr-so", n), 100, SEED,
                                        tol=1e-8, ratio_tol=1e-9)
               for n in (2, 3, 4, 5)]
    reports += [verify_derivative_lemmas(make_space("sus-sp", n), 100, SEED,
                                         tol=1e-8, ratio_tol=1e-9)
                for n in (1, 2, 3)]
    ok = all(r.passed for r in reports)
    worst = max(max(r.max_residuals.values()) for r in reports)
    assert _line(2, "derivative constants and the five lemma relations", ok,
                 f"worst residual {worst:.2e}")


def test_criterion_3_noncompact_harmonicity():
    worst = 0.0
    ok = True
    for n in (2, 3, 4, 5):
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k == l:
                    continue
                r = verify_harmonic(real_morphism(n, k, l), 100, SEED, tol=1e-8)
                ok = ok and r.passed
                worst = max(worst, r.max_residuals["tau"], r.max_residuals["kappa"])
    for n in (1, 2, 3):
        for l in range(1, n + 1):
            r = verify_family(quat_family(n, l), 100, SEED, tol=1e-8)
            ok = ok and r.passed
            worst = max(worst, *(v for q, v in r.max_residuals.items() if q != "oracle"))
    assert _line(3, "non-compact harmonic certification at 1e-8", ok,
                 f"worst tau/kappa {worst:.2e}")


def test_criterion_4_compact_duals():
    ok = True
    worst = 0.0
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k == l:
                    continue
                r = verify_harmonic(dual_real_morphism(n, k, l), 100, SEED, tol=1e-7)
                ok = ok and r.passed
                worst = max(worst, r.max_residuals["tau"], r.max_residuals["kappa"])
    for n in (1, 2):
        for l in range(1, n + 1):
            r = verify_family(dual_quat_family(n, l), 100, SEED, tol=1e-7)
            ok = ok and r.passed
            if r.max_residuals:
                worst = max(worst, *(v for q, v in r.max_residuals.items() if q != "oracle"))
    # explicit out-of-domain witnesses, one per compact space
    a = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    rejected_real = not dual_real_morphism(2, 1, 2).domain(a)
    x4 = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), a]])
    rejected_quat = not dual_quat_family(2, 1)[0].domain(x4)
    ok = ok and rejected_real and rejected_quat
    assert _line(4, "compact dual certification at 1e-7 with domain rejection", ok,
                 f"worst tau/kappa {worst:.2e}")


def test_criterion_5_type_four_big_cell():
    ok = True
    for n in (2, 3):
        r = verify_bigcell(n, 1000, SEED)
        ok = ok and r.passed
    worst = 0.0
    for n in (2, 3):
        r = verify_harmonic(typeIV_bigcell_morphism(n, 2, 1), 100, SEED, tol=1e-7)
        ok = ok and r.passed
        worst = max(worst, r.max_residuals["tau"], r.max_residuals["kappa"])
    assert _line(5, "big-cell minors positive; Gauss coordinate harmonic at 1e-7", ok,
                 f"worst tau/kappa {worst:.2e}")


def _central_differences(m, x, z, h):
    """fd_jet's first and second derivative of m at the one point x along z."""
    errors = np.full(1, None, dtype=object)
    fd = fd_jet(m.expr, m.space, x[None], z[None], h, errors)
    raise_first_error(errors)
    return complex(fd.d1[0]), complex(fd.d2[0])


def test_criterion_6_oracle_agreement():
    pool = [real_morphism(3, 1, 2), quat_family(2, 1)[0],
            dual_real_morphism(3, 1, 2, margin=0.05),
            dual_quat_family(2, 1, margin=0.05)[0],
            typeIV_bigcell_morphism(3, 2, 1)]
    hs = [1e-3, 5e-4, 2.5e-4]
    ok = True
    measured = 0
    for t in range(50):
        m = pool[t % len(pool)]
        x = sample_in_domain(m, 2024, t)
        basis = p_basis(m.space)
        rng = rng_from_seed(2024, t, 3)
        z = basis[rng.integers(len(basis))]
        a = eval_jet(m.expr, m.space, x, z)
        scale = max(1.0, abs(a.v) + abs(a.d1) + abs(a.d2))
        errs = []
        for h in hs:
            d1, d2 = _central_differences(m, x, z, h)
            errs.append(abs(a.d1 - d1) + abs(a.d2 - d2))
        d1, d2 = _central_differences(m, x, z, 1e-4)
        agree = (abs(a.d1 - d1) + abs(a.d2 - d2)) / scale
        ok = ok and agree <= 1e-5
        if errs[-1] <= 1e-7 * scale:
            continue  # truncation already at the roundoff floor; order unmeasurable
        measured += 1
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        ok = ok and 1.8 <= slope <= 2.2
    ok = ok and measured > 0
    assert _line(6, "finite-difference oracle: order 2 and 1e-5 agreement", ok,
                 f"{measured}/50 triples above roundoff floor")


def test_criterion_7_basis_independence():
    cases = [real_morphism(2, 1, 2), quat_family(2, 1)[0],
             dual_real_morphism(2, 1, 2), dual_quat_family(2, 1)[0],
             typeIV_bigcell_morphism(2, 2, 1)]
    ok = True
    worst = 0.0
    for m in cases:
        r = verify_basis_independence(m, 10, SEED, tol=1e-9)
        ok = ok and r.passed
        worst = max(worst, *r.max_residuals.values())
    assert _line(7, "tau/kappa invariant under basis rotation at 1e-9", ok,
                 f"worst diff {worst:.2e}")


def test_criterion_8_invariance_and_composition():
    cases = [real_morphism(2, 1, 2), quat_family(2, 1)[0],
             dual_real_morphism(2, 1, 2), dual_quat_family(2, 1)[0],
             typeIV_bigcell_morphism(2, 2, 1)]
    ok = all(verify_invariance(m, 20, SEED, tol=1e-9).passed for m in cases)
    fam = quat_family(2, 1)
    composed = holomorphic_compose({(2, 0, 0): 1, (1, 1, 0): 3}, fam,
                                   label="sus-sp:n=2:F=z1^2+3z1z2")
    ok = ok and verify_invariance(composed, 20, SEED, tol=1e-9).passed
    r = verify_harmonic(composed, 100, SEED, tol=1e-7)
    ok = ok and r.passed and r.max_residuals["kappa"] <= 1e-7
    assert _line(8, "invariances at 1e-9; composed map harmonic and null", ok,
                 f"kappa(F,F) {r.max_residuals['kappa']:.2e}")


def test_criterion_9_sensitivity_control():
    control = control_morphism(2)
    r = verify_harmonic(control, 100, SEED)
    # the residual must be large at EVERY sampled point, not just somewhere
    xs = sample_in_domain(control, SEED, np.arange(100))
    jet, errors = eval_jet_cached(control.expr, JetContext(control.space, xs))
    raise_first_error(errors)
    tau, _, energy = jet_sums(jet)
    min_tau = float(normalized_residual(tau, energy).min())
    ok = (not r.passed) and min_tau >= 0.1
    assert _line(9, "non-harmonic control is rejected everywhere", ok,
                 f"min tau residual {min_tau:.3f}")
