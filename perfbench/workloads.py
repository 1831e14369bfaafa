"""The benchmark's three verification workloads and their correctness gate.

A workload is a list of suite calls into ``harmorph.verify``.  Building it
constructs every morphism, family and tangent basis it uses, so that the
timed passes start with the ``p_basis`` cache filled.  Each call carries the
report it must produce: its verdict, trial count, seed, tolerance and the
set of quantities it checked, so that a speed-up which drops a checked claim
fails the gate instead of looking faster.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import harmorph.verify as hv
from harmorph.jets import BranchCutError, Entry, EvaluationError, base_map_value
from harmorph.morphisms import (STABILIZER_RIGHT, Morphism, dual_quat_family, quat_family,
                                real_morphism, typeIV_bigcell_morphism)
from harmorph.spaces import SpaceSpec, make_space, p_basis, p_basis_exact

TRIALS = 100
DEFAULT_SEED = 20240823

# Exceptions a suite may raise on a bad point.  They count as a failed call
# and the pass goes on; any other exception is a defect and ends the run.
SUITE_ERRORS = (hv.SamplingError, EvaluationError, BranchCutError)

# The non-harmonic control must fail with at least this tau residual.
CONTROL_MIN_TAU = 0.1

@dataclass(frozen=True)
class Call:
    """One suite call and the report it must produce."""

    label: str
    fn: Callable[..., hv.VerificationReport]
    args: tuple
    kwargs: dict
    tolerance: float | None
    quantities: frozenset[str]
    expect_pass: bool = True
    # tolerances of quantities checked against something else than report.tolerance
    quantity_tols: dict[str, float] = field(default_factory=dict)

    def run(self, seed: int) -> hv.VerificationReport:
        return self.fn(*self.args, trials=TRIALS, seed=seed, **self.kwargs)


@dataclass
class Outcome:
    """What one call produced in one pass: a report, or the error it raised."""

    call: Call
    report: hv.VerificationReport | None = None
    error: str | None = None
    seconds: float = 0.0   # the suite call and the rendering of its report
    reference_s: float = 0.0   # the host reference read around it, if asked for


def control_morphism() -> Morphism:
    """phi_11 on slr-so n=2: not harmonic, so its suite must FAIL."""
    space = make_space("slr-so", 2)

    def domain(x):
        # moderate-scale window: keeps the non-harmonic signal well above the
        # residual normalization floor at every sampled point
        if not space.membership(x, 1e-8):
            return False
        phi11 = complex(base_map_value(space, x, check=False)[0, 0]).real
        return 0.1 <= phi11 <= 10.0

    return Morphism(Entry(1, 1), space, "control:phi11", domain, (STABILIZER_RIGHT,))


def _with_oracle(names: set[str], space: SpaceSpec) -> frozenset[str]:
    # Builds the space's tangent basis.  The oracle checks one basis direction,
    # and su-sp n=1 has none, since Sp(1) = SU(2).
    return frozenset(names | {"oracle"} if len(p_basis(space)) else names)


def _harmonic(m: Morphism, tol: float, expect_pass: bool = True) -> Call:
    return Call(f"harmonic {m.label}", hv.verify_harmonic, (m,), {"tol": tol}, tol,
                _with_oracle({"tau", "kappa"}, m.space), expect_pass)


def _family(fam: list[Morphism], tol: float) -> Call:
    names = {f"tau[{m.label}]" for m in fam}
    names |= {f"kappa[{a.label}|{b.label}]" for i, a in enumerate(fam) for b in fam[i:]}
    return Call(f"family {fam[0].label}", hv.verify_family, (fam,), {"tol": tol}, tol,
                _with_oracle(names, fam[0].space))


def _lemmas(space_id: str, n: int) -> Call:
    space = make_space(space_id, n)
    p_basis(space)
    if space_id == "slr-so":
        names = {"tau_phi_ratio", "kappa_phi_phi", "kappa_psi_psi", "tau_psi", "kappa_phi_psi"}
    else:
        names = {"tau_phi_ratio", "kappa_phi_phi_shared_col"}
    return Call(f"derivative-lemmas {space.label()}", hv.verify_derivative_lemmas, (space,),
                {"tol": 1e-8, "ratio_tol": 1e-9}, 1e-8, frozenset(names),
                quantity_tols={"tau_phi_ratio": 1e-9})


def _off_diagonal(n: int):
    return [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]


def _exact_identities() -> list[Call]:
    calls = [Call(f"lemma-formula-real n={n}", hv.verify_lemma_formula_real, (n,), {},
                  None, frozenset()) for n in (2, 3, 4)]
    calls += [Call(f"lemma-long n={n}", hv.verify_lemma_long, (n,), {}, None, frozenset())
              for n in (1, 2, 3)]
    for n in (1, 2, 3):
        p_basis_exact(make_space("sus-sp", n))
    return calls


def _float_certify() -> list[Call]:
    # Left out: every su-so call, slr-so n=2 and su-sp n=2.  On some seeds
    # (about one in thirteen for su-so, one in 120 for each of the others)
    # the finite-difference oracle false-FAILs them (ROADMAP open item 4),
    # and a workload must give correct reports at every seed it is run with.
    calls = [_harmonic(real_morphism(n, k, l), 1e-8)
             for n in (3, 4, 5) for k, l in _off_diagonal(n)]
    calls += [_family(quat_family(n, l), 1e-8) for n in (1, 2, 3) for l in range(1, n + 1)]
    calls.append(_family(dual_quat_family(1, 1), 1e-7))
    calls += [_harmonic(typeIV_bigcell_morphism(n, 2, 1), 1e-7) for n in (2, 3)]
    control = control_morphism()
    calls.append(_harmonic(control, hv.default_tolerance(control.space), expect_pass=False))
    return calls


def _derivative_lemmas() -> list[Call]:
    # No slr-so n=2: at about one seed in fifty its psi relations false-FAIL,
    # where psi = sqrt(phi11 phi22 - phi12^2) loses its digits to cancellation.
    return ([_lemmas("slr-so", n) for n in (3, 4, 5)]
            + [_lemmas("sus-sp", n) for n in (1, 2, 3)])


WORKLOADS = {"exact-identities": _exact_identities, "float-certify": _float_certify,
             "derivative-lemmas": _derivative_lemmas}


def build(name: str) -> list[Call]:
    """Construct the workload's calls; this fills the tangent-basis cache."""
    return WORKLOADS[name]()


def run_pass(calls: list[Call], seed: int,
             reference: Callable[[], float] | None = None) -> list[Outcome]:
    """Run every call once and render its report to JSON, as the CLI does.

    With ``reference``, it is also timed before the first call and after each
    call, and each outcome keeps the mean of the two readings around it.
    """
    outcomes = []
    before = reference() if reference else 0.0
    for call in calls:
        t0 = time.perf_counter()
        try:
            out = Outcome(call, report=call.run(seed))
            hv.render_report(out.report, "json")
        except SUITE_ERRORS as exc:
            out = Outcome(call, error=f"{type(exc).__name__}: {exc}")
        out.seconds = time.perf_counter() - t0
        if reference:
            after = reference()
            out.reference_s = (before + after) / 2
            before = after
        outcomes.append(out)
    return outcomes


def problems(out: Outcome, seed: int) -> list[str]:
    """Every way the outcome differs from the report its call must produce."""
    if out.error is not None:
        return [out.error]
    call, r = out.call, out.report
    found = []
    if r.passed != call.expect_pass:
        found.append(f"verdict {'PASS' if r.passed else 'FAIL'}, "
                     f"expected {'PASS' if call.expect_pass else 'FAIL'}")
    if not call.expect_pass and r.max_residuals.get("tau", 0.0) < CONTROL_MIN_TAU:
        found.append(f"control tau residual {r.max_residuals.get('tau', 0.0):.3g} "
                     f"below {CONTROL_MIN_TAU}")
    if r.trials != TRIALS:
        found.append(f"trials {r.trials}, expected {TRIALS}")
    if r.seed != seed:
        found.append(f"seed {r.seed}, expected {seed}")
    if r.tolerance != call.tolerance:
        found.append(f"tolerance {r.tolerance}, expected {call.tolerance}")
    if set(r.max_residuals) != call.quantities:
        missing = sorted(call.quantities - set(r.max_residuals))
        extra = sorted(set(r.max_residuals) - call.quantities)
        found.append(f"checked quantities differ: missing {missing}, unexpected {extra}")
    return found


def residual_margin_digits(outcomes: list[Outcome]) -> float | None:
    """min over certified non-oracle quantities of log10(tolerance / worst residual).

    None on a workload with no float quantities; inf if every residual is 0.
    """
    margins = []
    for out in outcomes:
        if out.report is None or not out.call.expect_pass:
            continue
        for q, res in out.report.max_residuals.items():
            if q == "oracle":
                continue
            tol = out.call.quantity_tols.get(q, out.call.tolerance)
            margins.append(math.log10(tol / res) if res > 0 else math.inf)
    return min(margins) if margins else None
