"""Verification suites and machine-readable reports.

Every suite is deterministic given (parameters, seed): points are drawn
from the counter-based generator keyed by the seed and the trial index,
so a report fully determines a re-run.  Exact suites compare both sides
of an identity in rational arithmetic and never report residuals; float
suites report the worst normalized residual per quantity and also push a
10% subsample through the finite-difference oracle.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .jets import (BranchCutError, Entry, EvaluationError, Jet2, JetContext, Sqrt,
                   direction_jets, eval_jet, eval_jet_cached, eval_value, fd_jet, jet_sums,
                   kappa_sum, normalized_residual, rotated_basis)
from .matrices import leading_principal_minors
from .morphisms import POSITIVE_SCALE, Morphism
from .sampling import (complex_rational_vector, rational_vector, rng_from_seed,
                       sample_group_point, sample_stabilizer_point)
from .scalars import ComplexRational
from .spaces import (HALF, SpaceSpec, exact_unit, make_space, p_basis, p_basis_exact,
                     symplectic_J_exact)

SCHEMA_VERSION = 1

# Default residual tolerances: polynomial base maps on the non-compact
# spaces are cleaner than the compact duals / type IV factorizations.
DEFAULT_TOL_NONCOMPACT = 1e-8
DEFAULT_TOL_COMPACT = 1e-7

ORACLE_SUBSAMPLE = 10      # every 10th trial is cross-checked
ORACLE_STEP = 1e-4
ORACLE_ABS_TOL = 1e-5

MAX_CAPTURED_FAILURES = 10

# Multiplicative identities (lhs = c * product of entries) are checked as
# relative errors only where the right-hand side is numerically nonzero.
RATIO_GUARD = 1e-2


class SamplingError(RuntimeError):
    """Could not hit the morphism's domain after bounded resampling."""


def default_tolerance(space: SpaceSpec) -> float:
    return DEFAULT_TOL_COMPACT if space.compact or space.id == "slc-su" else DEFAULT_TOL_NONCOMPACT


def _ser_scalar(v):
    if isinstance(v, str):
        return v
    if isinstance(v, ComplexRational):
        return str(v)
    if isinstance(v, Fraction):
        return str(v)
    c = complex(v)
    return [c.real, c.imag]


def _ser_mat(m: np.ndarray):
    return [[_ser_scalar(v) for v in row] for row in np.asarray(m)]


def _ser_vec(v):
    return [_ser_scalar(x) for x in v]


def _inputs(**mats):
    return lambda: {k: _ser_mat(v) for k, v in mats.items()}


@dataclass
class VerificationReport:
    """Seeded, machine-readable outcome of one verification suite."""

    suite: str
    space: str | None
    morphisms: list[str]
    n: int
    trials: int
    seed: int
    tolerance: float | None
    max_residuals: dict[str, float] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    passed: bool = True
    wall_time: float = 0.0

    def record_failure(self, trial: int, quantity: str, value, inputs=None) -> None:
        self.passed = False
        if len(self.failures) < MAX_CAPTURED_FAILURES:
            entry = {"trial": trial, "quantity": quantity, "value": _ser_scalar(value)}
            if inputs is not None:
                entry["inputs"] = inputs() if callable(inputs) else inputs
            self.failures.append(entry)

    def bump(self, quantity: str, residual: float) -> None:
        cur = self.max_residuals.get(quantity, 0.0)
        self.max_residuals[quantity] = max(cur, residual)

    def check(self, trial: int, quantity: str, residual: float, tol: float, inputs=None) -> None:
        self.bump(quantity, residual)
        if residual > tol:
            self.record_failure(trial, quantity, residual, inputs)

    def check_all(self, trial: int, quantity: str, residuals: np.ndarray, tol: float,
                  inputs=None) -> None:
        """check() of each residual in order; an empty array checks nothing."""
        if not residuals.size:
            return
        self.bump(quantity, float(residuals.max()))
        for r in residuals[residuals > tol]:
            self.record_failure(trial, quantity, float(r), inputs)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "space": self.space,
            "morphisms": list(self.morphisms),
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_residuals": dict(sorted(self.max_residuals.items())),
            "failures": self.failures,
            "passed": self.passed,
            "wall_time": self.wall_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def render_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "json":
        return report.to_json()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"{verdict}  {report.suite}")
    lines.append(f"  space      : {report.space or '-'}  (n={report.n})")
    if report.morphisms:
        lines.append(f"  morphisms  : {', '.join(report.morphisms)}")
    lines.append(f"  trials     : {report.trials}")
    lines.append(f"  seed       : {report.seed}")
    if report.tolerance is not None:
        lines.append(f"  tolerance  : {report.tolerance:g}")
    if report.max_residuals:
        worst = max(report.max_residuals.values())
        lines.append(f"  worst residual : {worst:.3e}")
        for name, v in sorted(report.max_residuals.items()):
            lines.append(f"    {name:<28s} {v:.3e}")
    else:
        failed_trials = len({f["trial"] for f in report.failures})
        lines.append(f"  exact: {report.trials - failed_trials}/{report.trials}")
    if report.failures:
        lines.append(f"  failures ({len(report.failures)} captured):")
        for f in report.failures:
            lines.append(f"    trial {f['trial']}: {f['quantity']} = {f['value']}")
            if "inputs" in f:
                lines.append(f"      inputs: {json.dumps(f['inputs'])}")
    lines.append(f"  wall time  : {report.wall_time:.2f}s")
    return "\n".join(lines)


class _Timer:
    def __init__(self, report: VerificationReport):
        self.report = report
        self.t0 = time.perf_counter()

    def done(self) -> VerificationReport:
        self.report.wall_time = time.perf_counter() - self.t0
        return self.report


# ---------------------------------------------------------------------------
# exact identity suites
# ---------------------------------------------------------------------------

def verify_lemma_formula_real(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Both exact sum identities over the symmetric/diagonal and Y families."""
    report = VerificationReport("lemma-formula-real", None, [], n, trials, seed, None)
    timer = _Timer(report)
    sym = p_basis_exact(make_space("slr-so", n))
    skew = [(exact_unit(n, k, l, -1, Fraction(1)), HALF)
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
    return timer.done()


def verify_lemma_long(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Exact quaternionic sum identity over the five block families."""
    report = VerificationReport("lemma-long", None, [], n, trials, seed, None)
    timer = _Timer(report)
    basis = p_basis_exact(make_space("sus-sp", n))
    J = symplectic_J_exact(n)
    d = 2 * n

    def herm(u, w):  # u w* with conjugation on the second argument
        return sum(u[i] * w[i].conjugate() for i in range(d))

    def omega(u, w):
        return (u @ J) @ w

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
    return timer.done()


# ---------------------------------------------------------------------------
# in-domain sampling and the finite-difference cross-check
# ---------------------------------------------------------------------------

_DOMAIN_ATTEMPTS = 1000


def sample_in_domain(morphisms: Morphism | list[Morphism], seed: int, trial: int) -> np.ndarray:
    """A group point of the trial inside the domain of the morphism, or of every member."""
    family = morphisms if isinstance(morphisms, list) else [morphisms]
    for r in range(_DOMAIN_ATTEMPTS):
        x = sample_group_point(family[0].space, seed, index=trial * _DOMAIN_ATTEMPTS + r)
        if all(m.domain(x) for m in family):
            return x
    labels = ", ".join(m.label for m in family)
    raise SamplingError(f"no in-domain point for {labels} after {_DOMAIN_ATTEMPTS} attempts")


def _oracle_check(report: VerificationReport, morphism: Morphism, x: np.ndarray,
                  trial: int, jet: Jet2) -> None:
    """Compare the suite's jet of the morphism with central differences along one direction."""
    basis = p_basis(morphism.space)
    if not len(basis):
        return
    zi = trial % len(basis)
    d1, d2 = (complex(np.broadcast_to(a, len(basis))[zi]) for a in (jet.d1, jet.d2))
    fd = fd_jet(morphism.expr, morphism.space, x, basis.elements[zi], h=ORACLE_STEP)
    scale = max(1.0, abs(jet.v) + abs(d1) + abs(d2))
    err = (abs(d1 - fd.d1) + abs(d2 - fd.d2)) / scale
    report.check(trial, "oracle", err, ORACLE_ABS_TOL,
                 inputs=lambda: {"morphism": morphism.label, "x": _ser_mat(x)})


# ---------------------------------------------------------------------------
# derivative-constant lemmas
# ---------------------------------------------------------------------------

def _rel_err_guarded(lhs: complex, rhs: complex) -> float | None:
    """Relative error, or None when |rhs| is too small for a meaningful ratio."""
    if abs(rhs) < RATIO_GUARD:
        return None
    return abs(lhs - rhs) / abs(rhs)


def _rel_errs_guarded(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """_rel_err_guarded of each entry, in C order, leaving out the guarded ones."""
    keep = ~(np.abs(rhs) < RATIO_GUARD)
    return np.abs(lhs - rhs)[keep] / np.abs(rhs)[keep]


def verify_derivative_lemmas(space: SpaceSpec, trials: int = 100, seed: int = 0,
                             tol: float = 1e-8, ratio_tol: float = 1e-9) -> VerificationReport:
    """The appendix derivative-constant relations at sampled points."""
    if space.id not in ("slr-so", "sus-sp"):
        raise ValueError(f"derivative lemmas cover slr-so and sus-sp, not {space.id}")
    report = VerificationReport(f"derivative-lemmas:{space.id}", space.id, [], space.n,
                                trials, seed, tol)
    timer = _Timer(report)
    n = space.n
    c_tau = 2 * (n + 1) if space.id == "slr-so" else 4 * n - 2
    basis = p_basis(space)
    for t in range(trials):
        x = sample_group_point(space, seed, index=t)
        ctx = JetContext(space, x, basis)
        phi = ctx.phi
        tau_phi, kap = ctx.base_map_sums()
        # (i) tau(phi_kl) = c * phi_kl, as a ratio where phi_kl is nonzero
        report.check_all(t, "tau_phi_ratio", _rel_errs_guarded(tau_phi, c_tau * phi),
                         ratio_tol, _inputs(x=x))
        # (ii) the kappa(phi, phi) product formula
        if space.id == "slr-so":
            expected = 2.0 * (np.einsum("ki,lj->klij", phi, phi) + np.einsum("kj,li->klij", phi, phi))
            report.check_all(t, "kappa_phi_phi", _rel_errs_guarded(kap, expected), tol,
                             _inputs(x=x))
            _check_psi_relations(report, space, ctx, t, x, tol)
        else:
            # shared second index: kappa(phi_kl, phi_rl) = 2 phi_kl phi_rl, indexed [l, k, r]
            pt = phi.T
            report.check_all(t, "kappa_phi_phi_shared_col",
                             _rel_errs_guarded(np.einsum("klrl->lkr", kap),
                                               2.0 * pt[:, :, None] * pt[:, None, :]),
                             tol, _inputs(x=x))
    return timer.done()


def _check_psi_relations(report, space, ctx, t, x, tol) -> None:
    """Relations (iii)-(v): the sqrt components psi_kl on the real space."""
    n = space.ambient_dim
    phi = ctx.phi

    def psi_expr(k, l):
        return Sqrt(Entry(k, k) * Entry(l, l) - Entry(k, l) ** 2)

    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            psi = psi_expr(k, l)
            psi_jet = eval_jet_cached(psi, ctx)
            psi_val = psi_jet.v
            tpsi, kpp, _ = jet_sums(psi_jet)
            # (iv) kappa(psi, psi) = 2 psi^2
            err = _rel_err_guarded(kpp, 2.0 * psi_val ** 2)
            if err is not None:
                report.check(t, "kappa_psi_psi", err, tol, _inputs(x=x))
            # (v) tau(psi) = 2(n-1) psi
            err = _rel_err_guarded(tpsi, 2.0 * (n - 1) * psi_val)
            if err is not None:
                report.check(t, "tau_psi", err, tol, _inputs(x=x))
            # (iii) kappa(phi_ml, psi_kl) = 2 phi_ml psi_kl  (shared index k -> use (k, m))
            for m in range(1, n + 1):
                kps = kappa_sum(ctx.entry_jet(k, m), psi_jet)
                err = _rel_err_guarded(kps, 2.0 * phi[k - 1, m - 1] * psi_val)
                if err is not None:
                    report.check(t, "kappa_phi_psi", err, tol, _inputs(x=x))


# ---------------------------------------------------------------------------
# harmonicity / family / invariance suites
# ---------------------------------------------------------------------------

def verify_harmonic(morphism: Morphism, trials: int = 100, seed: int = 0,
                    tol: float | None = None) -> VerificationReport:
    """Normalized tau and kappa(f, f) residuals at in-domain sampled points."""
    space = morphism.space
    if tol is None:
        tol = default_tolerance(space)
    report = VerificationReport("harmonic", space.id, [morphism.label], space.n,
                                trials, seed, tol)
    timer = _Timer(report)
    basis = p_basis(space)
    for t in range(trials):
        x = sample_in_domain(morphism, seed, t)
        ctx = JetContext(space, x, basis)
        try:
            jet = eval_jet_cached(morphism.expr, ctx)
        except (EvaluationError, BranchCutError) as exc:
            report.record_failure(t, "evaluation-error", str(exc), _inputs(x=x))
            continue
        tau_v, kappa_v, energy = jet_sums(jet)
        report.check(t, "tau", normalized_residual(tau_v, energy), tol, _inputs(x=x))
        report.check(t, "kappa", normalized_residual(kappa_v, energy), tol, _inputs(x=x))
        if t % ORACLE_SUBSAMPLE == 0:
            _oracle_check(report, morphism, x, t, jet)
    return timer.done()


def verify_family(family: list[Morphism], trials: int = 100, seed: int = 0,
                  tol: float | None = None) -> VerificationReport:
    """All tau residuals and all pairwise kappa residuals (self-pairs included)."""
    if not family:
        raise ValueError("empty family")
    space = family[0].space
    for m in family[1:]:
        if m.space.id != space.id or m.space.n != space.n:
            raise ValueError("family members live on different spaces")
    if tol is None:
        tol = default_tolerance(space)
    report = VerificationReport("family", space.id, [m.label for m in family],
                                space.n, trials, seed, tol)
    timer = _Timer(report)
    basis = p_basis(space)
    for t in range(trials):
        x = sample_in_domain(family, seed, t)
        ctx = JetContext(space, x, basis)
        try:
            member_jets = [eval_jet_cached(m.expr, ctx) for m in family]
        except (EvaluationError, BranchCutError) as exc:
            report.record_failure(t, "evaluation-error", str(exc), _inputs(x=x))
            continue
        energies = []
        for m, jet in zip(family, member_jets):
            tau_v, _, energy = jet_sums(jet)
            energies.append(energy)
            report.check(t, f"tau[{m.label}]", normalized_residual(tau_v, energy), tol,
                         _inputs(x=x))
        for a in range(len(family)):
            for b in range(a, len(family)):
                kv = kappa_sum(member_jets[a], member_jets[b])
                scale = max(1.0, (energies[a] * energies[b]) ** 0.5)
                report.check(t, f"kappa[{family[a].label}|{family[b].label}]",
                             abs(kv) / scale, tol, _inputs(x=x))
        if t % ORACLE_SUBSAMPLE == 0:
            a = t % len(family)
            _oracle_check(report, family[a], x, t, member_jets[a])
    return timer.done()


def verify_invariance(morphism: Morphism, trials: int = 20, seed: int = 0,
                      tol: float = 1e-9) -> VerificationReport:
    """Right-stabilizer invariance, scale invariance, and vanishing stabilizer jets."""
    space = morphism.space
    report = VerificationReport("invariance", space.id, [morphism.label], space.n,
                                trials, seed, tol)
    timer = _Timer(report)
    from .spaces import stabilizer_algebra

    k_gens = stabilizer_algebra(space)
    for t in range(trials):
        x = sample_in_domain(morphism, seed, t)
        k = sample_stabilizer_point(space, seed, index=t)
        fx = eval_value(morphism.expr, space, x)
        fxk = eval_value(morphism.expr, space, x @ k)
        report.check(t, "stabilizer-right", abs(fxk - fx), tol,
                     _inputs(x=x, k=k))
        if POSITIVE_SCALE in morphism.invariances:
            rng = rng_from_seed(seed, t, 7)
            r = rng.uniform(0.5, 2.0)
            frx = eval_value(morphism.expr, space, r * x)
            report.check(t, "positive-scale", abs(frx - fx), tol, _inputs(x=x))
        # first-jet form: Z(f) = 0 for Z in the stabilizer algebra
        z = k_gens[t % len(k_gens)]
        j = eval_jet(morphism.expr, space, x, z)
        report.check(t, "stabilizer-jet", abs(j.d1), tol, _inputs(x=x))
    return timer.done()


def verify_bigcell(n: int, trials: int = 1000, seed: int = 0) -> VerificationReport:
    """All leading principal minors of g g* real positive for sampled g in SL(n, C)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    space = make_space("slc-su", n)
    report = VerificationReport("bigcell", space.id, [], n, trials, seed, 1e-10)
    timer = _Timer(report)
    for t in range(trials):
        g = sample_group_point(space, seed, index=t)
        a = g @ g.conj().T
        minors = leading_principal_minors(a)
        for idx, m in enumerate(minors, start=1):
            m = complex(m)
            imag_rel = abs(m.imag) / max(abs(m), 1e-300)
            report.bump("minor_imag_rel", imag_rel)
            if imag_rel > 1e-10 or m.real <= 0:
                report.record_failure(t, f"minor_{idx}", m, _inputs(g=g))
    return timer.done()


def verify_basis_independence(space: SpaceSpec, morphism: Morphism, rotations: int = 10,
                              seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """tau/kappa agree between the stock basis and randomly rotated ones."""
    report = VerificationReport("basis-independence", space.id, [morphism.label],
                                space.n, rotations, seed, tol)
    timer = _Timer(report)
    stock = p_basis(space)
    for t in range(rotations):
        x = sample_in_domain(morphism, seed, t)
        tau0, kap0, energy = jet_sums(direction_jets(morphism.expr, space, x, stock))
        rot = rotated_basis(stock, rng_from_seed(seed, t, 11))
        tau1, kap1, _ = jet_sums(direction_jets(morphism.expr, space, x, rot))
        scale = max(1.0, energy)
        report.check(t, "tau_rotation_diff", abs(tau1 - tau0) / scale, tol, _inputs(x=x))
        report.check(t, "kappa_rotation_diff", abs(kap1 - kap0) / scale, tol, _inputs(x=x))
    return timer.done()
