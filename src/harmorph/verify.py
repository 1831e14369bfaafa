"""Verification suites and machine-readable reports.

Every suite is deterministic given (parameters, seed): points are drawn
from the counter-based generator keyed by the seed and the trial index,
so a report fully determines a re-run.  Exact suites compare both sides
of an identity exactly, as integers after clearing denominators, and never
report residuals; float suites report the worst normalized residual per
quantity and also push a 10% subsample through the finite-difference oracle.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .jets import (BranchCutError, Entry, EvaluationError, Jet2, JetContext, Sqrt, _eval,
                   entry_columns, eval_jet, eval_jet_cached, eval_value, fd_jet, jet_sums,
                   kappa_sum, normalized_residual, raise_first_error, rotated_basis)
from .matrices import leading_principal_minors
from .morphisms import POSITIVE_SCALE, Morphism, _family_space
from .sampling import (complex_rational_vector, generators, rational_vector, rng_from_seed,
                       sample_group_point, sample_stabilizer_point)
from .scalars import ComplexRational, _clear_denominators
from .spaces import (HALF, SpaceSpec, make_space, p_basis, p_basis_exact, stabilizer_algebra,
                     symplectic_J_entries, unit)

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
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        return str(v)  # strict JSON has no nan or inf
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
    # every failing trial, also past the captured failures; not part of to_dict()
    failed_trials: set[int] = field(default_factory=set)

    def record_failure(self, trial: int, quantity: str, value, inputs=None) -> None:
        self.passed = False
        self.failed_trials.add(trial)
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
        if not residual <= tol:  # a NaN residual fails
            self.record_failure(trial, quantity, residual, inputs)

    def check_all(self, trial: int, quantity: str, residuals: np.ndarray, tol: float,
                  inputs=None) -> None:
        """check() of each residual in order; an empty array checks nothing."""
        if not residuals.size:
            return
        self.bump(quantity, float(residuals.max()))
        for r in residuals[~(residuals <= tol)]:
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
            "max_residuals": {k: v if math.isfinite(v) else str(v)
                              for k, v in sorted(self.max_residuals.items())},
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
    if report.tolerance is None:
        lines.append(f"  exact: {report.trials - len(report.failed_trials)}/{report.trials}")
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
    skew = [(unit(n, k, l, -1), HALF) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    families = (("symmetric-family identity", 1,
                 _integer_family(p_basis_exact(make_space("slr-so", n)))),
                ("antisymmetric-family identity", -1, _integer_family(skew)))
    eye = _eye(n)
    for t, rng in enumerate(generators(seed, np.arange(trials))):
        vecs = [rational_vector(rng, n) for _ in range(4)]
        scale, (x, y, a, b) = _cleared(vecs)
        # sum_m c (x m y)(a m b) = 1/2 (<a, x><y, b> +- <y, a><x, b>), all parts real
        ax_yb = _gmul(_form(eye, a, x), _form(eye, y, b))[0]
        ya_xb = _gmul(_form(eye, y, a), _form(eye, x, b))[0]
        for quantity, sign, (denom, family) in families:
            gap = _family_sum(family, x, y, a, b)[0] - denom // 2 * (ax_yb + sign * ya_xb)
            if gap:
                report.record_failure(t, quantity, Fraction(gap, denom * scale),
                                      _vector_inputs(vecs))
    return timer.done()


def verify_lemma_long(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Exact quaternionic sum identity over the five block families."""
    report = VerificationReport("lemma-long", None, [], n, trials, seed, None)
    timer = _Timer(report)
    denom, family = _integer_family(p_basis_exact(make_space("sus-sp", n)))
    J = symplectic_J_entries(n)
    eye = _eye(2 * n)
    for t, rng in enumerate(generators(seed, np.arange(trials))):
        vecs = [complex_rational_vector(rng, 2 * n) for _ in range(4)]
        scale, (x, y, a, b) = _cleared(vecs)
        # sum_m c (a m b*)(x m y*) = 1/2 ((x b*)(a y*) + (x J a) conj(y J b)); with J real,
        # x J a is the form of J at (x, conj a) and conj(y J b) its form at (conj y, b)
        ca, cy = ([(re, -im) for re, im in v] for v in (a, y))
        herm = _gmul(_form(eye, x, b), _form(eye, a, y))
        omega = _gmul(_form(J, x, ca), _form(J, cy, b))
        lhs = _family_sum(family, x, y, a, b)
        gap = [lhs[p] - denom // 2 * (herm[p] + omega[p]) for p in (0, 1)]
        if any(gap):
            value = ComplexRational(*(Fraction(g, denom * scale) for g in gap))
            report.record_failure(t, "quaternionic sum identity", value, _vector_inputs(vecs))
    return timer.done()


# Both identities are linear or conjugate-linear in each of x, y, alpha, beta, so
# they are checked on the Gaussian-integer multiples L v of the sampled vectors and
# with both sides times D, the lcm of 2 and the scale_sq denominators: the exact
# claim at the same points, compared with int ==.  A complex number is an int pair.

def _eye(d: int) -> list[tuple[int, int, int, int]]:
    return [(i, i, 1, 0) for i in range(d)]


def _integer_family(basis: list) -> tuple[int, list]:
    """(D, [(D scale_sq, entries), ...]) of an exact basis, D as above."""
    denom = math.lcm(2, *(c.denominator for _, c in basis))
    return denom, [(c.numerator * (denom // c.denominator), m) for m, c in basis]


def _cleared(vectors) -> tuple[int, list]:
    """The product of the vectors' scales L and their Gaussian-integer multiples."""
    scales, ints = zip(*map(_clear_denominators, vectors))
    return math.prod(scales), ints


def _form(entries, u, w) -> tuple[int, int]:
    """sum of m_ij u_i conj(w_j) over the entries (i, j, Re m_ij, Im m_ij)."""
    re = im = 0
    for i, j, mr, mi in entries:
        (ur, ui), (wr, wi) = u[i], w[j]
        pr, pi = ur * wr + ui * wi, ui * wr - ur * wi
        re += mr * pr - mi * pi
        im += mr * pi + mi * pr
    return re, im


def _gmul(p, q) -> tuple[int, int]:
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _family_sum(family, x, y, a, b) -> tuple[int, int]:
    """sum of w s_m(a, b) s_m(x, y) over the (w, entries) of an integer family."""
    re = im = 0
    for w, m in family:
        pr, pi = _gmul(_form(m, a, b), _form(m, x, y))
        re += w * pr
        im += w * pi
    return re, im


def _vector_inputs(vecs):
    return lambda: dict(zip(("x", "y", "alpha", "beta"), map(_ser_vec, vecs)))


# ---------------------------------------------------------------------------
# in-domain sampling and the finite-difference cross-check
# ---------------------------------------------------------------------------

_DOMAIN_ATTEMPTS = 1000


def sample_in_domain(morphisms: Morphism | list[Morphism], seed: int,
                     trial: int | np.ndarray) -> np.ndarray:
    """A group point of the trial inside the domain of the morphism, or of every member;
    for an array of trials, a stack of them.

    Round r tries the group point of index trial * 1000 + r of every trial still
    without a point, drawn as one stack, and tests the domain point by point.
    """
    family = morphisms if isinstance(morphisms, list) else [morphisms]
    trials = np.asarray(trial)
    flat = trials.ravel()
    d = family[0].space.ambient_dim
    out = np.empty((flat.size, d, d), dtype=complex)
    todo = np.arange(flat.size)
    for r in range(_DOMAIN_ATTEMPTS):
        if not todo.size:
            break
        x = sample_group_point(family[0].space, seed, index=flat[todo] * _DOMAIN_ATTEMPTS + r)
        ok = np.array([all(m.domain(p) for m in family) for p in x], dtype=bool)
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    if todo.size:
        labels = ", ".join(m.label for m in family)
        raise SamplingError(f"no in-domain point for {labels} after {_DOMAIN_ATTEMPTS} attempts")
    return out.reshape(trials.shape + (d, d))


def _central_differences(family: list[Morphism], xs: np.ndarray, trials) -> dict:
    """(d1, d2, stencil error) of the central differences of member t % len(family)
    at the trial's point of the stack xs, along basis direction t % len(basis), for
    each of the trials: one fd_jet call per member, over that member's trials."""
    basis = p_basis(family[0].space)
    out = {}
    if not len(basis):
        return out
    for a, m in enumerate(family):
        ts = [t for t in trials if t % len(family) == a]
        if not ts:
            continue
        errors = np.full(len(ts), None, dtype=object)
        fd = fd_jet(m.expr, m.space, xs[ts], basis.stack[[t % len(basis) for t in ts]],
                    h=ORACLE_STEP, errors=errors)
        for i, t in enumerate(ts):
            out[t] = complex(fd.d1[i]), complex(fd.d2[i]), errors[i]
    return out


def _oracle_check(report: VerificationReport, morphism: Morphism, xs: np.ndarray,
                  trial: int, jet: Jet2, fd: tuple) -> None:
    """Compare the suite's jet of the morphism at the trial's point of the stack xs
    with its central differences fd along one direction (see _central_differences);
    a stencil error is an "oracle-evaluation-error" failure of the trial."""
    fd_d1, fd_d2, error = fd
    x = xs[trial]
    inputs = lambda: {"morphism": morphism.label, "x": _ser_mat(x)}
    if error is not None:
        report.record_failure(trial, "oracle-evaluation-error", str(error), inputs)
        return
    basis = p_basis(morphism.space)
    zi = trial % len(basis)
    v = complex(np.broadcast_to(jet.v, len(xs))[trial])
    d1, d2 = (complex(np.broadcast_to(a, (len(basis), len(xs)))[zi, trial])
              for a in (jet.d1, jet.d2))
    scale = max(1.0, abs(v) + abs(d1) + abs(d2))
    err = (abs(d1 - fd_d1) + abs(d2 - fd_d2)) / scale
    report.check(trial, "oracle", err, ORACLE_ABS_TOL, inputs)


# ---------------------------------------------------------------------------
# derivative-constant lemmas
# ---------------------------------------------------------------------------

def _rel_errs_guarded(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Relative error of each entry, in C order, leaving out those with |rhs| < RATIO_GUARD."""
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
    for t, x in enumerate(sample_group_point(space, seed, index=np.arange(trials))):
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


# psi of the 2x2 minor of phi on rows and columns (k, l)
_PSI = Sqrt(Entry(1, 1) * Entry(2, 2) - Entry(1, 2) ** 2)


def _check_psi_relations(report, space, ctx, t, x, tol) -> None:
    """Relations (iii)-(v): the sqrt components psi_kl on the real space."""
    n = space.ambient_dim
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    if not pairs:
        return
    rows = np.array([k for k, _ in pairs]) - 1
    cols = np.array([l for _, l in pairs]) - 1
    kl = (rows, cols)

    def minor_entry(i, j):
        """Entry (i, j) of the 2x2 minor on rows and columns (k, l), over the pairs."""
        r, c = kl[i - 1], kl[j - 1]
        return Jet2(ctx.phi[r, c], ctx.d1[:, r, c], ctx.d2[:, r, c])

    # one walk over the stack of pairs
    jet, errors = _eval(_PSI, minor_entry, (len(pairs),))
    raise_first_error(errors)
    psi = jet.v
    d1 = np.ascontiguousarray(jet.d1.T)   # (pairs, directions)
    d2 = np.ascontiguousarray(jet.d2.T)
    inputs = _inputs(x=x)
    # (iv) kappa(psi, psi) = 2 psi^2
    report.check_all(t, "kappa_psi_psi",
                     _rel_errs_guarded((d1 * d1).sum(axis=1), 2.0 * psi ** 2), tol, inputs)
    # (v) tau(psi) = 2(n-1) psi
    report.check_all(t, "tau_psi", _rel_errs_guarded(d2.sum(axis=1), 2.0 * (n - 1) * psi),
                     tol, inputs)
    # (iii) kappa(phi_km, psi_kl) = 2 phi_km psi_kl, indexed [pair, m].  Each sum runs
    # over the contiguous last axis, in the order of kappa_sum's sum over directions.
    phi_d1 = np.ascontiguousarray(ctx.d1[:, rows, :].transpose(1, 2, 0))
    report.check_all(t, "kappa_phi_psi",
                     _rel_errs_guarded((phi_d1 * d1[:, None, :]).sum(axis=2),
                                       2.0 * ctx.phi[rows] * psi[:, None]),
                     tol, inputs)


# ---------------------------------------------------------------------------
# harmonicity / family / invariance suites
# ---------------------------------------------------------------------------

def verify_harmonic(morphism: Morphism, trials: int = 100, seed: int = 0,
                    tol: float | None = None) -> VerificationReport:
    """Normalized tau and kappa(f, f) residuals at in-domain sampled points."""
    return _certify("harmonic", [morphism], trials, seed, tol, lambda *members: "")


def verify_family(family: list[Morphism], trials: int = 100, seed: int = 0,
                  tol: float | None = None) -> VerificationReport:
    """All tau residuals and all pairwise kappa residuals (self-pairs included)."""
    return _certify("family", family, trials, seed, tol,
                    lambda *members: f"[{'|'.join(m.label for m in members)}]")


def _certify(suite: str, family: list[Morphism], trials: int, seed: int,
             tol: float | None, tag) -> VerificationReport:
    """tau of each member and kappa of each pair at in-domain points; quantity names
    are "tau" and "kappa" followed by tag(member) and tag(member_a, member_b).

    All trials go together: one stacked sample, one JetContext, one DAG walk per
    member, residuals as arrays over the trials and one oracle stencil walk per
    member.  Failures are recorded trial by trial, each trial's in the order of its
    quantities, then its oracle check or the error of its oracle stencil.
    """
    space = _family_space(family)
    if tol is None:
        tol = default_tolerance(space)
    report = VerificationReport(suite, space.id, [m.label for m in family], space.n,
                                trials, seed, tol)
    timer = _Timer(report)
    xs = sample_in_domain(family, seed, np.arange(trials))
    ctx = JetContext(space, xs, p_basis(space),
                     set().union(*(entry_columns(m.expr) for m in family)))
    walks = [eval_jet_cached(m.expr, ctx) for m in family]
    jets = [jet for jet, _ in walks]
    # a trial's error is its first failing member's, as evaluating member by member raises it
    errors = [next((e for e in es if e is not None), None) for es in zip(*(e for _, e in walks))]
    sums = [jet_sums(jet) for jet in jets]
    names = [f"tau{tag(m)}" for m in family]
    residuals = [normalized_residual(tau, energy) for tau, _, energy in sums]
    for a in range(len(family)):
        for b in range(a, len(family)):
            names.append(f"kappa{tag(family[a], family[b])}")
            # for a == b the scale is max(1, energy), since sqrt(E * E) == E
            scale = np.maximum(1.0, np.sqrt(sums[a][2] * sums[b][2]))
            residuals.append(np.abs(kappa_sum(jets[a], jets[b])) / scale)
    residuals = np.array([np.broadcast_to(r, trials) for r in residuals])
    ok = np.array([e is None for e in errors])
    if ok.any():
        for name, r in zip(names, residuals[:, ok]):
            # fmax, like check(): a NaN residual does not raise the maximum, but it fails
            report.bump(name, float(np.fmax.reduce(r)))
    oracle = np.arange(trials) % ORACLE_SUBSAMPLE == 0
    stencils = _central_differences(family, xs, np.flatnonzero(oracle & ok).tolist())
    for t in np.flatnonzero(~ok | (~(residuals <= tol)).any(axis=0) | oracle).tolist():
        inputs = _inputs(x=xs[t])
        if not ok[t]:
            report.record_failure(t, "evaluation-error", str(errors[t]), inputs)
            continue
        for name, r in zip(names, residuals[:, t].tolist()):
            if not r <= tol:
                report.record_failure(t, name, r, inputs)
        if t in stencils:
            a = t % len(family)
            _oracle_check(report, family[a], xs, t, jets[a], stencils[t])
    return timer.done()


def verify_invariance(morphism: Morphism, trials: int = 20, seed: int = 0,
                      tol: float = 1e-9) -> VerificationReport:
    """Right-stabilizer invariance, scale invariance, and vanishing stabilizer jets."""
    space = morphism.space
    report = VerificationReport("invariance", space.id, [morphism.label], space.n,
                                trials, seed, tol)
    timer = _Timer(report)
    k_gens = stabilizer_algebra(space)
    scaled = POSITIVE_SCALE in morphism.invariances
    for t, x in enumerate(sample_in_domain(morphism, seed, np.arange(trials))):
        k = sample_stabilizer_point(space, seed, index=t)
        r = rng_from_seed(seed, t, 7).uniform(0.5, 2.0) if scaled else None
        try:
            fx = eval_value(morphism.expr, space, x)
            fxk = eval_value(morphism.expr, space, x @ k)
            if scaled:
                frx = eval_value(morphism.expr, space, r * x)
            # first-jet form: Z(f) = 0 for Z in the stabilizer algebra
            j = eval_jet(morphism.expr, space, x, k_gens[t % len(k_gens)])
        except (EvaluationError, BranchCutError) as exc:
            report.record_failure(t, "evaluation-error", str(exc), _inputs(x=x))
            continue
        report.check(t, "stabilizer-right", abs(fxk - fx), tol, _inputs(x=x, k=k))
        if scaled:
            report.check(t, "positive-scale", abs(frx - fx), tol, _inputs(x=x))
        report.check(t, "stabilizer-jet", abs(j.d1), tol, _inputs(x=x))
    return timer.done()


def verify_bigcell(n: int, trials: int = 1000, seed: int = 0) -> VerificationReport:
    """All leading principal minors of g g* real positive for sampled g in SL(n, C)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    space = make_space("slc-su", n)
    report = VerificationReport("bigcell", space.id, [], n, trials, seed, 1e-10)
    timer = _Timer(report)
    for t, g in enumerate(sample_group_point(space, seed, index=np.arange(trials))):
        a = g @ g.conj().T
        minors = leading_principal_minors(a)
        for idx, m in enumerate(minors, start=1):
            m = complex(m)
            imag_rel = abs(m.imag) / max(abs(m), 1e-300)
            report.bump("minor_imag_rel", imag_rel)
            if imag_rel > 1e-10 or m.real <= 0:
                report.record_failure(t, f"minor_{idx}", m, _inputs(g=g))
    return timer.done()


def verify_basis_independence(morphism: Morphism, rotations: int = 10, seed: int = 0,
                              tol: float = 1e-9) -> VerificationReport:
    """tau/kappa agree between the stock basis and randomly rotated ones."""
    space = morphism.space
    report = VerificationReport("basis-independence", space.id, [morphism.label],
                                space.n, rotations, seed, tol)
    timer = _Timer(report)
    stock = p_basis(space)
    xs = sample_in_domain(morphism, seed, np.arange(rotations))
    # the stock-basis jets as _certify computes them, all trials in one walk
    jet, errors = eval_jet_cached(morphism.expr, JetContext(space, xs, stock))
    tau0, kap0, energy = (np.broadcast_to(a, rotations) for a in jet_sums(jet))
    for t, x in enumerate(xs):
        rot = rotated_basis(stock, rng_from_seed(seed, t, 11))
        rotated, rot_errors = eval_jet_cached(morphism.expr, JetContext(space, xs[t:t + 1], rot))
        error = errors[t] if errors[t] is not None else rot_errors[0]
        if error is not None:
            report.record_failure(t, "evaluation-error", str(error), _inputs(x=x))
            continue
        tau1, kap1, _ = (complex(np.ravel(a)[0]) for a in jet_sums(rotated))
        scale = max(1.0, float(energy[t]))
        report.check(t, "tau_rotation_diff", abs(tau1 - tau0[t]) / scale, tol, _inputs(x=x))
        report.check(t, "kappa_rotation_diff", abs(kap1 - kap0[t]) / scale, tol, _inputs(x=x))
    return timer.done()
