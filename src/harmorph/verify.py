"""Verification suites and machine-readable reports.

Every suite is deterministic given (parameters, seed): points are drawn
from the counter-based generator keyed by the seed and the trial index,
so a report fully determines a re-run.  Exact suites compare both sides
of an identity exactly, as Gaussian integers, and never report residuals;
float suites report the worst normalized residual per quantity and also push a
10% subsample through the finite-difference oracle.
"""

from __future__ import annotations

import bisect
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

# eval_jet is not called here, but stays a module global: perfbench/tracing.py wraps it by name
from .jets import (Jet2, JetContext, _eval, _values, base_map_value,  # noqa: F401
                   entry_columns, eval_jet, eval_jet_cached, fd_jet, jet_sums, kappa_sum,
                   normalized_residual, raise_first_error, rotated_basis)
from .morphisms import POSITIVE_SCALE, Morphism, _everywhere, _family_space, _joint_domain, _psi
from .sampling import (complex_rational_vector, first_accepted, generators, rational_vector,
                       sample_group_point, sample_stabilizer_point)
from .spaces import (HALF, SpaceSpec, _modulus, make_space, p_basis, p_basis_exact,
                     stabilizer_algebra, symplectic_J_entries, unit)

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
    """[re, im] of a finite float or complex value, else str(v): an error message, an
    exact value's text, or a nan or inf, which strict JSON does not have."""
    if isinstance(v, (float, complex, np.inexact)):
        c = complex(v)
        if math.isfinite(c.real) and math.isfinite(c.imag):
            return [c.real, c.imag]
    return str(v)


def _ser_mat(m: np.ndarray):
    return [[_ser_scalar(v) for v in row] for row in np.asarray(m)]


def _inputs(**stacks):
    """inputs(t) of a check: the matrices of trial t in the stacks, by name."""
    return lambda t: {k: _ser_mat(v[t]) for k, v in stacks.items()}


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
    # the keys (trial, check, entry) of the captured failures, and the checks so far
    _keys: list = field(default_factory=list, init=False, repr=False)
    _checks: int = field(default=0, init=False, repr=False)
    # when the suite started: the report is made first, and done() stops the clock
    _t0: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def check(self, quantity: str, values, tol: float | None, inputs, checked=True) -> np.ndarray:
        """One check of every trial: values has a leading axis over the trials, and only
        the entries where the mask checked is true count.

        With a tol, a value is a residual: it fails unless <= tol, and the quantity's
        maximum takes it in, a NaN included.  With tol None, a value is an error
        message, or None for no error, and fails unless None.  inputs(t) gives a
        failing trial's inputs.  Returns the pass mask: true where no entry fails.
        """
        values = np.asarray(values)
        checked = np.broadcast_to(checked, values.shape)
        if tol is None:
            failing = checked & np.not_equal(values, None)
        else:
            if checked.any():
                self.max_residuals[quantity] = float(np.max(
                    values, where=checked, initial=self.max_residuals.get(quantity, 0.0)))
            failing = checked & ~(values <= tol)
        self._checks += 1
        if failing.any():
            per_trial = math.prod(values.shape[1:])
            at = np.flatnonzero(failing)
            self.failed_trials.update(np.unique(at // per_trial).tolist())
            for p in at[:MAX_CAPTURED_FAILURES].tolist():
                trial, entry = divmod(p, per_trial)
                self.record_failure(trial, quantity, values.flat[p], partial(inputs, trial), entry)
        return ~failing

    def record_failure(self, trial: int, quantity: str, value, inputs=None, entry: int = 0) -> None:
        """A failure of a trial at an entry of the latest check.  The report captures the
        first MAX_CAPTURED_FAILURES by (trial, check, entry), with their inputs: a dict,
        a function returning one, or None."""
        self.passed = False
        self.failed_trials.add(trial)
        key = (trial, self._checks, entry)
        at = bisect.bisect(self._keys, key)
        if at < MAX_CAPTURED_FAILURES:
            failure = {"trial": trial, "quantity": quantity, "value": _ser_scalar(value)}
            if inputs is not None:
                failure["inputs"] = inputs() if callable(inputs) else inputs
            self._keys.insert(at, key)
            self.failures.insert(at, failure)
            del self._keys[MAX_CAPTURED_FAILURES:], self.failures[MAX_CAPTURED_FAILURES:]

    def done(self) -> VerificationReport:
        """Set the wall time since the report was made, and return the report."""
        self.wall_time = time.perf_counter() - self._t0
        return self

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
        worst = float(np.max(list(report.max_residuals.values())))  # nan if any is nan
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
    lines.append(f"  wall time  : {report.wall_time:.3g}s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# exact identity suites
# ---------------------------------------------------------------------------

def verify_lemma_formula_real(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Both exact sum identities over the symmetric/diagonal and Y families."""
    report = VerificationReport("lemma-formula-real", None, [], n, trials, seed, None)
    skew = [(unit(n, k, l, -1), HALF) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    families = (("symmetric-family identity", 1,
                 _integer_family(p_basis_exact(make_space("slr-so", n)))),
                ("antisymmetric-family identity", -1, _integer_family(skew)))
    eye = _eye(n)
    failing, gaps = {}, np.full((len(families), trials), None, dtype=object)
    for t, rng in enumerate(generators(seed, np.arange(trials))):
        vecs = rational_vector(rng, n)
        scales, (x, y, a, b) = zip(*vecs)
        # sum_m c (x m y)(a m b) = 1/2 (<a, x><y, b> +- <y, a><x, b>), all parts real
        ax_yb = _gmul(_form(eye, a, x), _form(eye, y, b))[0]
        ya_xb = _gmul(_form(eye, y, a), _form(eye, x, b))[0]
        for q, (_, sign, (denom, family)) in enumerate(families):
            gap = _family_sum(family, x, y, a, b)[0] - denom // 2 * (ax_yb + sign * ya_xb)
            if gap:
                gaps[q, t] = _exact_text(gap, 0, denom * math.prod(scales))
                failing[t] = vecs
    for (quantity, _, _), values in zip(families, gaps):
        report.check(quantity, values, None, _vector_inputs(failing))
    return report.done()


def verify_lemma_long(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Exact quaternionic sum identity over the five block families."""
    report = VerificationReport("lemma-long", None, [], n, trials, seed, None)
    denom, family = _integer_family(p_basis_exact(make_space("sus-sp", n)))
    J = symplectic_J_entries(n)
    eye = _eye(2 * n)
    failing, gaps = {}, np.full(trials, None, dtype=object)
    for t, rng in enumerate(generators(seed, np.arange(trials))):
        vecs = complex_rational_vector(rng, 2 * n)
        scales, (x, y, a, b) = zip(*vecs)
        # sum_m c (a m b*)(x m y*) = 1/2 ((x b*)(a y*) + (x J a) conj(y J b)); with J real,
        # x J a is the form of J at (x, conj a) and conj(y J b) its form at (conj y, b)
        ca, cy = ([(re, -im) for re, im in v] for v in (a, y))
        herm = _gmul(_form(eye, x, b), _form(eye, a, y))
        omega = _gmul(_form(J, x, ca), _form(J, cy, b))
        lhs = _family_sum(family, x, y, a, b)
        gap = [lhs[p] - denom // 2 * (herm[p] + omega[p]) for p in (0, 1)]
        if any(gap):
            gaps[t] = _exact_text(*gap, denom * math.prod(scales))
            failing[t] = vecs
    report.check("quaternionic sum identity", gaps, None, _vector_inputs(failing))
    return report.done()


# Both identities are linear or conjugate-linear in each of x, y, alpha, beta, so
# they are checked on the Gaussian-integer multiples L v that the draws give and
# with both sides times D, the lcm of 2 and the scale_sq denominators: the exact
# claim at the same points, compared with int ==.  A complex number is an int pair.

def _eye(d: int) -> list[tuple[int, int, int, int]]:
    return [(i, i, 1, 0) for i in range(d)]


def _integer_family(basis: list) -> tuple[int, list]:
    """(D, [(D scale_sq, entries), ...]) of an exact basis, D as above."""
    denom = math.lcm(2, *(c.denominator for _, c in basis))
    return denom, [(c.numerator * (denom // c.denominator), m) for m, c in basis]


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


def _exact_text(re: int, im: int, denom: int) -> str:
    """The text of (re + im i) / denom, denom >= 1, in lowest terms: the real part alone
    when im is 0, else (a+bi) or (a-bi) with b = |im| / denom."""
    a = Fraction(re, denom)
    return f"({a}{'-' if im < 0 else '+'}{Fraction(abs(im), denom)}i)" if im else str(a)


def _vector_inputs(failing):
    """inputs(t) of an exact check: the four drawn vectors (L, pairs) of failing trial
    t, each entry in lowest terms.  Only failing trials keep theirs: holding every
    trial's vectors costs the suite extra garbage collections."""
    return lambda t: {name: [_exact_text(re, im, scale) for re, im in pairs]
                      for name, (scale, pairs) in zip(("x", "y", "alpha", "beta"), failing[t])}


# ---------------------------------------------------------------------------
# in-domain sampling and the finite-difference cross-check
# ---------------------------------------------------------------------------

_DOMAIN_ATTEMPTS = 1000


def sample_in_domain(morphisms: Morphism | list[Morphism], seed: int,
                     trial: int | np.ndarray) -> np.ndarray:
    """A group point of the trial inside the domain of the morphism, or of every member;
    for an array of trials, a stack of them.

    Round r tries the group point of index trial * 1000 + r of every trial still
    without a point, drawn as one stack, and calls the members' joint domain
    (morphisms._joint_domain) once per point, unless it is _everywhere.
    """
    family = morphisms if isinstance(morphisms, list) else [morphisms]
    space = family[0].space
    domain = _joint_domain(family)

    def draw(trials, r):
        x = sample_group_point(space, seed, index=trials * _DOMAIN_ATTEMPTS + r)
        if domain is _everywhere:
            return x, np.ones(len(x), dtype=bool)
        return x, np.array([domain(p) for p in x], dtype=bool)

    labels = ", ".join(m.label for m in family)
    return first_accepted(trial, space.ambient_dim, draw, _DOMAIN_ATTEMPTS, SamplingError(
        f"no in-domain point for {labels} after {_DOMAIN_ATTEMPTS} attempts"))


def _oracle(family: list[Morphism], xs: np.ndarray, jets: list[Jet2], ok: np.ndarray):
    """The oracle cross-check over the trials: (checked, residual, stencil error).

    Every ORACLE_SUBSAMPLE-th trial whose jets evaluated is checked, if the space
    has tangent directions.  Trial t compares the suite's jet of member t % len(family)
    with its central differences at the trial's point along basis direction
    t % len(basis): one fd_jet call per member, over that member's trials.
    """
    basis = p_basis(family[0].space)
    trials = np.arange(len(xs))
    checked = ok & (trials % ORACLE_SUBSAMPLE == 0) & (len(basis) > 0)
    residual = np.zeros(len(xs))
    errors = np.full(len(xs), None, dtype=object)
    for a, (m, jet) in enumerate(zip(family, jets)):
        ts = np.flatnonzero(checked & (trials % len(family) == a))
        if not ts.size:
            continue
        zi = ts % len(basis)
        stencil_errors = np.full(ts.size, None, dtype=object)
        fd = fd_jet(m.expr, m.space, xs[ts], basis[zi], h=ORACLE_STEP, errors=stencil_errors)
        errors[ts] = stencil_errors
        v = np.broadcast_to(jet.v, len(xs))[ts]
        d1, d2 = (np.broadcast_to(j, (len(basis), len(xs)))[zi, ts] for j in (jet.d1, jet.d2))
        scale = np.maximum(1.0, _modulus(v) + _modulus(d1) + _modulus(d2))
        residual[ts] = (_modulus(d1 - fd.d1) + _modulus(d2 - fd.d2)) / scale
    return checked, residual, errors


# ---------------------------------------------------------------------------
# derivative-constant lemmas
# ---------------------------------------------------------------------------

# trials per JetContext: the kappa(phi, phi) of a whole stack at once grow the peak memory
_LEMMA_BLOCK = 10


def _rel_errs_guarded(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The relative error of each entry, and the mask leaving out those with |rhs| < RATIO_GUARD."""
    keep = ~(np.abs(rhs) < RATIO_GUARD)
    return np.abs(lhs - rhs) / np.where(keep, np.abs(rhs), 1.0), keep


def verify_derivative_lemmas(space: SpaceSpec, trials: int = 100, seed: int = 0,
                             tol: float = 1e-8, ratio_tol: float = 1e-9) -> VerificationReport:
    """The appendix derivative-constant relations at sampled points."""
    if space.id not in ("slr-so", "sus-sp"):
        raise ValueError(f"derivative lemmas cover slr-so and sus-sp, not {space.id}")
    report = VerificationReport(f"derivative-lemmas:{space.id}", space.id, [], space.n,
                                trials, seed, tol)
    x = sample_group_point(space, seed, index=np.arange(trials))
    blocks = [{name: _rel_errs_guarded(lhs, rhs) for name, lhs, rhs in
               _lemma_relations(space, JetContext(space, x[s:s + _LEMMA_BLOCK], p_basis(space)))}
              for s in range(0, trials, _LEMMA_BLOCK)]
    for name in blocks[0]:
        rel, keep = (np.concatenate([b[name][i] for b in blocks]) for i in (0, 1))
        report.check(name, rel, ratio_tol if name == "tau_phi_ratio" else tol, _inputs(x=x), keep)
    return report.done()


_PSI = _psi(1, 2)


def _lemma_relations(space: SpaceSpec, ctx: JetContext):
    """(quantity, lhs, rhs) of each relation at the context's stack of points."""
    n = space.ambient_dim
    # contiguous derivatives: the broadcast products below then run over long inner loops
    phi = Jet2(ctx.phi, np.ascontiguousarray(ctx.d1), np.ascontiguousarray(ctx.d2))
    p = ctx.phi
    # (i) tau(phi_kl) = c * phi_kl, as a ratio where phi_kl is nonzero
    c_tau = 2 * (space.n + 1) if space.id == "slr-so" else 4 * space.n - 2
    yield "tau_phi_ratio", jet_sums(phi)[0], c_tau * p
    if space.id == "sus-sp":
        # shared second index: kappa(phi_kl, phi_rl) = 2 phi_kl phi_rl, indexed [l, k, r]
        kap = kappa_sum(phi[:, None, :], phi[None, :, :])  # indexed [k, r, l]
        pt = np.swapaxes(p, -1, -2)
        yield ("kappa_phi_phi_shared_col", np.moveaxis(kap, -1, -3),
               2.0 * pt[..., :, None] * pt[..., None, :])
        return
    # (ii) the kappa(phi, phi) product formula, indexed [k, l, i, j]
    yield "kappa_phi_phi", kappa_sum(phi[:, :, None, None], phi[None, None, :, :]), 2.0 * (
        np.einsum("...ki,...lj->...klij", p, p) + np.einsum("...kj,...li->...klij", p, p))
    rows, cols = kl = np.triu_indices(n, 1)  # the pairs k < l, in C order
    if not rows.size:
        return
    # (iii)-(v): the sqrt components psi_kl, one walk over the stack of (points, pairs);
    # entry (i, j) of the 2x2 minor on rows and columns (k, l) is phi[kl[i - 1], kl[j - 1]]
    psi, errors = _eval(_PSI, lambda i, j: phi[kl[i - 1], kl[j - 1]], p.shape[:-2] + rows.shape)
    raise_first_error(errors)
    tau_psi, kappa_psi, _ = jet_sums(psi)
    # (iv) kappa(psi, psi) = 2 psi^2
    yield "kappa_psi_psi", kappa_psi, 2.0 * psi.v ** 2
    # (v) tau(psi) = 2(n-1) psi
    yield "tau_psi", tau_psi, 2.0 * (n - 1) * psi.v
    # (iii) kappa(phi_km, psi_kl) = 2 phi_km psi_kl, indexed [pair, m]
    yield ("kappa_phi_psi", kappa_sum(phi[rows, :], psi[:, None]),
           2.0 * p[..., rows, :] * psi.v[..., None])


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


def _first_errors(*records) -> np.ndarray:
    """Each point's first error over the error records, taken in order, or None."""
    out = np.full(np.shape(records[0]), None, dtype=object)
    for r in reversed(records):
        out = np.where(np.equal(r, None), out, r)
    return out


def _certify(suite: str, family: list[Morphism], trials: int, seed: int,
             tol: float | None, tag) -> VerificationReport:
    """tau of each member and kappa of each pair at in-domain points; quantity names
    are "tau" and "kappa" followed by tag(member) and tag(member_a, member_b).

    All trials go together: one stacked sample, one JetContext, one DAG walk per
    member, residuals as arrays over the trials and one oracle stencil walk per
    member.  A trial whose jets fail to evaluate records its first member's error.
    """
    space = _family_space(family)
    if tol is None:
        tol = default_tolerance(space)
    report = VerificationReport(suite, space.id, [m.label for m in family], space.n,
                                trials, seed, tol)
    xs = sample_in_domain(family, seed, np.arange(trials))
    ctx = JetContext(space, xs, p_basis(space),
                     set().union(*(entry_columns(m.expr) for m in family)))
    jets, records = zip(*(eval_jet_cached(m.expr, ctx) for m in family))
    errors = _first_errors(*records)
    inputs = _inputs(x=xs)
    ok = report.check("evaluation-error", errors, None, inputs)
    # a sum that overflows ends as a NaN residual, which fails, and warns of nothing
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [jet_sums(jet) for jet in jets]
        for m, (tau, _, energy) in zip(family, sums):
            report.check(f"tau{tag(m)}", np.broadcast_to(normalized_residual(tau, energy), trials),
                         tol, inputs, ok)
        for a in range(len(family)):
            for b in range(a, len(family)):
                # for a == b the scale is the energy, since sqrt(E * E) == E
                scale = np.sqrt(sums[a][2] * sums[b][2])
                kappa = sums[a][1] if a == b else kappa_sum(jets[a], jets[b])
                report.check(f"kappa{tag(family[a], family[b])}",
                             np.broadcast_to(normalized_residual(kappa, scale), trials),
                             tol, inputs, ok)
    checked, residual, stencil_errors = _oracle(family, xs, jets, ok)
    oracle_inputs = lambda t: {"morphism": family[t % len(family)].label, "x": _ser_mat(xs[t])}
    report.check("oracle-evaluation-error", stencil_errors, None, oracle_inputs, checked)
    report.check("oracle", residual, ORACLE_ABS_TOL, oracle_inputs,
                 checked & np.equal(stencil_errors, None))
    return report.done()


def verify_invariance(morphism: Morphism, trials: int = 20, seed: int = 0,
                      tol: float = 1e-9) -> VerificationReport:
    """Right-stabilizer invariance, scale invariance, and vanishing stabilizer jets.

    One walk of the values at every x, x k and r x, and one of the jets at every x
    along every generator of the stabilizer algebra; trial t takes generator
    t % len(generators).
    """
    space = morphism.space
    report = VerificationReport("invariance", space.id, [morphism.label], space.n,
                                trials, seed, tol)
    scaled = POSITIVE_SCALE in morphism.invariances
    xs = sample_in_domain(morphism, seed, np.arange(trials))
    ks = sample_stabilizer_point(space, seed, np.arange(trials))
    points = [xs, xs @ ks]
    if scaled:
        r = np.array([rng.uniform(0.5, 2.0) for rng in generators(seed, np.arange(trials), 7)])
        points.append(r[:, None, None] * xs)
    values, value_errors = _values(morphism.expr, space, np.stack(points))
    k_gens = stabilizer_algebra(space)
    jet, jet_errors = eval_jet_cached(morphism.expr, JetContext(space, xs, np.array(k_gens)))
    t = np.arange(trials)
    # first-jet form: Z(f) = 0 for Z in the stabilizer algebra
    d1 = np.broadcast_to(jet.d1, (len(k_gens), trials))[t % len(k_gens), t]
    errors = _first_errors(*value_errors, jet_errors)
    ok = report.check("evaluation-error", errors, None, _inputs(x=xs))
    report.check("stabilizer-right", _modulus(values[1] - values[0]), tol, _inputs(x=xs, k=ks), ok)
    if scaled:
        report.check("positive-scale", _modulus(values[2] - values[0]), tol, _inputs(x=xs), ok)
    report.check("stabilizer-jet", _modulus(d1), tol, _inputs(x=xs), ok)
    return report.done()


def verify_bigcell(n: int, trials: int = 1000, seed: int = 0) -> VerificationReport:
    """All leading principal minors of g g* real positive for sampled g in SL(n, C)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    space = make_space("slc-su", n)
    report = VerificationReport("bigcell", space.id, [], n, trials, seed, 1e-10)
    g = sample_group_point(space, seed, index=np.arange(trials))
    gg = base_map_value(space, g, check=False)  # g g*
    minors = np.stack([np.linalg.det(gg[:, :k, :k]) for k in range(1, n + 1)], axis=-1)
    imag_rel = np.abs(minors.imag) / np.maximum(_modulus(minors), 1e-300)
    # the maximum only: a failing minor is recorded by its index, with its value
    report.check("minor_imag_rel", imag_rel, math.inf, _inputs(g=g))
    bad = (imag_rel > 1e-10) | (minors.real <= 0)
    for i in range(n):
        report.check(f"minor_{i + 1}", np.where(bad[:, i], minors[:, i], None), None, _inputs(g=g))
    return report.done()


def verify_basis_independence(morphism: Morphism, rotations: int = 10, seed: int = 0,
                              tol: float = 1e-9) -> VerificationReport:
    """tau/kappa agree between the stock basis and randomly rotated ones."""
    space = morphism.space
    report = VerificationReport("basis-independence", space.id, [morphism.label],
                                space.n, rotations, seed, tol)
    stock = p_basis(space)
    xs = sample_in_domain(morphism, seed, np.arange(rotations))
    # the stock-basis jets as _certify computes them, all trials in one walk
    jet, errors = eval_jet_cached(morphism.expr, JetContext(space, xs, stock))
    tau0, kap0, energy = (np.broadcast_to(a, rotations) for a in jet_sums(jet))
    # each trial's point alone along its own rotation of the basis
    tau1, kap1 = np.empty((2, rotations), dtype=complex)
    for t, rng in enumerate(generators(seed, np.arange(rotations), 11)):
        rotated, rot_errors = eval_jet_cached(
            morphism.expr, JetContext(space, xs[t:t + 1], rotated_basis(stock, rng)))
        errors[t] = errors[t] if errors[t] is not None else rot_errors[0]
        tau1[t], kap1[t], _ = (np.ravel(a)[0] for a in jet_sums(rotated))
    inputs = _inputs(x=xs)
    ok = report.check("evaluation-error", errors, None, inputs)
    scale = np.maximum(1.0, energy)
    report.check("tau_rotation_diff", _modulus(tau1 - tau0) / scale, tol, inputs, ok)
    report.check("kappa_rotation_diff", _modulus(kap1 - kap0) / scale, tol, inputs, ok)
    return report.done()
