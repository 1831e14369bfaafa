"""Verification suites and machine-readable reports.

Every suite is deterministic given (parameters, seed): points are drawn
from the counter-based generator keyed by the seed and the trial index,
so a report fully determines a re-run.  The exact suites sample nothing: they
prove each sum identity at the given n by comparing the Gaussian-integer
coefficients of its two sides, and never report residuals; their trials and
seed are recorded only.  Float suites report the worst normalized residual per
quantity and also push a 10% subsample through the finite-difference oracle.
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
from .jets import (Jet2, JetContext, _direction_sum, _eval, _first_errors, _gram,  # noqa: F401
                   _values, base_map_value, eval_jet, eval_jet_cached, fd_jet, jet_sums,
                   kappa_sum, normalized_residual, raise_first_error, rotated_basis)
from .morphisms import POSITIVE_SCALE, Morphism, _everywhere, _family_space, _joint_domain, _psi
# rational_vector and complex_rational_vector are not called here, but stay module globals:
# perfbench/tracing.py wraps them by name
from .sampling import (complex_rational_vector, first_accepted, rational_vector,  # noqa: F401
                       sample_group_point, sample_stabilizer_point, uniforms)
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

# the entries the derivative-lemma suite computes per block of trials, which bound its
# memory, since each block's relations go to check and are dropped: a trial counts d^4,
# its kappa(phi_kl, phi_ij) on slr-so and about its 2 dirs d^2 jet entries on sus-sp
_BLOCK_ENTRIES = 2**13

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

    def check(self, quantity: str, values, tol: float | None, inputs, checked=True,
              first: int = 0) -> np.ndarray:
        """One check of a block of trials: values has a leading axis over the trials
        first, first + 1, ..., and only the entries where the mask checked is true count.
        A quantity checked block by block accumulates its maximum and its failures.

        With a tol, a value is a residual: it fails unless <= tol, and the quantity's
        maximum takes it in, a NaN included.  With tol None, a value is an error
        message, or None for no error, and fails unless None.  inputs(t) gives failing
        trial t's inputs.  Returns the pass mask: true where no entry fails.
        """
        values = np.asarray(values)
        checked = np.broadcast_to(checked, values.shape)
        if tol is None:
            failing = checked & np.not_equal(values, None)
        else:
            if checked.any():
                self.max_residuals[quantity] = float(np.maximum(
                    self.max_residuals.get(quantity, 0.0), values[checked].max()))
            failing = checked & ~(values <= tol)
        self._checks += 1
        if failing.any():
            per_trial = math.prod(values.shape[1:])
            at = np.flatnonzero(failing)
            self.failed_trials.update((first + np.unique(at // per_trial)).tolist())
            for p in at[:MAX_CAPTURED_FAILURES].tolist():
                trial, entry = divmod(p, per_trial)
                trial += first
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
    """Both exact sum identities over the symmetric/diagonal and Y families, proved from
    their coefficients; trials and seed are recorded, and the proof depends on neither."""
    report = VerificationReport("lemma-formula-real", None, [], n, trials, seed, None)
    skew = [(unit(n, k, l, -1), HALF) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    eye = _table([[(i, i, 1, 0) for i in range(n)]])
    for quantity, sign, basis in (
            ("symmetric-family identity", 1, p_basis_exact(make_space("slr-so", n))),
            ("antisymmetric-family identity", -1, skew)):
        denom, weights, table = _integer_family(basis)
        half = np.array([denom // 2])
        # sum_m c (x m y)(a m b) = 1/2 (<a, x><y, b> +- <y, a><x, b>): the identity's
        # entries (p, p) and (q, q) give x_p y_q a_p b_q and x_p y_q a_q b_p
        _prove(report, quantity, n, denom, _pair_terms(weights, table, n),
               _pair_terms(half, eye, n, (0, 2, 1, 3)),
               _pair_terms(sign * half, eye, n, (0, 2, 3, 1)))
    return report.done()


def verify_lemma_long(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Exact quaternionic sum identity over the five block families, proved from its
    coefficients; trials and seed are recorded, and the proof depends on neither."""
    report = VerificationReport("lemma-long", None, [], n, trials, seed, None)
    denom, weights, table = _integer_family(p_basis_exact(make_space("sus-sp", n)))
    half = np.array([denom // 2])
    # sum_m c (a m b*)(x m y*) = 1/2 ((x b*)(a y*) + (x J a) conj(y J b)), with J real: the
    # identity's entries (p, p) and (q, q) give a_p conj(b_q) x_q conj(y_p), and J's
    # entries (k, i) and (l, j) give J_ki J_lj a_i conj(b_j) x_k conj(y_l)
    d = 2 * n
    _prove(report, "quaternionic sum identity", d, denom, _pair_terms(weights, table, d),
           _pair_terms(half, _table([[(i, i, 1, 0) for i in range(d)]]), d, (0, 2, 3, 1)),
           _pair_terms(half, _table([symplectic_J_entries(n)]), d, (1, 3, 0, 2)))
    return report.done()


# Both identities are linear in x and alpha and conjugate-linear in y and beta, so each
# holds for all vectors iff its sides agree on the coefficient of every monomial: of
# x_i y_j alpha_k beta_l in the real identities, and of alpha_i conj(beta_j) x_k conj(y_l)
# in the quaternionic one.  On the left it is T_ijkl = sum of c m_ij m_kl over the basis
# elements m, so comparing the coefficients proves the identity at that n.  Both sides are
# taken times D, the lcm of 2 and the scale_sq denominators, which makes every coefficient
# a Gaussian integer.  A basis or form is an entry table: the entries (i, j, Re m_ij,
# Im m_ij) of each member m, as int64 of shape (4, members, E), padded with zero entries.

def _table(members) -> np.ndarray:
    """The entry table of a list of members, each a tuple of entries."""
    table = np.zeros((4, len(members), max(map(len, members), default=0)), dtype=np.int64)
    for k, m in enumerate(members):
        table[:, k, :len(m)] = np.reshape(m, (-1, 4)).T
    return table


def _integer_family(basis: list) -> tuple[int, np.ndarray, np.ndarray]:
    """(D, weights, table) of an exact basis: D as above, each element's weight D scale_sq,
    and the elements' entry table."""
    denom = math.lcm(2, *(c.denominator for _, c in basis))
    weights = np.array([c.numerator * (denom // c.denominator) for _, c in basis], dtype=np.int64)
    return denom, weights, _table([m for m, _ in basis])


def _pair_terms(weights, table, d: int, order=(0, 1, 2, 3)) -> tuple[np.ndarray, np.ndarray]:
    """The terms w m_ij m_kl of each member m of the table and its weight w, one per ordered
    pair of m's entries: the flat index of (i, j, k, l) taken in the given order, each
    index below d, and their (Re, Im) of shape (2, terms).  Exact in int64, as the weights
    and the entries' parts are small."""
    (i, j, re, im), (k, l, re2, im2) = table[..., :, None], table[..., None, :]
    index, key = (i, j, k, l), 0
    for a in order:
        key = key * d + index[a]
    w = weights[:, None, None]
    values = np.stack((w * (re * re2 - im * im2), w * (re * im2 + im * re2)))
    return key.ravel(), values.reshape(2, -1)


def _prove(report, quantity: str, d: int, denom: int, lhs, *rhs) -> None:
    """Compare the coefficients that the terms of lhs and those of rhs sum to: a coefficient
    whose sides differ is a failure of trial 0, at the entry of its flat index, with its
    (i, j, k, l) and both sides, divided by denom, in lowest terms."""
    terms = (lhs,) + rhs
    coefficients, at = np.unique(np.concatenate([key for key, _ in terms]), return_inverse=True)
    side = np.repeat([0] + [1] * len(rhs), [key.size for key, _ in terms])
    sums = np.zeros((2, len(coefficients), 2), dtype=np.int64)  # [lhs/rhs, coefficient, Re/Im]
    np.add.at(sums, (side, at), np.concatenate([values for _, values in terms], axis=1).T)
    # only the first failing coefficients can be captured; a quantity needs no more
    for r in np.flatnonzero((sums[0] != sums[1]).any(-1))[:MAX_CAPTURED_FAILURES].tolist():
        (lre, lim), (rre, rim) = sums[:, r].tolist()
        key = int(coefficients[r])
        report.record_failure(0, quantity, _exact_text(lre - rre, lim - rim, denom), {
            "coefficient": [int(i) for i in np.unravel_index(key, (d,) * 4)],
            "lhs": _exact_text(lre, lim, denom), "rhs": _exact_text(rre, rim, denom)}, key)


def _exact_text(re: int, im: int, denom: int) -> str:
    """The text of (re + im i) / denom, denom >= 1, in lowest terms: the real part alone
    when im is 0, else (a+bi) or (a-bi) with b = |im| / denom."""
    a = Fraction(re, denom)
    return f"({a}{'-' if im < 0 else '+'}{Fraction(abs(im), denom)}i)" if im else str(a)


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


def _oracle(family: list[Morphism], ctx: JetContext, jets: list[Jet2], ok: np.ndarray):
    """The oracle cross-check over the trials at ctx's points: (checked, residual, stencil error).

    Every ORACLE_SUBSAMPLE-th trial whose jets evaluated is checked, if the space
    has tangent directions.  Trial t compares the suite's jet of member t % len(family)
    with its central differences at the trial's point along basis direction
    t % len(basis): one fd_jet call per member, over that member's trials.
    """
    xs, basis = ctx.x, ctx.basis
    trials = np.arange(len(xs))
    checked = ok & (trials % ORACLE_SUBSAMPLE == 0) & (len(basis) > 0)
    residual = np.zeros(len(xs))
    errors = np.full(len(xs), None, dtype=object)
    for a, (m, jet) in enumerate(zip(family, jets)):
        ts = np.flatnonzero(checked & (trials % len(family) == a))
        if not ts.size:
            continue
        zi = ts % len(basis)
        fd, errors[ts] = fd_jet(m.expr, ctx, ts, zi, h=ORACLE_STEP)
        v = np.broadcast_to(jet.v, len(xs))[ts]
        d1, d2 = (np.broadcast_to(j, (len(basis), len(xs)))[zi, ts] for j in (jet.d1, jet.d2))
        scale = np.maximum(1.0, _modulus(v) + _modulus(d1) + _modulus(d2))
        residual[ts] = (_modulus(d1 - fd.d1) + _modulus(d2 - fd.d2)) / scale
    return checked, residual, errors


# ---------------------------------------------------------------------------
# derivative-constant lemmas
# ---------------------------------------------------------------------------

def _rel_errs_guarded(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The relative error of each entry, and the mask leaving out those with |rhs| < RATIO_GUARD."""
    keep = ~(np.abs(rhs) < RATIO_GUARD)
    return np.abs(lhs - rhs) / np.where(keep, np.abs(rhs), 1.0), keep


def _blocks(trials: int, entries: int) -> list[range]:
    """The trials of each block, at entries a trial: _BLOCK_ENTRIES entries, or one trial."""
    size = max(1, _BLOCK_ENTRIES // entries)
    return [range(s, min(s + size, trials)) for s in range(0, trials, size)]


def verify_derivative_lemmas(space: SpaceSpec, trials: int = 100, seed: int = 0,
                             tol: float = 1e-8, ratio_tol: float = 1e-9) -> VerificationReport:
    """The appendix derivative-constant relations at sampled points."""
    if space.id not in ("slr-so", "sus-sp"):
        raise ValueError(f"derivative lemmas cover slr-so and sus-sp, not {space.id}")
    report = VerificationReport(f"derivative-lemmas:{space.id}", space.id, [], space.n,
                                trials, seed, tol)
    x = sample_group_point(space, seed, index=np.arange(trials))
    inputs = _inputs(x=x)
    for t in _blocks(trials, space.ambient_dim ** 4):
        ctx = JetContext(space, x[t.start:t.stop], p_basis(space))
        for name, lhs, rhs in _lemma_relations(space, ctx):
            rel, keep = _rel_errs_guarded(lhs, rhs)
            report.check(name, rel, ratio_tol if name == "tau_phi_ratio" else tol, inputs, keep,
                         t.start)
    return report.done()


_PSI = _psi(1, 2)


def _lemma_relations(space: SpaceSpec, ctx: JetContext):
    """(quantity, lhs, rhs) of each relation at the context's stack of points."""
    n = space.ambient_dim
    phi, p = Jet2(ctx.phi, ctx.d1, ctx.d2), ctx.phi
    # (i) tau(phi_kl) = c * phi_kl, as a ratio where phi_kl is nonzero
    c_tau = 2 * (space.n + 1) if space.id == "slr-so" else 4 * space.n - 2
    yield "tau_phi_ratio", _direction_sum(phi.d2), c_tau * p
    if space.id == "sus-sp":
        # shared second index: kappa(phi_kl, phi_rl) = 2 phi_kl phi_rl, indexed [l, k, r]
        pt = np.swapaxes(p, -1, -2)
        yield ("kappa_phi_phi_shared_col", _gram(np.swapaxes(phi.d1, -1, -2)),
               2.0 * pt[..., :, None] * pt[..., None, :])
        return
    # (ii) the kappa(phi, phi) product formula, indexed [k, l, i, j]
    kap = _gram(phi.d1.reshape(phi.d1.shape[:-2] + (n * n,))).reshape(p.shape + (n, n))
    yield "kappa_phi_phi", kap, 2.0 * (p[..., :, None, :, None] * p[..., None, :, None, :]
                                       + p[..., :, None, None, :] * p[..., None, :, :, None])
    rows, cols = kl = np.triu_indices(n, 1)  # the pairs k < l, in C order
    if not rows.size:
        return
    # (iii)-(v): the sqrt components psi_kl, one walk over the stack of (points, pairs);
    # entry (i, j) of the 2x2 minor on rows and columns (k, l) is phi[kl[i - 1], kl[j - 1]]
    psi, errors = _eval(_PSI, lambda i, j: phi[kl[i - 1], kl[j - 1]], p.shape[:-2] + rows.shape)
    raise_first_error(errors)
    # (iv) kappa(psi, psi) = 2 psi^2
    yield "kappa_psi_psi", kappa_sum(psi, psi), 2.0 * psi.v ** 2
    # (v) tau(psi) = 2(n-1) psi
    yield "tau_psi", _direction_sum(psi.d2), 2.0 * (n - 1) * psi.v
    # (iii) kappa(phi_km, psi_kl) = 2 phi_km psi_kl, indexed [pair, m]
    yield ("kappa_phi_psi", _gram(phi.d1[..., rows, :], psi.d1),
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


def _certify(suite: str, family: list[Morphism], trials: int, seed: int,
             tol: float | None, tag) -> VerificationReport:
    """tau of each member and kappa of each pair at in-domain points; quantity names
    are "tau" and "kappa" followed by tag(member) and tag(member_a, member_b).

    All trials go together: one stacked sample, one JetContext, one DAG walk per
    member, residuals as arrays over the trials and one oracle stencil walk per
    member.  The context is _stock_context's, shared with the calls before on the
    same points, with its base-map columns and oracle stencils.  A trial whose jets
    fail to evaluate records its first member's error.
    """
    space = _family_space(family)
    if tol is None:
        tol = default_tolerance(space)
    report = VerificationReport(suite, space.id, [m.label for m in family], space.n,
                                trials, seed, tol)
    xs = sample_in_domain(family, seed, np.arange(trials))
    ctx = _stock_context(space, xs)
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
    checked, residual, stencil_errors = _oracle(family, ctx, jets, ok)
    oracle_inputs = lambda t: {"morphism": family[t % len(family)].label, "x": _ser_mat(xs[t])}
    report.check("oracle-evaluation-error", stencil_errors, None, oracle_inputs, checked)
    report.check("oracle", residual, ORACLE_ABS_TOL, oracle_inputs,
                 checked & np.equal(stencil_errors, None))
    return report.done()


# the stock-basis JetContext of the latest stack of points _certify walked
_held: JetContext | None = None


def _stock_context(space: SpaceSpec, xs: np.ndarray) -> JetContext:
    """The stock-basis JetContext at the stack of points xs.  It is held until a call
    on another space or stack, so every map of one space at one seed, whose points
    are the same, shares one context with the base-map columns and oracle stencils it
    keeps.  Only one is held: on a miss the old one, with all it keeps, goes before
    the new one is built."""
    global _held
    basis = p_basis(space)
    if not (_held is not None and _held.space == space and _held.basis is basis
            and _same_bits(_held.x, xs)):
        _held = None
        _held = JetContext(space, xs, basis)
    return _held


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the arrays have the same dtype, shape and bits, so that every product
    of theirs is the same."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        r = 0.5 + 1.5 * uniforms(seed, (), np.arange(trials), 7)  # as rng.uniform(0.5, 2.0)
        points.append(r[:, None, None] * xs)
    phi = base_map_value(space, np.stack(points), check=False)
    values, value_errors = _values(morphism.expr, phi)
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
    # each trial's point alone along its own rotation of the basis, mixed as by
    # rng.uniform(-1, 1, (d, d))
    mixing = uniforms(seed, (len(stock),) * 2, np.arange(rotations), 11) * 2.0 - 1.0
    tau1, kap1 = np.empty((2, rotations), dtype=complex)
    rot_errors = np.full(rotations, None, dtype=object)
    for t in range(rotations):
        rotated, (rot_errors[t],) = eval_jet_cached(
            morphism.expr, JetContext(space, xs[t:t + 1], rotated_basis(stock, mixing[t])))
        tau1[t], kap1[t], _ = (np.ravel(a)[0] for a in jet_sums(rotated))
    inputs = _inputs(x=xs)
    ok = report.check("evaluation-error", _first_errors(errors, rot_errors), None, inputs)
    scale = np.maximum(1.0, energy)
    report.check("tau_rotation_diff", _modulus(tau1 - tau0) / scale, tol, inputs, ok)
    report.check("kappa_rotation_diff", _modulus(kap1 - kap0) / scale, tol, inputs, ok)
    return report.done()
