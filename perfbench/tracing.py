"""Per-layer tracing of a pass, done from the benchmark's own files.

The suites in ``harmorph.verify`` look their helpers up as module globals at
call time, so replacing those globals with timing wrappers records one span
(name, start, end, parent) per call into a layer, with no change to the
program.  A layer's self time is the time of its spans minus the time of
their child spans; the self times of all layers add up to the time of the
suite calls and report rendering they sit under.

Time reached only through private helpers stays with the caller: the oracle
subsample's own arithmetic in ``_oracle_check`` and the psi relations that
``_check_psi_relations`` evaluates with ``jets._eval`` count as ``verify``,
and the exact suites' own arithmetic counts as ``scalars``.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

import harmorph.verify as hv
from harmorph.morphisms import Morphism
from harmorph.scalars import ComplexRational

# Globals of harmorph.verify wrapped during a traced pass, and their layer.
VERIFY_GLOBALS = {
    "sample_group_point": "sampling.group",
    "sample_in_domain": "sampling.domain",
    "rational_vector": "sampling.rational",
    "complex_rational_vector": "sampling.rational",
    "p_basis": "spaces.basis",
    "p_basis_exact": "spaces.basis",
    "JetContext": "jets.context",
    "eval_jet_cached": "jets.eval",
    "fd_jet": "jets.oracle",
    "eval_jet": "jets.oracle",
    "render_report": "verify.render",
}
# A morphism's domain predicate, called by sample_in_domain and by the
# domain loop of verify_family.
DOMAIN = "domain"
EXACT_SUITES = {"verify_lemma_formula_real", "verify_lemma_long"}
LAYERS = ("sampling.group", "sampling.domain", "sampling.rational", "spaces.basis",
          "jets.context", "jets.eval", "jets.oracle", "scalars", "verify",
          "verify.render")


def layer_of(name: str) -> str:
    if name in VERIFY_GLOBALS:
        return VERIFY_GLOBALS[name]
    if name == DOMAIN:
        return "sampling.domain"
    return "scalars" if name in EXACT_SUITES else "verify"


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.checks = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def take(self) -> list[list]:
        """The spans recorded so far, which the tracer then forgets."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def traced_calls(self, calls):
        """Copies of the calls whose suite and whose morphisms' domains are traced."""

        def traced(arg):
            if isinstance(arg, Morphism):
                return dataclasses.replace(arg, domain=self.wrap(DOMAIN, arg.domain))
            if isinstance(arg, list):
                return [traced(a) for a in arg]
            return arg

        return [dataclasses.replace(c, fn=self.wrap(c.fn.__name__, c.fn),
                                    args=tuple(traced(a) for a in c.args))
                for c in calls]

    @contextmanager
    def wrapping(self, module, names):
        """Replace the module's named globals by traced wrappers, then restore them."""
        saved = {name: getattr(module, name) for name in names}
        try:
            for name, fn in saved.items():
                setattr(module, name, self.wrap(name, fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    @contextmanager
    def installed(self):
        """Wrap the verify globals and count VerificationReport.check calls."""
        check = hv.VerificationReport.check

        def counted_check(report, *args, **kwargs):
            self.checks += 1
            return check(report, *args, **kwargs)

        with self.wrapping(hv, VERIFY_GLOBALS):
            hv.VerificationReport.check = counted_check
            try:
                yield
            finally:
                hv.VerificationReport.check = check


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self time and call count per layer, plus the domain acceptance ratio."""
    selfs = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    for (name, _, _, _), s in zip(spans, selfs):
        busy[layer_of(name)] += s
        calls[name] = calls.get(name, 0) + 1
    # Points the domain loops accepted over group points they drew.  Each
    # sample_in_domain call returns one accepted point; verify_family builds
    # one JetContext per accepted point.
    drawn = accepted = 0
    for name, _, _, parent in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "sample_group_point" and parent_name in ("sample_in_domain", "verify_family"):
            drawn += 1
        elif name == "JetContext" and parent_name == "verify_family":
            accepted += 1
    accepted += calls.get("sample_in_domain", 0)
    return {
        "sampling.group_calls": calls.get("sample_group_point", 0),
        "sampling.group_s": busy["sampling.group"],
        "sampling.domain_s": busy["sampling.domain"],
        "sampling.domain_accept_ratio": accepted / drawn if drawn else 1.0,
        "sampling.rational_calls": (calls.get("rational_vector", 0)
                                    + calls.get("complex_rational_vector", 0)),
        "sampling.rational_s": busy["sampling.rational"],
        "spaces.basis_s": busy["spaces.basis"],
        "jets.context_calls": calls.get("JetContext", 0),
        "jets.context_s": busy["jets.context"],
        "jets.eval_calls": calls.get("eval_jet_cached", 0),
        "jets.eval_s": busy["jets.eval"],
        "jets.oracle_calls": calls.get("fd_jet", 0) + calls.get("eval_jet", 0),
        "jets.oracle_s": busy["jets.oracle"],
        "scalars.s": busy["scalars"],
        "verify.s": busy["verify"],
        "verify.render_s": busy["verify.render"],
    }


@contextmanager
def counting_scalar_ops():
    """Count ComplexRational additions and multiplications while installed.

    Yields a one-element list holding the count.  Wrapping every operation
    costs more than the operation, so a counting pass is never timed.
    Fraction arithmetic, which is all of lemma-formula-real, is not counted.
    """
    names = ("__add__", "__radd__", "__mul__", "__rmul__")
    saved = {name: getattr(ComplexRational, name) for name in names}
    count = [0]

    def counted(fn):
        def op(a, b):
            count[0] += 1
            return fn(a, b)
        return op

    try:
        for name, fn in saved.items():
            setattr(ComplexRational, name, counted(fn))
        yield count
    finally:
        for name, fn in saved.items():
            setattr(ComplexRational, name, fn)
