"""Tests of the benchmark itself: exact counts, tracing arithmetic, the gate.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import EXACT_COUNTS, WORKLOADS  # noqa: E402

from harmorph.jets import BranchCutError  # noqa: E402
from harmorph.morphisms import real_morphism  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_a_seed(workload):
    first, second = (traced_run(workload, workloads.DEFAULT_SEED) for _ in range(2))
    counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["correct"] and second["correct"]


def test_self_times_add_up_to_the_root_spans():
    spans = [["verify_harmonic", 0.0, 10.0, -1],
             ["sample_in_domain", 1.0, 4.0, 0],
             ["sample_group_point", 1.5, 2.0, 1],
             ["domain", 2.0, 2.5, 1],
             ["JetContext", 5.0, 6.0, 0],
             ["render_report", 10.0, 10.5, -1]]
    assert tracing.self_times(spans) == [6.0, 2.0, 0.5, 0.5, 1.0, 0.5]
    m = tracing.layer_metrics(spans)
    layers = ["sampling.group_s", "sampling.domain_s", "sampling.rational_s", "spaces.basis_s",
              "jets.context_s", "jets.eval_s", "jets.oracle_s", "scalars.s", "verify.s",
              "verify.render_s"]
    assert sum(m[k] for k in layers) == pytest.approx(10.5)
    assert m["sampling.domain_s"] == 2.5
    assert m["sampling.domain_accept_ratio"] == 1.0


def test_wrappers_are_restored():
    import harmorph.verify as hv

    before = {name: getattr(hv, name) for name in tracing.VERIFY_GLOBALS}
    check = hv.VerificationReport.check
    tracer = tracing.Tracer()
    with tracer.installed():
        assert hv.JetContext is not before["JetContext"]
    assert {name: getattr(hv, name) for name in tracing.VERIFY_GLOBALS} == before
    assert hv.VerificationReport.check is check


def test_gate_flags_a_dropped_quantity():
    call = workloads._harmonic(real_morphism(2, 1, 2), 1e-8)
    out = workloads.run_pass([call], 3)[0]
    assert workloads.problems(out, 3) == []
    del out.report.max_residuals["kappa"]
    assert "missing ['kappa']" in workloads.problems(out, 3)[0]


def test_gate_counts_a_suite_error_and_goes_on():
    def broken(*args, **kwargs):
        raise BranchCutError("sqrt argument on the cut")

    good = workloads._harmonic(real_morphism(2, 1, 2), 1e-8)
    bad = workloads.Call("broken", broken, (), {}, 1e-8, frozenset())
    outs = workloads.run_pass([bad, good], 3)
    assert workloads.problems(outs[0], 3) == ["BranchCutError: sqrt argument on the cut"]
    assert workloads.problems(outs[1], 3) == []


def test_reference_is_read_around_each_call():
    readings = iter([1.0, 3.0, 5.0])
    call = workloads._harmonic(real_morphism(2, 1, 2), 1e-8)
    outs = workloads.run_pass([call, call], 3, lambda: next(readings))
    assert [o.reference_s for o in outs] == [2.0, 4.0]
