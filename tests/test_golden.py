"""Reports of the verification suites against fixtures, exactly.

A refactor must leave every report as it was, apart from its wall time: the
same quantities, residuals, failures and verdicts, bit for bit.  Two fixtures
pin them:

* ``tests/data/all_n3_seed1.json``: every report of
  ``harmorph all --n-max 3 --seed 1``;
* ``tests/data/invariance.json``: ``verify_invariance`` on the compact duals and
  on sus-sp at n = 1, which the sweep does not reach, at a few seeds.  The
  passing reports (tol 1e-9) are stored in full; the failing ones (tol 1e-17,
  whose failures carry the stabilizer points k) as the SHA-256 of their sorted
  JSON, which keeps the fixture small;
* ``tests/data/failing_text.json``: the SHA-256 of the text of each failing
  report, without its wall-time line: the failing invariance reports above,
  and the exact suites with the last basis element dropped, so that every
  failing value and input is pinned as ``render_report`` prints it;
* ``tests/data/digest.json``: one SHA-256 per report of a larger set, in named
  groups (DIGEST_GROUPS): the benchmark's three workloads at four seeds, a rank-5
  sweep, failing reports at tol 1e-17, a rank-8 bigcell run and a grid of lemma
  runs.  A report's hash covers its JSON without the wall time and its set of
  failing trials.  A digest that differs names each report that moved, by group
  and call.

When a change alters reports on purpose (a new sampler, a new oracle), it
regenerates the fixtures and says in CHANGES.md why, and which digest groups
moved:

    PYTHONPATH=src python tests/test_golden.py

which rewrites all four from the code on the path.
"""

import hashlib
import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path
from unittest import mock

from click.testing import CliRunner

import harmorph.verify
from harmorph.cli import main, run_sweep
from harmorph.morphisms import (dual_quat_family, dual_real_morphism, quat_family, real_morphism,
                                typeIV_bigcell_morphism)
from harmorph.spaces import make_space
from harmorph.verify import (render_report, verify_basis_independence, verify_bigcell,
                             verify_derivative_lemmas, verify_family, verify_harmonic,
                             verify_invariance, verify_lemma_formula_real, verify_lemma_long)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "all_n3_seed1.json"
SWEEP = ["all", "--n-max", "3", "--seed", "1", "--format", "json"]
INVARIANCE_FIXTURE = DATA / "invariance.json"
INVARIANCE_SEEDS = (0, 7, 20240823, 2**63 + 5)
FAILING_TEXT_FIXTURE = DATA / "failing_text.json"
# (suite, n) of the exact reports, run with the last basis element dropped
EXACT_FAILING = ((verify_lemma_formula_real, 3), (verify_lemma_long, 1), (verify_lemma_long, 2))
EXACT_TRIALS, EXACT_SEED = 12, 424242
DIGEST_FIXTURE = DATA / "digest.json"
WORKLOAD_SEEDS = (6, 7, 65, 20240823)
LEMMA_SPACES = [("slr-so", n) for n in (2, 3, 4, 5)] + [("sus-sp", n) for n in (1, 2, 3)]
LEMMA_SETTINGS = ((100, 1e-8), (300, 1e-12), (37, 1e-8))
DIGEST_SEED = 20240823


def _sweep_reports() -> list[dict]:
    """The sweep's reports, without their wall times."""
    result = CliRunner().invoke(main, SWEEP)
    assert result.exit_code == 0, result.output
    reports = [json.loads(line) for line in result.output.splitlines() if line]
    for r in reports:
        del r["wall_time"]
    return reports


def _invariance_maps():
    return [dual_real_morphism(3, 1, 2), dual_quat_family(2, 1)[0], dual_quat_family(1, 1)[0],
            quat_family(1, 1)[0]]


def _without_wall_time(report) -> dict:
    out = report.to_dict()
    del out["wall_time"]
    return out


@lru_cache(maxsize=None)
def _invariance_runs() -> tuple[list, list]:
    """The passing (tol 1e-9) and the failing (tol 1e-17) invariance reports."""
    passing, failing = [], []
    for m in _invariance_maps():
        for seed in INVARIANCE_SEEDS:
            passing.append(verify_invariance(m, seed=seed, tol=1e-9))
            failing.append(verify_invariance(m, seed=seed, tol=1e-17))
            assert not failing[-1].passed
    return passing, failing


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _invariance_reports() -> dict:
    """The passing reports in full and the SHA-256 of each failing one."""
    passing, failing = _invariance_runs()
    return {"passing": [_without_wall_time(r) for r in passing],
            "failing_sha256": [_sha256(json.dumps(_without_wall_time(r), sort_keys=True))
                               for r in failing]}


def _text_without_wall_time(report) -> str:
    return "\n".join(line for line in render_report(report).splitlines()
                     if not line.startswith("  wall time"))


def _failing_texts() -> dict:
    """The SHA-256 of the text of each failing invariance and exact report."""
    full = harmorph.verify.p_basis_exact
    with mock.patch.object(harmorph.verify, "p_basis_exact", lambda space: full(space)[:-1]):
        exact = [suite(n, EXACT_TRIALS, EXACT_SEED) for suite, n in EXACT_FAILING]
    assert not any(r.passed for r in exact)
    return {"invariance": [_sha256(_text_without_wall_time(r)) for r in _invariance_runs()[1]],
            "exact": [_sha256(_text_without_wall_time(r)) for r in exact]}


def _report_sha256(report) -> str:
    """The SHA-256 of a report's JSON without its wall time, and of its failing trials."""
    return _sha256(json.dumps({"report": _without_wall_time(report),
                               "failed_trials": sorted(report.failed_trials)}, sort_keys=True))


@lru_cache(maxsize=None)
def _benchmark_workloads():
    """perfbench/workloads.py, the benchmark's calls, imported under its own name."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_group(name: str):
    calls = _benchmark_workloads().build(name)
    return [(f"seed={seed} {call.label}", lambda call=call, seed=seed: call.run(seed))
            for seed in WORKLOAD_SEEDS for call in calls]


def _sweep_group():
    reports = run_sweep(5, 50, 3)
    return [(f"{i:02d} {r.suite} {r.space} n={r.n} {','.join(r.morphisms)}", lambda r=r: r)
            for i, r in enumerate(reports)]


def _failing_group():
    """Reports of every float suite at tol 1e-17, where they fail."""
    seed, tol = DIGEST_SEED, 1e-17
    calls = {
        "harmonic slr-so n=3 kl=12": lambda: verify_harmonic(real_morphism(3, 1, 2), 50, seed, tol),
        "harmonic su-so n=3 kl=12":
            lambda: verify_harmonic(dual_real_morphism(3, 1, 2), 50, seed, tol),
        "family sus-sp n=2 l=1": lambda: verify_family(quat_family(2, 1), 50, seed, tol),
        "family su-sp n=2 l=1": lambda: verify_family(dual_quat_family(2, 1), 50, seed, tol),
        "invariance slr-so n=3 kl=12":
            lambda: verify_invariance(real_morphism(3, 1, 2), 20, seed, tol),
        "invariance slc-su n=3 ij=21":
            lambda: verify_invariance(typeIV_bigcell_morphism(3, 2, 1), 20, seed, tol),
        "basis-independence slr-so n=3 kl=12":
            lambda: verify_basis_independence(real_morphism(3, 1, 2), 10, seed, tol),
        "derivative-lemmas slr-so n=3":
            lambda: verify_derivative_lemmas(make_space("slr-so", 3), 40, seed, tol, tol),
    }
    return list(calls.items())


def _lemma_grid_group():
    return [(f"{sid} n={n} trials={trials} tol={tol:g}",
             lambda sid=sid, n=n, trials=trials, tol=tol:
                 verify_derivative_lemmas(make_space(sid, n), trials, DIGEST_SEED, tol))
            for sid, n in LEMMA_SPACES for trials, tol in LEMMA_SETTINGS]


# group name -> its (call, run) pairs, run() giving the call's report
DIGEST_GROUPS = {
    "exact-identities": lambda: _workload_group("exact-identities"),
    "float-certify": lambda: _workload_group("float-certify"),
    "derivative-lemmas": lambda: _workload_group("derivative-lemmas"),
    "sweep": _sweep_group,
    "failing": _failing_group,
    "bigcell": lambda: [("n=8 trials=1000 seed=6", lambda: verify_bigcell(8, 1000, 6))],
    "lemma-grid": _lemma_grid_group,
}


def _digest() -> dict:
    """{group: {call: SHA-256 of its report}}."""
    return {group: {call: _report_sha256(run()) for call, run in calls()}
            for group, calls in DIGEST_GROUPS.items()}


def _moved(got: dict, want: dict) -> list[str]:
    """Each "group: call" whose hash differs, or that only one of the digests has."""
    return [f"{group}: {call}" for group in sorted(set(got) | set(want))
            for call in sorted(set(got.get(group, {})) | set(want.get(group, {})))
            if got.get(group, {}).get(call) != want.get(group, {}).get(call)]


def test_sweep_reports_equal_fixture():
    assert _sweep_reports() == json.loads(FIXTURE.read_text())


def test_invariance_reports_equal_fixture():
    assert _invariance_reports() == json.loads(INVARIANCE_FIXTURE.read_text())


def test_failing_report_texts_equal_fixture():
    assert _failing_texts() == json.loads(FAILING_TEXT_FIXTURE.read_text())


def test_reports_equal_digest():
    assert _moved(_digest(), json.loads(DIGEST_FIXTURE.read_text())) == []


def test_digest_names_each_moved_report():
    want = {"a": {"x": "1", "y": "2"}, "b": {"z": "3"}}
    got = {"a": {"x": "1", "y": "9"}, "c": {"w": "4"}}
    assert _moved(got, want) == ["a: y", "b: z", "c: w"]


if __name__ == "__main__":
    reports = _sweep_reports()
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in reports)
                       + "\n]\n")
    INVARIANCE_FIXTURE.write_text(json.dumps(_invariance_reports(), indent=1, sort_keys=True)
                                  + "\n")
    FAILING_TEXT_FIXTURE.write_text(json.dumps(_failing_texts(), indent=1, sort_keys=True) + "\n")
    DIGEST_FIXTURE.write_text(json.dumps(_digest(), indent=1, sort_keys=True) + "\n")
