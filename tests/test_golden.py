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
  failing value and input is pinned as ``render_report`` prints it.

When a change alters reports on purpose (a new sampler, a new oracle), it
regenerates the fixtures and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

which rewrites all three from the code on the path.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from unittest import mock

from click.testing import CliRunner

import harmorph.verify
from harmorph.cli import main
from harmorph.morphisms import dual_quat_family, dual_real_morphism, quat_family
from harmorph.verify import (render_report, verify_invariance, verify_lemma_formula_real,
                             verify_lemma_long)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "all_n3_seed1.json"
SWEEP = ["all", "--n-max", "3", "--seed", "1", "--format", "json"]
INVARIANCE_FIXTURE = DATA / "invariance.json"
INVARIANCE_SEEDS = (0, 7, 20240823, 2**63 + 5)
FAILING_TEXT_FIXTURE = DATA / "failing_text.json"
# (suite, n) of the exact reports, run with the last basis element dropped
EXACT_FAILING = ((verify_lemma_formula_real, 3), (verify_lemma_long, 1), (verify_lemma_long, 2))
EXACT_TRIALS, EXACT_SEED = 12, 424242


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


def test_sweep_reports_equal_fixture():
    assert _sweep_reports() == json.loads(FIXTURE.read_text())


def test_invariance_reports_equal_fixture():
    assert _invariance_reports() == json.loads(INVARIANCE_FIXTURE.read_text())


def test_failing_report_texts_equal_fixture():
    assert _failing_texts() == json.loads(FAILING_TEXT_FIXTURE.read_text())


if __name__ == "__main__":
    reports = _sweep_reports()
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in reports)
                       + "\n]\n")
    INVARIANCE_FIXTURE.write_text(json.dumps(_invariance_reports(), indent=1, sort_keys=True)
                                  + "\n")
    FAILING_TEXT_FIXTURE.write_text(json.dumps(_failing_texts(), indent=1, sort_keys=True) + "\n")
