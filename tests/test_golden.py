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
  JSON, which keeps the fixture small.

When a change alters reports on purpose (a new sampler, a new oracle), it
regenerates the fixtures and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

which rewrites both from the code on the path.
"""

import hashlib
import json
from pathlib import Path

from click.testing import CliRunner

from harmorph.cli import main
from harmorph.morphisms import dual_quat_family, dual_real_morphism, quat_family
from harmorph.verify import verify_invariance

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "all_n3_seed1.json"
SWEEP = ["all", "--n-max", "3", "--seed", "1", "--format", "json"]
INVARIANCE_FIXTURE = DATA / "invariance.json"
INVARIANCE_SEEDS = (0, 7, 20240823, 2**63 + 5)


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


def _invariance_reports() -> dict:
    """The passing reports in full and the SHA-256 of each failing one."""
    passing, failing = [], []
    for m in _invariance_maps():
        for seed in INVARIANCE_SEEDS:
            passing.append(_without_wall_time(verify_invariance(m, seed=seed, tol=1e-9)))
            failed = _without_wall_time(verify_invariance(m, seed=seed, tol=1e-17))
            assert not failed["passed"]
            text = json.dumps(failed, sort_keys=True).encode()
            failing.append(hashlib.sha256(text).hexdigest())
    return {"passing": passing, "failing_sha256": failing}


def test_sweep_reports_equal_fixture():
    assert _sweep_reports() == json.loads(FIXTURE.read_text())


def test_invariance_reports_equal_fixture():
    assert _invariance_reports() == json.loads(INVARIANCE_FIXTURE.read_text())


if __name__ == "__main__":
    reports = _sweep_reports()
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in reports)
                       + "\n]\n")
    INVARIANCE_FIXTURE.write_text(json.dumps(_invariance_reports(), indent=1, sort_keys=True)
                                  + "\n")
