"""The reports of ``harmorph all --n-max 3 --seed 1`` against a fixture, exactly.

A refactor must leave every report of the sweep as it was, apart from its
wall time: the same quantities, residuals, failures and verdicts, bit for bit.
When a change alters reports on purpose (a new sampler, a new oracle), it
regenerates the fixture and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

which rewrites ``tests/data/all_n3_seed1.json`` from the sweep of the code on
the path.
"""

import json
from pathlib import Path

from click.testing import CliRunner

from harmorph.cli import main

FIXTURE = Path(__file__).parent / "data" / "all_n3_seed1.json"
SWEEP = ["all", "--n-max", "3", "--seed", "1", "--format", "json"]


def _sweep_reports() -> list[dict]:
    """The sweep's reports, without their wall times."""
    result = CliRunner().invoke(main, SWEEP)
    assert result.exit_code == 0, result.output
    reports = [json.loads(line) for line in result.output.splitlines() if line]
    for r in reports:
        del r["wall_time"]
    return reports


def test_sweep_reports_equal_fixture():
    assert _sweep_reports() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    reports = _sweep_reports()
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in reports)
                       + "\n]\n")
