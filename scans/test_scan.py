"""Tests of the seed-scan tool itself.

    python3 -m pytest scans
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import scan  # noqa: E402


def test_a_short_lemma_scan_equals_the_baseline():
    """Seeds 76-78 hold one known FAIL (77); the run prints it and exits 0."""
    out = subprocess.run([sys.executable, str(HERE / "scan.py"), "--scan", "lemmas",
                          "--seeds", "76-78"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "1 FAIL [77]" in out.stdout
    assert out.stdout.splitlines()[-1] == "equal to the baseline"


def test_a_short_left_out_scan_equals_the_baseline():
    """Seeds 4-6 of the benchmark's left-out calls FAIL at 5 and 6."""
    out = subprocess.run([sys.executable, str(HERE / "scan.py"), "--scan", "left-out",
                          "--seeds", "4-6"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "2 FAIL [5, 6]" in out.stdout
    assert out.stdout.splitlines()[-1] == "equal to the baseline"


def test_a_short_derivative_lemmas_scan_equals_the_baseline():
    """The benchmark's derivative-lemma calls PASS at seeds 0-4; the run prints no record."""
    out = subprocess.run([sys.executable, str(HERE / "scan.py"), "--scan", "derivative-lemmas",
                          "--seeds", "0-4"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "0 FAIL []" in out.stdout
    assert out.stdout.splitlines()[-1] == "equal to the baseline"


def test_a_short_rank_scan_equals_the_baseline():
    """bigcell at seed 6 FAILs at n = 8 and n = 24, and records each failure's g."""
    out = subprocess.run([sys.executable, str(HERE / "scan.py"), "--scan", "rank",
                          "--seeds", "6-6"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "1 FAIL [6]" in out.stdout
    assert out.stdout.splitlines()[-1] == "equal to the baseline"
    known = [r for r in json.loads(scan.BASELINE.read_text()) if r["scan"] == "rank"]
    assert {(r["n"], r["quantity"], r["trial"]) for r in known if r["seed"] == 6} == {
        (8, "minor_8", 722), (24, "minor_24", 397)}
    assert all(r["x"] is not None for r in known)


def test_a_short_float_certify_scan_equals_the_baseline():
    """The benchmark's float-certify calls that must PASS do so at seeds 0-2."""
    out = subprocess.run([sys.executable, str(HERE / "scan.py"), "--scan", "float-certify",
                          "--seeds", "0-2"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "0 FAIL []" in out.stdout
    assert out.stdout.splitlines()[-1] == "equal to the baseline"


def test_difference_names_new_and_gone_records():
    known = [r for r in json.loads(scan.BASELINE.read_text()) if r["scan"] == "lemmas"]
    moved = copy.deepcopy(known[0])
    moved["trial"] += 1
    lines = scan.difference(known[1:] + [moved], known)
    assert lines == [f"+ {scan._label(moved)}", f"- {scan._label(known[0])}"]
    assert scan.difference(known, known) == []
