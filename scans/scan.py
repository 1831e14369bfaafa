"""Seed scans: which seeds make a suite call FAIL, against a committed baseline.

    python3 scans/scan.py                          # every scan over its own seeds
    python3 scans/scan.py --scan lemmas --seeds 70-80
    python3 scans/scan.py --scan derivative-lemmas # the benchmark's lemma calls
    python3 scans/scan.py --scan left-out          # the benchmark's left-out calls
    python3 scans/scan.py --scan rank              # bigcell at every rank 2-24
    python3 scans/scan.py --update                 # rewrite the baseline from this run

A scan runs one named call at every seed of a range and records each FAIL as
(scan, seed, suite, space, n, quantity, first captured trial, x), one record
per failing quantity of a report; x is the failure's g where it has no x.
The records are compared with ``scans/baseline.json`` over the seeds scanned:
a record that is new or gone is printed with ``+`` or ``-``, and the exit code
is then 1 (0 when they are equal).  The baseline lists known defects: a change that moves a FAIL set
says so and updates the baseline with it, and never edits it to make a scan
pass.

The scans import harmorph from ``src/`` of the checkout this file sits in,
never from an installed copy, and run BLAS with one thread, so that a scan
gives the same records on any host.
"""

from __future__ import annotations

import os

# before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "baseline.json"


def _lemmas(seed: int) -> list:
    from harmorph.spaces import make_space
    from harmorph.verify import verify_derivative_lemmas
    return [verify_derivative_lemmas(make_space("slr-so", 2), 100, seed)]


def _derivative_lemmas(seed: int) -> list:
    """The benchmark's six derivative-lemma calls, 100 trials each."""
    from harmorph.spaces import make_space
    from harmorph.verify import verify_derivative_lemmas
    return [verify_derivative_lemmas(make_space(sid, n), 100, seed, 1e-8, 1e-9)
            for sid, ns in (("slr-so", (3, 4, 5)), ("sus-sp", (1, 2, 3))) for n in ns]


def _sweep(seed: int) -> list:
    from harmorph.cli import run_sweep
    return run_sweep(3, 50, seed)


def _left_out(seed: int) -> list:
    """The float calls perfbench/README.md lists under "Calls left out", 100 trials
    each, every report's suite naming its first map, so that two calls' records at
    one seed stay apart."""
    from harmorph.morphisms import dual_quat_family, dual_real_morphism, real_morphism
    from harmorph.verify import verify_family, verify_harmonic
    reports = [verify_harmonic(dual_real_morphism(n, k, l), 100, seed, 1e-7)
               for n in (2, 3, 4) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
    reports += [verify_harmonic(real_morphism(2, k, l), 100, seed, 1e-8)
                for k, l in ((1, 2), (2, 1))]
    reports += [verify_family(dual_quat_family(2, l), 100, seed, 1e-7) for l in (1, 2)]
    for report in reports:
        report.suite = f"{report.suite}:{report.morphisms[0]}"
    return reports


def _rank(seed: int) -> list:
    """verify_bigcell at every rank 2-24, 1000 trials each."""
    from harmorph.verify import verify_bigcell
    return [verify_bigcell(n, 1000, seed) for n in range(2, 25)]


# name: (the call, returning its reports, and its seeds, inclusive)
SCANS = {
    "lemmas": (_lemmas, (0, 599)),  # slr-so n=2 derivative lemmas, 100 trials
    "derivative-lemmas": (_derivative_lemmas, (0, 599)),  # the benchmark's lemma calls
    "sweep": (_sweep, (0, 299)),    # harmorph all --n-max 3 --trials 50
    "left-out": (_left_out, (0, 1999)),  # the benchmark's left-out calls, 100 trials
    "rank": (_rank, (0, 99)),       # bigcell at n = 2-24, 1000 trials
}


def fail_records(scan: str, seed: int, reports) -> list[dict]:
    """One record per failing quantity of each failing report: its first captured
    failure's trial and the x of its inputs, else their g (None if it has neither)."""
    records = []
    for report in reports:
        seen = set()
        for f in report.failures:
            if f["quantity"] not in seen:
                seen.add(f["quantity"])
                inputs = f.get("inputs", {})
                records.append({"scan": scan, "seed": seed, "suite": report.suite,
                                "space": report.space, "n": report.n,
                                "quantity": f["quantity"], "trial": f["trial"],
                                "x": inputs.get("x", inputs.get("g"))})
    # the JSON form, so that records compare equal to those read from the baseline
    return json.loads(json.dumps(records))


def _key(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _label(record: dict) -> str:
    return (f"{record['scan']} seed {record['seed']}: {record['suite']} {record['space']} "
            f"n={record['n']} {record['quantity']} (trial {record['trial']})")


def difference(found: list[dict], known: list[dict]) -> list[str]:
    """The lines '+ record' for each record found but not known, '- record' for
    each known but not found, in seed order."""
    found_keys, known_keys = {_key(r) for r in found}, {_key(r) for r in known}
    changed = [("+", r) for r in found if _key(r) not in known_keys]
    changed += [("-", r) for r in known if _key(r) not in found_keys]
    changed.sort(key=lambda c: (c[1]["scan"], c[1]["seed"], c[0]))
    return [f"{sign} {_label(r)}" for sign, r in changed]


def _seed_range(text: str) -> tuple[int, int]:
    a, _, b = text.partition("-")
    return int(a), int(b or a)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scan", action="append", choices=sorted(SCANS),
                    help="a scan to run (repeatable; default all)")
    ap.add_argument("--seeds", type=_seed_range,
                    help="A-B: only the seeds A to B of each scan's range")
    ap.add_argument("--update", action="store_true",
                    help="write the records of the seeds scanned into the baseline")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))

    names = args.scan or sorted(SCANS)
    known = json.loads(BASELINE.read_text()) if BASELINE.is_file() else []
    found, scanned = [], set()
    for name in names:
        call, (lo, hi) = SCANS[name]
        if args.seeds:
            lo, hi = max(lo, args.seeds[0]), min(hi, args.seeds[1])
        t0 = time.perf_counter()
        records = []
        for seed in range(lo, hi + 1):
            records += fail_records(name, seed, call(seed))
            scanned.add((name, seed))
        seeds = sorted({r["seed"] for r in records})
        print(f"{name}: seeds {lo}-{hi}, {len(seeds)} FAIL {seeds} "
              f"({time.perf_counter() - t0:.1f} s)")
        found += records

    in_scan = [r for r in known if (r["scan"], r["seed"]) in scanned]
    if args.update:
        kept = [r for r in known if (r["scan"], r["seed"]) not in scanned]
        records = sorted(kept + found, key=lambda r: (r["scan"], r["seed"]))
        BASELINE.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records)
                            + "\n]\n")
        print(f"wrote {len(records)} records to {BASELINE}")
        return 0
    lines = difference(found, in_scan)
    print("\n".join(lines) if lines else "equal to the baseline")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
