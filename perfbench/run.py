"""Benchmark of the harmorph verification suites.

    python3 perfbench/run.py --workload float-certify --seed 20240823 --seconds 35 --trace 0

runs the workload's suite calls (see ``workloads.py``) in passes for about
``--seconds`` seconds, checks every verdict and prints the end-to-end
metrics.  ``--trace 1`` instead alternates untraced and traced passes and
prints the per-layer metrics (see ``tracing.py``).  ``--workload all`` runs
each workload in its own process.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only if every suite call gave the report it must give.

The suites import from ``src/`` of the checkout this file sits in, never
from an installed copy.  BLAS runs one thread, so one process measures a
plain single-threaded run.  End-to-end times are corrected for the host's
speed at the moment they were taken, read from a fixed reference
computation (``reference.py``); the raw times are printed beside them.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in the set-up processes this one starts
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import gzip
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# The workloads and the metrics each mode reports, with their units.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-ups timed per run, each in a fresh interpreter; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# Counts that must repeat exactly at a fixed seed.
EXACT_COUNTS = ("sampling.group_calls", "sampling.rational_calls", "jets.context_calls",
                "jets.eval_calls", "jets.oracle_calls", "verify.checks", "scalars.ops")


def run_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def time_setups(workload: str) -> list[tuple[float, float]]:
    """(seconds, host reference read right after) of set-ups in fresh interpreters.

    A set-up imports harmorph and builds the workload's suite calls.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(HERE / "setup_child.py"), str(SRC), workload],
                             capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S)
        seconds, ref = map(float, out.stdout.strip().splitlines()[-1].split())
        setups.append((seconds, ref))
    return setups


def timed_pass(workloads, calls, seed, reference=None):
    gc.collect()
    t0 = time.perf_counter()
    outcomes = workloads.run_pass(calls, seed, reference)
    return outcomes, time.perf_counter() - t0


def more_passes(start: float, seconds: float, *pass_times: list[float]) -> bool:
    """At least one pass; another only if it should end within the run's seconds."""
    if not pass_times[0]:
        return True
    expected = sum(statistics.median(t) for t in pass_times)
    return time.perf_counter() - start + expected <= seconds


class Tally:
    """Suite calls attempted and failed over a run, with the first problems seen."""

    def __init__(self, workloads, seed: int):
        self.workloads, self.seed = workloads, seed
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, outcomes) -> None:
        for out in outcomes:
            self.attempted += 1
            found = self.workloads.problems(out, self.seed)
            if found:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{out.call.label}: {'; '.join(found)}")


def end_to_end(workloads, reference, name: str, seed: int, seconds: float, tally: Tally):
    """The end-to-end metrics, and notes printed beside them.

    The host's speed swings by up to 1.7x while a run lasts, as other tenants
    of a small shared machine load it.  Each suite call is deterministic at a
    seed, so its fastest time in the run is the one least disturbed; but in a
    run that the host slows throughout, even that is slow.  So wall_s sums,
    over the pass's suite calls, each call's fastest time multiplied by
    NOMINAL_S over the host reference read around that very repeat
    (``reference.py``): seconds on the nominal host at full speed.  setup_s
    is the median of SETUP_REPEATS set-ups, each corrected by the reference
    read right after it in its own process.  The raw times are printed
    beside the metrics.
    """
    calls = workloads.build(name)
    setups = time_setups(name)
    walls: list[float] = []
    fastest: list[tuple[float, float]] = [(math.inf, 1.0)] * len(calls)  # (seconds, reference)
    readings: list[float] = []
    reference.reference_seconds()   # its first run in a process is slow
    start = time.perf_counter()
    while more_passes(start, seconds, walls):
        outcomes, dt = timed_pass(workloads, calls, seed, reference.reference_seconds)
        walls.append(dt)
        fastest = [min(best, (out.seconds, out.reference_s))
                   for best, out in zip(fastest, outcomes)]
        readings += [out.reference_s for out in outcomes]
        tally.add(outcomes)
    wall = sum(t * reference.NOMINAL_S / ref for t, ref in fastest)
    certified = sum(o.report.trials for o in outcomes
                    if o.report is not None and o.call.expect_pass)
    metrics = {
        "setup_s": statistics.median(t * reference.NOMINAL_S / ref for t, ref in setups),
        "wall_s": wall,
        "trials_per_s": certified / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    margin = workloads.residual_margin_digits(outcomes)
    notes = [
        f"raw set-ups (s): {' '.join(f'{t:.4f}' for t, _ in setups)}",
        f"raw passes (s): {' '.join(f'{t:.4f}' for t in walls)}; "
        f"raw wall_s {sum(t for t, _ in fastest):.4f}",
        f"host reference (ms): nominal {reference.NOMINAL_S * 1e3:.3f}, read around the "
        f"fastest repeats {statistics.median(ref for _, ref in fastest) * 1e3:.3f} (median), "
        f"all readings {statistics.median(readings) * 1e3:.3f} (median)",
        f"failed_share: {tally.failed / tally.attempted:.4g} ratio "
        f"({tally.failed}/{tally.attempted} suite calls)",
        "residual_margin_digits: "
        + ("n/a (exact workload)" if margin is None else f"{margin:.4f} digits"),
    ]
    return metrics, notes, []


def per_layer(workloads, tracing, name: str, seed: int, seconds: float, tally: Tally):
    """The per-layer metrics, notes printed beside them, and the recorded passes."""
    tracer = tracing.Tracer()
    with tracer.wrapping(workloads, ("p_basis", "p_basis_exact")):
        calls = workloads.build(name)
    setup_basis = sum(end - start for _, start, end, parent in tracer.take() if parent < 0)
    traced_calls = tracer.traced_calls(calls)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    recorded = []
    start = time.perf_counter()
    while more_passes(start, seconds, traced, plain):
        outcomes, dt = timed_pass(workloads, calls, seed)
        plain.append(dt)
        tally.add(outcomes)
        tracer.checks = 0
        with tracer.installed():
            outcomes, dt = timed_pass(workloads, traced_calls, seed)
        traced.append(dt)
        tally.add(outcomes)
        spans = tracer.take()
        layers.append({**tracing.layer_metrics(spans), "verify.checks": tracer.checks})
        recorded.append({"wall_s": dt, "spans": spans})
    with tracing.counting_scalar_ops() as ops:
        tally.add(workloads.run_pass(calls, seed))

    errors = [f"{k} differs between traced passes: {[m[k] for m in layers]}"
              for k in EXACT_COUNTS if k in layers[0] and any(m[k] != layers[0][k] for m in layers)]
    # The fastest traced pass is the one other tenants disturbed least.
    fastest = min(range(len(traced)), key=traced.__getitem__)
    metrics = dict(layers[fastest])
    metrics.update({
        "spaces.setup_basis_s": setup_basis,
        "scalars.ops": ops[0],
        "trace.pass_s": traced[fastest],
        "trace.overhead_s": traced[fastest] - min(plain),
    })
    # Every traced call sits under a root span (a suite call or a render), so
    # the layers' self times add up to the root spans; the rest of the pass is
    # the benchmark's own loop.
    covered = sum(end - start for _, start, end, parent in recorded[fastest]["spans"]
                  if parent < 0)
    notes = [
        f"passes: {len(traced)} traced, {len(plain)} untraced, 1 counting; "
        "layer metrics from the fastest traced pass",
        f"layer self times add up to {covered / traced[fastest]:.3%} of that pass",
    ]
    return metrics, notes, recorded, errors


def write_trace(name: str, seed: int, record: dict, recorded: list[dict]) -> Path:
    """Write the traced passes' spans as [name, start, end, parent] rows."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.json.gz"
    passes = []
    for r in recorded:
        names = sorted({s[0] for s in r["spans"]})
        index = {n: i for i, n in enumerate(names)}
        t0 = r["spans"][0][1] if r["spans"] else 0.0
        passes.append({"wall_s": r["wall_s"], "names": names,
                       "spans": [[index[n], a - t0, b - t0, p] for n, a, b, p in r["spans"]]})
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": name, "seed": seed, "run": record, "passes": passes}, fh)
    return path


def run_one(args) -> int:
    import reference
    import tracing
    import workloads

    record = run_record()
    tally = Tally(workloads, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("run: " + "  ".join(f"{k}={v}" for k, v in record.items()))
    if args.trace:
        metrics, notes, recorded, errors = per_layer(workloads, tracing, args.workload,
                                                     args.seed, args.seconds, tally)
        notes.append(f"spans: {write_trace(args.workload, args.seed, record, recorded)}")
    else:
        metrics, notes, errors = end_to_end(workloads, reference, args.workload, args.seed,
                                            args.seconds, tally)
    listed = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(listed):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(listed)}")
    metrics = {name: metrics[name] for name in listed}
    for name, value in metrics.items():
        print(f"  {name:<30s} {value:.6g} {UNITS[name]}")
    for note in notes:
        print(f"  {note}")
    for msg in tally.messages + errors:
        print(f"  WRONG: {msg}")
    correct = tally.failed == 0 and not errors
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             stdout=subprocess.PIPE, text=True, timeout=900)
        print(out.stdout, end="")
        lines = out.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        code = code or out.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=20240823)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "harmorph" / "__init__.py").is_file():
        print(f"error: no harmorph sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
