"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_child.py SRC_DIR WORKLOAD

imports harmorph from SRC_DIR, builds the workload's suite calls (morphisms,
families and tangent bases) and prints the seconds this took, then a
reading of the host reference (``reference.py``) taken right after it in the
same process.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads  # noqa: E402  (imports harmorph, inside the timed region)

workloads.build(sys.argv[2])
seconds = time.perf_counter() - t0

import reference  # noqa: E402  (numpy is loaded by now)

print(seconds, reference.reference_seconds())
