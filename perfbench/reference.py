"""A fixed reference computation that tells how fast the host runs right now.

On a small shared machine the throughput of one core swings by up to 1.7x
over seconds to minutes as other tenants load the host.  The benchmark times
this computation before and after each suite call and divides the call's
time by the mean of the two readings, which takes those swings out of the
end-to-end times.  It mixes the two kinds of work harmorph does:
Python-level complex arithmetic with small allocations, and chains of small
complex numpy matrix products.  It uses nothing from harmorph, so a change
to the program leaves it unchanged.
"""

from __future__ import annotations

import time

import numpy as np

# About the fastest that reference_seconds() reads on an unloaded core of
# the host the benchmark was written on (2 vCPUs of an Intel Xeon, Python
# 3.11, numpy 2.4; 0.79-0.86 ms there).  Times divided by the reference are
# multiplied by this, so they read as seconds on that host at full speed.
NOMINAL_S = 0.8e-3
# Runs of the computation per reading; the fastest one is the reading, so an
# interrupt during one run does not make the host look slow.
RUNS = 3

_rng = np.random.default_rng(0)
_MATRICES = [_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
             for _ in range(8)]


def reference_seconds() -> float:
    """The fastest of RUNS runs of the reference computation, in seconds."""
    return min(_run() for _ in range(RUNS))


def _run() -> float:
    t0 = time.perf_counter()
    z = 0.3 + 0.1j
    acc = []
    for i in range(2000):
        z = z * (0.99 + 0.01j) + 1e-3
        acc.append({"z": z, "i": i})
    for _ in range(30):
        a = _MATRICES[0]
        for m in _MATRICES[1:]:
            a = a @ m * 0.1
        complex(a[0, 0])
    return time.perf_counter() - t0
