"""Host-speed calibration.

On a shared host the speed of pure-Python code drifts: on the 2-vCPU Xeon
VM (2.0 GHz, Python 3.11) where this benchmark was written, one fixed request
mix took from 180 ms to 370 ms per pass within a minute, in phases lasting
from seconds to minutes, with CPU time tracking wall time.  Timing the fixed
reference work below between requests measures that drift, and the
benchmark scales each request's time to a host on which the reference work
takes NOMINAL_S.  Over 10-second windows this cut the drift of scaled times
from about 11% to about 3%.  The raw times are printed as well.
"""

import json
import time
from fractions import Fraction

NOMINAL_S = 1.0e-3
_COEFFS = tuple((-1) ** k / (k + 1) for k in range(40))
_ROWS = [[str(i * 1.5) for i in range(20)] for _ in range(20)]


def reference_work():
    """Fixed work in the style of the three workloads: float Horner loops and
    a sort, Fraction arithmetic, and JSON and string handling as in the
    CLI's parsing and rendering.  It never calls the library, so changes
    there do not move it."""
    acc = []
    for i in range(300):
        x = i / 300
        v = 0.0
        for c in _COEFFS:
            v = v * x + c
        acc.append((v, i))
    acc.sort()
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k, 3 * k + 1) * Fraction(2 * k + 1, 7)
    doc = json.loads(json.dumps({"rows": _ROWS, "total": str(total)}))
    return acc[0], ",".join(",".join(r) for r in doc["rows"]).split(",")


def reference_seconds(repeats=3):
    """Fastest of a few timings of the reference work, so that one
    preemption does not count as a slow host."""
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t)
    return best
