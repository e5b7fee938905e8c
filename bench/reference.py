"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same code runs at one of several speeds, switching
every second or two or holding for minutes (here up to about 1.7x apart),
so two runs of the
same program can differ by more than any useful bound.  The benchmark runs
:func:`kernel` after each step of the workload and divides the step's time
by the kernel's time around it.  The kernel mixes the kinds of work
peergrade does: an argsort of a few MB (cache- and memory-bound, which
tracks the slow stretches best), a sparse product, small dense products
and an ELU, and CSV rows formatted and parsed in Python.  So a slower
stretch slows the kernel and the step next to it by about the same factor.

The kernel never changes: it is part of the benchmark, not of the program,
and its inputs are fixed here, not drawn from a workload seed.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
import scipy.sparse as sp

# Reference-normalised seconds: a time t measured next to kernel time r is
# reported as t * NOMINAL_S / r, the time it would take on a machine that
# runs the kernel in NOMINAL_S (about this kernel's time on a 2-vCPU Xeon VM
# in its faster state).
NOMINAL_S = 0.022

_rng = np.random.default_rng(20211108)
_N = sp.random(2000, 2000, density=0.005, format="csr", random_state=_rng)
_H = _rng.standard_normal((2000, 16))
_W = _rng.standard_normal((16, 16)) / 4.0
_ROWS = [(f"u{i}", f"i{(7 * i) % 997}", repr(float(v)))
         for i, v in enumerate(_rng.random(3000))]
_KEYS = _rng.random(500_000)


def _work() -> float:
    order = np.argsort(_KEYS)
    h = _H
    for _ in range(4):
        z = _N @ (h @ _W)
        h = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
        h /= np.abs(h).max()
    buf = io.StringIO()
    csv.writer(buf).writerows(_ROWS)
    buf.seek(0)
    total = sum(float(value) for _, _, value in csv.reader(buf))
    return float(h.sum()) + total + float(order[0])


def kernel(repeats: int = 2) -> float:
    """Run the reference work ``repeats`` times; return the fastest wall time, in seconds.

    The first pass may find its data evicted by the workload; the fastest of
    a few back-to-back passes reads the machine's speed, not that.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best
