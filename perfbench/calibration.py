"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same code can run 1.5 to 2 times slower for seconds
or minutes at a time, in CPU time as much as in wall time.  The benchmark
therefore runs this kernel between the cases it times and scales each
measured time to a nominal machine speed:

    scaled = measured * (REF_SECONDS / reference) ** exponent

where `reference` is the kernel's time measured around the timed code and
`exponent` says how strongly the timed code follows the machine's speed
relative to the kernel (workloads.SPEED_EXPONENT).  On
a machine of steady speed the scale is a constant, so scaled times move
exactly as wall times do.  The kernel does not call tmfejer, so a change to
tmfejer moves the timed code and not the reference.  Its work mixes the
three kinds tmfejer does: scalar Python arithmetic, numpy calls on short
arrays, and complex array arithmetic on arrays of boundary-grid size.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Nominal time of one reference() call: its median on the machine the
# bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4) in its
# fast state.  Scaled times read as seconds on such a machine.
REF_SECONDS = 0.003

_SHORT = np.exp(2j * np.pi * np.arange(64) / 64)
_GRID = np.exp(2j * np.pi * np.arange(8192) / 8192)
_POLES = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16.3)


def _scalar() -> float:
    a, b = 0.0, 1.0
    for _ in range(60):  # golden-section steps on a smooth function
        c = b - 0.6180339887498949 * (b - a)
        d = a + 0.6180339887498949 * (b - a)
        if math.cos(3.0 * c) + 0.1 * c * c < math.cos(3.0 * d) + 0.1 * d * d:
            b = d
        else:
            a = c
    return a


def _work() -> float:
    total = 0.0
    for _ in range(60):
        total += _scalar()
    for a in np.concatenate([_POLES, -_POLES, 1j * _POLES]):
        b = (_SHORT - a) / (1.0 - np.conj(a) * _SHORT)
        total += float(np.abs(np.cumprod(b)).sum())
    prod = np.ones_like(_GRID)
    for a in _POLES:
        prod *= (_GRID - a) / (1.0 - np.conj(a) * _GRID)
        total += float(np.abs(prod).max())
    return total


def reference() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
