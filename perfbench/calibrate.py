"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes, with other tenants' load.  Around every timed
op and set-up the run times calibrate(): a fixed mix, written here and
never changed with specmix, of the three kinds of work specmix does
(per-pixel small linear algebra in a Python loop, array arithmetic over a
cube, float-to-text writing).  End-to-end times are reported in reference
seconds, see to_reference(), so a slower machine lengthens both the op and
its calibration and leaves the ratio.  The raw times are kept in the run's
record.
"""

from __future__ import annotations

import csv
from io import StringIO
from time import perf_counter

import numpy as np

#: Median calibrate() time on the reference machine: a 2-core x86_64
#: container, Python 3.11, numpy 2.4.6 with OpenBLAS on one thread.
NOMINAL_S = 0.1

_rng = np.random.default_rng(20190328)
_S = _rng.uniform(0.02, 0.98, (200, 6))
_G = _S.T @ _S
_C = _S.T @ _rng.uniform(0.0, 1.0, (200, 800))
_CUBE = _rng.uniform(0.0, 1.0, (32, 32, 200))
_ROWS = _rng.uniform(0.0, 1.0, (4000, 4))


def _pixel_loop() -> float:
    total = 0.0
    for n in range(_C.shape[1]):
        free = np.flatnonzero(_C[:, n] > np.median(_C[:, n]) * 0.5)
        z = np.linalg.solve(_G[np.ix_(free, free)], _C[free, n])
        total += float(np.append(z, 0.0).max())
    return total


def _cube_arithmetic() -> float:
    total = 0.0
    for _ in range(9):
        root = np.sqrt(1.0 - 0.5 * _CUBE)
        total += float((_CUBE / ((1.0 + 2.0 * root) * (1.0 + root))).sum())
    return total


def _text() -> int:
    buffer = StringIO()
    writer = csv.writer(buffer)
    for row in _ROWS:
        writer.writerow([repr(float(v)) for v in row])
    return len(buffer.getvalue())


def to_reference(seconds: float, before: float, after: float) -> float:
    """A measured time in reference seconds, given the calibrations that bracket it."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)


def calibrate() -> float:
    """Seconds one pass of the fixed work mix takes now."""
    start = perf_counter()
    _pixel_loop()
    _cube_arithmetic()
    _text()
    return perf_counter() - start
