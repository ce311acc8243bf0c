"""Machine-speed calibration.

The shared machines this benchmark runs on change speed by up to 1.8x
within seconds, and CPU time slows down with wall time, so raw wall times of
identical work differ more between processes than any useful bound.  A fixed
kernel — one small dense least-squares solve and some dictionary work, the
mix the estimators run — is timed around every measured call, and times
are reported at the reference speed: the speed at which the kernel takes
``KERNEL_REF_MS``.  The kernel does not touch the program, so a change to
the program moves the reported times and a change of machine speed does not.
The kernel and the constant must never change, or earlier figures stop
being comparable.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

KERNEL_REF_MS = 1.3
_DICT_ITEMS = 2500

_rng = np.random.default_rng(20240)
_A = _rng.standard_normal((65, 51))      # the size of case33's AC-region H
_B = _rng.standard_normal(65)


def kernel_ms() -> float:
    """Wall time of one kernel run, in ms."""
    t0 = perf_counter()
    s = float(np.linalg.lstsq(_A, _B, rcond=None)[0][0])
    table = {}
    for i in range(_DICT_ITEMS):
        table[i] = i * 0.5 + s
    sum(table.values())
    return (perf_counter() - t0) * 1000.0


def speed_factor(samples: list[float]) -> float:
    """Multiplier from measured time to reference-speed time."""
    return KERNEL_REF_MS / statistics.median(samples)
