"""Machine-speed calibration for a shared, noisy host.

On a small virtual machine the speed of the same code drifts by up to 2x
over seconds, as other tenants load the shared cores and caches. A fixed
calibration unit, independent of plspb but made of the same kinds of work
(Python loops, small numpy calls, and logs, products and least squares on a
1000 x 100 array), is timed right before and right after every
op. The op's time is then scaled to the calibration unit's reference time:

    normalized = measured * REFERENCE_MS / mean(calibration before, after)

so a slow phase of the host cancels out while a change to plspb, which the
calibration unit does not run, shows in full. Raw times are kept as well.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one unit on a 2-vCPU x86_64 virtual machine (numpy 2.4, OpenBLAS
# pinned to one thread) in its quiet state; any fixed value gives the same
# ratios.
REFERENCE_MS = 5.0

_A = np.linspace(-1.0, 1.0, 100 * 100).reshape(100, 100)
_B = np.linspace(0.5, 2.0, 400 * 100).reshape(400, 100)
_V = np.cos(np.arange(100.0))
_S = np.sign(_V).astype(int)
_M = np.linspace(0.5, 3.0, 1000 * 100).reshape(1000, 100)
_C = np.linspace(-1.0, 1.0, 100 * 20).reshape(100, 20)
_Y = np.cos(np.arange(800.0))


def _unit() -> float:
    total = 0.0
    for _ in range(3):
        logs = np.log(_M)
        total += float((logs @ _C).sum())
        total += float(np.linalg.lstsq(logs[:800, :20], _Y, rcond=None)[0][0])
    for _ in range(100):
        np.isin(_S, (-1, 0, 1))
        total += float(np.linalg.norm(_A @ _V))
        np.sort(_V)
        np.array(_S, dtype=int)
        total += sum(k * k for k in range(200))
    return total + float((_B @ _A).sum())


def calibrate_ms() -> float:
    """Wall time of one calibration unit, in milliseconds."""
    start = time.perf_counter_ns()
    _unit()
    return (time.perf_counter_ns() - start) / 1e6


def factor(before_ms: float, after_ms: float) -> float:
    """Scale from measured time to time at the reference speed."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)
