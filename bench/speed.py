"""Machine-speed correction for the benchmark's timings.

The benchmark was defined on a 2-vCPU guest of a shared host, where other
tenants slow the machine by up to 2x for seconds at a time.  A fixed probe
runs between timed steps, and each step's time is scaled to the machine
speed at which the probe takes PROBE_NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# timings are reported at the machine speed where probe() takes this long
PROBE_NOMINAL_S = 1e-3
_PROBE_MATRIX = ((np.arange(256).reshape(16, 16) % 7) - 3) * (1 + 0.5j) / 10


def probe() -> float:
    """Seconds taken by a fixed small-matrix computation: 0.8 to 1.6 ms on a
    2.1 GHz Xeon core, once warm.  It uses numpy only, never opball, so a
    change to opball cannot move it."""
    start = time.perf_counter()
    a = _PROBE_MATRIX.copy()
    for k in range(120):
        a = a @ a.conj().T
        a = a / np.abs(a).max()
        a[k % 16, (3 * k) % 16] += 0.1
    return time.perf_counter() - start


def at_probe_speed(times: list[float], probes: list[float]) -> list[float]:
    """Step times at the machine speed where the probe takes PROBE_NOMINAL_S.

    Step ``i`` ran between ``probes[i]`` and ``probes[i + 1]``; its time is
    scaled by the median of the two probes before and the two after it.
    """
    return [t * PROBE_NOMINAL_S / statistics.median(probes[max(0, i - 1):i + 3])
            for i, t in enumerate(times)]
