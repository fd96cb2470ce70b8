"""Host-speed gauges: fixed pieces of work that do not involve toric_lab, timed.

The benchmark runs on shared virtual machines whose speed drifts by a third
within minutes as other tenants load the host; the worker's CPU time drifts
with its wall time, so CPU time does not help.  A gauge runs before and
after every timed call, and the call's wall time is scaled by
nominal / (mean of the two gauges): its seconds at the gauge's nominal host
speed.  The gauges are the benchmark's own code, so a change to toric_lab
moves the scaled times as it moves the wall times.

Requests in the worker use gauge(), an integer loop and small FFTs.  The
set-up spawns use spawn_gauge(), a fresh interpreter importing numpy:
start-up time tracks it (correlation 0.9 over 40 spawns) but not gauge().
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median gauge times on the 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4)
# where the bounds were set, gauge() measured in the worker between requests.
NOMINAL_S = 0.0072
SPAWN_NOMINAL_S = 0.195
_ARRAY = np.random.default_rng(0).random(1 << 14)


def gauge() -> float:
    """Seconds for the fixed work: an integer loop, then small FFTs."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(12):
        np.fft.fft(_ARRAY)
    return time.perf_counter() - t0


def spawn_gauge(env: dict) -> float:
    """Seconds for a fresh interpreter to import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def scale(before: float, after: float, nominal: float = NOMINAL_S) -> float:
    """Factor that turns a call's wall seconds into seconds at nominal speed."""
    return nominal / ((before + after) / 2)
