"""Host-speed probe: a fixed kernel, apart from suisim, whose wall time shows
how fast the shared host runs at the moment it is measured.

Other tenants of the host slow the same code by up to 1.6 times for
seconds to minutes at a time.  CPU time slows with wall time (their ratio
stays at 1.01), so neither can show a change of 25% on its own.  The
benchmark runs the probe between operations and scales each operation's
latency by ``NOMINAL_S`` over the probe times around it, to a power that
depends on the workload (``workloads.PROBE_SLOPE``): its figures read as
the times on a host where the probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time the reported figures are scaled to.
NOMINAL_S = 0.020
#: Probes taken into each factor on either side of an operation.  Three
#: gave round figures as steady as one did, and steadier than one factor
#: for a whole round.
WINDOW = 3

_M = np.eye(6) + 0.01 * np.arange(36.0).reshape(6, 6)
_V = _M @ _M.T
#: Short enough that each FFT's arrays stay below the allocator's mmap
#: threshold: with 64k points every call mapped fresh pages, so the probe
#: ran up to 25% slower until an operation had freed a large array, and an
#: operation's factor depended on where it fell in the round.
_X = np.cos(0.001 * np.arange(1 << 13))


def probe() -> float:
    """Wall time of small-matrix numpy and interpreter work like the
    covariance engine's, then FFTs like the spectral layer's."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(1000):
        acc += np.linalg.cholesky(_M @ _V @ _M.T)[0, 0] + sum(0.5 * j for j in range(20))
    for _ in range(80):
        acc += float(np.abs(np.fft.rfft(_X)).sum())
    return time.perf_counter() - t0


def factors(probes: list[float], slope: float) -> list[float]:
    """Scale factor of each operation run between two consecutive probes:
    ``NOMINAL_S`` over the median of the ``WINDOW`` nearest probes on each
    side, to the power ``slope``, the workload's log-log slope of latency on
    probe time.  One probe is as noisy as the host; their median follows
    its drift."""
    return [
        (NOMINAL_S / statistics.median(probes[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])) ** slope
        for i in range(len(probes) - 1)
    ]
