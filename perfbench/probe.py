"""Host-speed probe: a fixed piece of work timed next to every measured sample.

On a shared host the speed of one core drifts by up to 2x within minutes
(co-tenants, frequency scaling), so raw step times from two runs of the
same code can differ by a third.  The benchmark therefore times this probe
right after every sample and reports ``sample / probe * REFERENCE_S``:
the sample's time on a host running at reference speed.  The probe runs no
``repro`` code, so a change to the program moves the reported numbers by
exactly as much as it moves the raw ones.  Its mix (interpreter loop, small
numpy calls, a small GEMM) mirrors what a DLRM step spends its time on.

Work a change leaves running *between* samples (a busy background thread)
slows the probe too and is under-reported; the raw times printed next to
the normalized ones show it.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe seconds on the reference host (2-core x86-64, OpenBLAS 0.3.31,
#: numpy 2.4, Python 3.11, one BLAS thread) at its faster speed.
REFERENCE_S = 1.3e-3

_VEC = np.arange(64, dtype=np.float32)
_MAT = np.random.default_rng(0).standard_normal((128, 128)).astype(np.float32)
_MAT /= np.linalg.norm(_MAT, 2)


def probe() -> float:
    """Seconds the fixed reference work took just now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i
    x = _VEC
    for _ in range(300):
        x = np.add(x, _VEC)
    y = _MAT
    for _ in range(8):
        y = _MAT @ y
    return time.perf_counter() - t0


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` at reference host speed, given a probe time next to it."""
    return seconds / probe_s * REFERENCE_S


def scale_series(samples: list[float], probes: list[float]) -> list[float]:
    """Scale each sample by the mean of the probes around it.

    ``probes[i]`` ran right after ``samples[i]``; averaging it with the
    probes before and after the neighbouring samples follows the host's
    speed across the whole sample rather than at one instant.
    """
    n = len(probes)
    out = []
    for i, seconds in enumerate(samples):
        near = probes[max(i - 1, 0):min(i + 2, n)]
        out.append(scale(seconds, sum(near) / len(near)))
    return out
