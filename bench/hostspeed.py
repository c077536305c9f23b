"""Host speed probe: a fixed reference computation, timed between cases.

The benchmark shares a few cores of a host whose speed drifts by a
quarter over tens of seconds, with the same drift in wall and CPU time.
A case's seconds alone then measure the host as much as the program.
This kernel does the kind of work the library does (spherical triangle
areas over a batch of rows as large as theirs with ``einsum``,
``cross`` and ``arctan2``, so it feels the same cache and memory
contention, and a Python loop of small vector operations) on fixed
data, with no call into the library, so a change to the library cannot change its
time.  Timed between cases, it tells how fast the host ran meanwhile.

``REFERENCE_S`` is the kernel's typical time between cases on the host
the benchmark was tuned on (two cores of a shared x86-64 virtual machine,
Python 3.11, numpy 2.4), so a case's seconds scaled by
``REFERENCE_S / probe time`` read as seconds on that host at its
typical speed.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.016
ROWS = 2 ** 16      # a batch as large as the library's fine face grids


def _points(offset: int) -> np.ndarray:
    """``ROWS`` fixed unit vectors, spread over the sphere."""
    k = np.arange(ROWS) + offset
    z = 1.0 - 2.0 * ((0.6180339887 * k) % 1.0)
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(2.3999632297 * k), r * np.sin(2.3999632297 * k), z],
                    axis=1)


def _kernel(a, b, c) -> float:
    re = (1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c)
          + np.einsum("ij,ij->i", c, a))
    im = np.einsum("ij,ij->i", np.cross(a, b), c)
    total = float(np.sum(2.0 * np.arctan2(im, re)))
    for i in range(300):
        u, v, w = a[i], b[7 * i], c[13 * i]
        n = np.cross(u, v)
        total += float(n @ w) / (1e-9 + float(np.sqrt(n @ n)))
    return total


def probe(repeats: int = 3) -> float:
    """Seconds the reference kernel takes now: the least of ``repeats``
    runs, since right after a case the first run also pays to bring its
    data into cache.  The data is built for each probe and dropped after
    it, so it is not resident while the cases run."""
    points = (_points(0), _points(1), _points(2))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel(*points)
        times.append(time.perf_counter() - start)
    return min(times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work between two probes, at reference host speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
