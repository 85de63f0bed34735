"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one vCPU drifts: a plain Python loop can run
up to 1.7 times slower for tens of seconds and then speed up again.  A run
that falls in a slow stretch then reads slow as a whole, and a median over
its pipelines cannot correct that.  ``worker.py`` therefore runs this kernel
between pipelines and scales each pipeline's wall time by ``REFERENCE_S``
over the mean of the kernel times just before and just after it.  The result
is the wall time the pipeline would have taken on a host that runs the kernel
in ``REFERENCE_S``.

The kernel never calls penrosenet, so a change to the package cannot change
it.  About three quarters of its time is interpreter work (integer arithmetic,
dict and list updates, a keyed sort) and a quarter is numpy (sort, unique,
elementwise arithmetic), which is roughly the mix of the pipelines.  On a
2-vCPU VM that mix tracked the pipelines' own drift better than either part
alone.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time on a 2-vCPU Linux VM in its faster stretches (Python 3.11, numpy 2.4)
REFERENCE_S = 0.06

_rng = np.random.default_rng(0)
_INTS = _rng.integers(0, 1 << 40, size=60_000)
_FLOATS = _rng.random(60_000)


def kernel_s() -> float:
    """Run the reference kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for i in range(150_000):
        total += i * i
        table[i & 1023] = total
        if i & 7 == 0:
            pairs.append((i, total & 255))
    pairs.sort(key=lambda pair: pair[1])
    np.argsort(_INTS)
    np.unique(_INTS >> 8)
    float((_FLOATS * _FLOATS + _FLOATS).sum())
    np.cumsum(_FLOATS)
    return time.perf_counter() - t0


def normalized(walls: list[float], kernels: list[float]) -> list[float]:
    """Scale ``walls[i]`` by the kernel times ``kernels[i]`` and ``kernels[i + 1]`` around it."""
    return [wall * 2.0 * REFERENCE_S / (kernels[i] + kernels[i + 1]) for i, wall in enumerate(walls)]
