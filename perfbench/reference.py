"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed swings by up
to about 2.5x over tens of seconds, and code of one kind slows nearly alike,
so a raw wall time mostly measures the neighbours. ``run.py`` therefore times
the workload's reference right after every timed call and reports the call's
time in units of the reference time ("ref"): the ratio stays within a few
percent while the host speeds up and slows down, and moves when the program
does. The kernels import nothing from wynercache, so no change to the program
changes them.

Each workload names the kernels whose work is most like its own, and the
reference time is their sum:

python
    Dict and integer bookkeeping in the interpreter, like the Ideal backend's
    scheme code. The Ideal workloads use it alone.
numpy
    A Gaussian codebook draw and nearest-neighbour decodes, like the
    Monte-Carlo backend's ``draw_codebook`` and ``nn_decode``. The Monte-Carlo
    workloads use it after ``python``, because they also spend a share of
    their time in scheme code and in numpy's per-call overhead.
"""

from __future__ import annotations

import time

import numpy as np


def python_kernel() -> int:
    table: dict[int, int] = {}
    for i in range(100_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return table[7]


def numpy_kernel() -> int:
    rng = np.random.default_rng(1)
    words = rng.standard_normal((4096, 200))
    words *= 14.0 / np.linalg.norm(words, axis=1, keepdims=True)
    received = words[:16] + rng.standard_normal((16, 200))
    return sum(int(np.argmin(np.sum((y[None, :] - words) ** 2, axis=1))) for y in received)


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def seconds(kinds: tuple[str, ...]) -> float:
    """Wall seconds of one run of each named kernel, one after another."""
    started = time.perf_counter()
    for kind in kinds:
        KERNELS[kind]()
    return time.perf_counter() - started
