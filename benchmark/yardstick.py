"""Host-speed yardstick: a fixed ~1 ms mix of LAPACK, BLAS and interpreter work.

The benchmark shares its CPUs with other tenants, and their load moves
every op time by up to 1.8x, switching within a fraction of a second.
The yardstick runs between ops, and inside ops longer than INTERVAL from
a SIGALRM timer whose own time is taken out of the op's. Each op time is
scaled to the host speed at which one sample takes NOMINAL_MS: by the
mean speed of the samples taken inside it, or, for a short op, by the
median of the samples around it. A slower program still reads slower,
while a busier host does not. The yardstick never calls cbcontrol, and
NOMINAL_MS is a fixed part of the benchmark's definition: never
re-measure it, or times from before and after stop being comparable.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# measured once on the 2-core x86 machine the seed baseline comes from
NOMINAL_MS = 0.72
# yardstick samples on each side of a short op that set its scale
WINDOW = 3
# seconds between samples inside an op, and how many make an op "long"
INTERVAL = 0.02
MIN_INSIDE = 3

_MATRIX = np.random.default_rng(20251217).standard_normal((40, 40))
# bound at import, before any tracer wraps numpy.linalg, so samples taken
# inside an op never show up as the op's own calls
_svd = np.linalg.svd


def sample() -> float:
    """Milliseconds for one pass of the fixed yardstick work."""
    start = time.perf_counter()
    for _ in range(3):
        _svd(_MATRIX, compute_uv=False)
    row = _MATRIX[0]
    for _ in range(100):
        row = _MATRIX @ row
        row = row / np.abs(row).max()
    acc = 0.0
    for i in range(600):
        acc += (i % 7) * 0.5
    return (time.perf_counter() - start) * 1e3


def scales(between: list, inside: list) -> list:
    """Per-op factors: ``between[i]`` is sampled before op i and ``between[i+1]``
    after it; ``inside[i]`` holds the samples taken while op i ran."""
    factors = []
    for i, own in enumerate(inside):
        if len(own) >= MIN_INSIDE:
            factors.append(statistics.fmean(NOMINAL_MS / y for y in own))
        else:
            factors.append(NOMINAL_MS / statistics.median(between[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]))
    return factors


class InsideSampler:
    """Yardstick samples every INTERVAL seconds while an op runs.

    ``paused`` is the time the samples took, to be taken out of the op's
    time; ``on_pause(seconds)`` lets a tracer take it out of the span
    that was running.
    """

    def __init__(self, on_pause=None):
        self.samples = []
        self.paused = 0.0
        self.on_pause = on_pause
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        spent = time.perf_counter() - start
        self.paused += spent
        if self.on_pause is not None:
            self.on_pause(spent)

    def start(self):
        self.samples = []
        self.paused = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
