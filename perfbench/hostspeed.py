"""Host-speed probes: fixed reference kernels timed next to the measured work.

The benchmark runs on shared machines where neighbours slow the very same
code by up to 1.8x for minutes at a time, so raw wall times of two runs of
one commit can differ more than any regression bound.  A probe times a
small kernel that never changes (it uses no code of the repository) and
reports the slowdown against the kernel's nominal time; the workloads
divide every time they measure by the slowdown measured next to it.
Reported times therefore read as times on a host running at nominal
speed.  On a 2-core x86-64 host this cut the spread of 30-second
medians of a render from 0.19 to 0.02 (NumPy kernel) and of a simulated
frame from 0.27 to 0.05 (Python kernel), while the raw medians drifted
by 35-49%.

Two kernels match the two kinds of work the program does: ``"numpy"`` is
alpha blending shaped like the rasterizer's block engine, ``"python"`` is
interpreter-bound dictionary and list churn like the cycle-level
simulator and the serving layers.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import List

import numpy as np

#: Nominal seconds of one run of each kernel (an unloaded 2-core x86-64 host).
NOMINAL_S = {"numpy": 3.6e-3, "python": 1.8e-3}

#: Probes the running slowdown is the median of.
WINDOW = 5


class _Splat:
    """Fixed alpha blending: 6 tiles of 64 Gaussians over 256 pixels."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.pixels = rng.uniform(0, 16, size=(256, 2))
        self.means = rng.uniform(0, 16, size=(6, 64, 2))
        self.conics = np.abs(rng.normal(0.3, 0.1, size=(6, 64, 3)))
        self.opacities = rng.uniform(0.3, 0.9, size=(6, 64))

    def __call__(self) -> float:
        total = 0.0
        for tile in range(len(self.means)):
            dx = self.pixels[:, 0] - self.means[tile, :, 0][:, np.newaxis]
            dy = self.pixels[:, 1] - self.means[tile, :, 1][:, np.newaxis]
            a, b, c = (self.conics[tile, :, k][:, np.newaxis] for k in range(3))
            power = -0.5 * (a * dx ** 2 + c * dy ** 2) - b * dx * dy
            alpha = np.where(power > 0.0, 0.0, self.opacities[tile][:, np.newaxis] * np.exp(power))
            alpha = np.minimum(alpha, 0.99)
            total += float((np.cumprod(1.0 - alpha, axis=0) * alpha).sum())
        return total


def _churn() -> int:
    """Fixed interpreter-bound work: small dicts and lists in a loop."""
    total = 0
    items = []
    for index in range(3000):
        record = {"a": index, "b": [index, index + 1]}
        items.append(record)
        total += record["b"][1] * 3 % 7
    return total


class HostSpeed:
    """Running estimate of how much slower than nominal the host runs.

    ``probe()`` runs the kernel once and returns the median slowdown of the
    last :data:`WINDOW` probes (1.0 = nominal, 1.5 = 50% slower).
    ``seconds`` is the time spent probing, which phases leave out of their
    wall time.
    """

    def __init__(self, kernel: str):
        self._kernel = _Splat() if kernel == "numpy" else _churn
        self._nominal = NOMINAL_S[kernel]
        self._recent: deque = deque(maxlen=WINDOW)
        self.factors: List[float] = []
        self.seconds = 0.0

    def probe(self) -> float:
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self._recent.append(elapsed / self._nominal)
        factor = statistics.median(self._recent)
        self.factors.append(factor)
        return factor

    def measure(self, probes: int = WINDOW) -> float:
        """Slowdown right now: the median of ``probes`` fresh probes."""
        self._recent.clear()
        for _ in range(probes):
            factor = self.probe()
        return factor
