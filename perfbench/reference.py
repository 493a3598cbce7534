"""A fixed reference kernel that measures how fast the machine runs now.

The benchmark shares its cores with other tenants, and their load makes
the same code run up to ~1.5x slower for seconds to minutes at a time.
Raw wall times of one workload then spread 6-18% between runs.  Every timed
phase therefore interleaves this kernel with its ops, in a fixed share of
the time.  Each op time is scaled by ``NOMINAL_MS / mean kernel time`` over
the kernel runs within ``WINDOW_S`` of that op: it is the time the op would
take on this machine when the kernel runs at its quiet speed.  Scaling each
op by the speed measured next to it keeps the figure steady when the load
changes within a run.  The mean, not the median: other tenants slow the
machine in time slices, and an op that spans many of them is slowed by
their mean, preemptions included.  The kernel does not touch qobs, and the
garbage collector is off while it runs, so garbage the library leaves
behind is collected in the library's own time, never in the kernel's: a
change to the library leaves the factor unchanged.

The kernel mixes what the library spends its time on: Hermitian
eigensolves and products of small complex matrices, and Python-level work
(JSON round trips, option-string parsing, dicts and loops) like that of the
CLI.  It binds ``numpy.linalg.eigh`` at import, so the tracer's wrapper
never sees it.

Set-up samples and cold CLI launches are mostly process start-up work,
which the kernel tracks poorly.  They are calibrated instead by a reference
launch, ``python -c "import numpy"``, made right after each one.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

NOMINAL_MS = 0.85   # kernel median on the 2-core Xeon box when quiet
SHARE = 0.15        # kernel time per unit of measured time
WINDOW_S = 0.5      # kernel runs this close to an op calibrate it
LAUNCH_ARGS = ["-c", "import numpy"]
NOMINAL_LAUNCH_MS = 120.0
_EIGH = np.linalg.eigh
_DIMS = (2, 2, 3, 4, 6, 8, 16, 32)


def _hermitian(rng, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2.0


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20230117)
        self._mats = [_hermitian(rng, d) for d in _DIMS]
        self._records = [{"name": f"item{i}", "vals": [i * 0.5, -i, i ** 2],
                          "tags": {"a": i, "b": str(i)}} for i in range(24)]
        self._words = " ".join(f"--opt-{i}={3 * i}" for i in range(80))
        self.times: list[float] = []
        self.stamps: list[float] = []
        self._owed = 0.0

    def _kernel(self) -> float:
        acc = 0.0
        for M in self._mats:
            w, V = _EIGH(M)
            R = (V * w) @ V.conj().T
            for _ in range(4):
                R = (R @ M + M @ R) * 0.5 / (1.0 + acc)
            acc += float(np.max(np.abs(R))) * 1e-9
        for rec in json.loads(json.dumps(self._records, sort_keys=True)):
            acc += len(rec["name"]) + rec["tags"]["a"] + sum(rec["vals"])
        options = {}
        for word in self._words.split():
            key, _, value = word.partition("=")
            options[key.lstrip("-").replace("-", "_")] = int(value)
        return acc + sum(options.values())

    def warm_up(self) -> None:
        for _ in range(20):
            self._kernel()

    def pay(self, measured_s: float) -> None:
        """Run the kernel for SHARE of ``measured_s`` (carried over), with
        the garbage collector off."""
        self._owed += measured_s * SHARE
        gc.disable()
        while self._owed > 0.0:
            t = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.times.append(end - t)
            self.stamps.append(end)
            self._owed -= end - t
        gc.enable()

    def median_ms(self) -> float:
        return statistics.median(self.times) * 1e3

    def calibrate(self, times: list[float], stamps: list[float]) -> np.ndarray:
        """Scale each measured time (ending at the matching stamp) by
        NOMINAL_MS over the mean kernel time within WINDOW_S of it, or of
        the nearest kernel run when none is that close."""
        ks = np.asarray(self.stamps)
        csum = np.concatenate(([0.0], np.cumsum(self.times)))
        st = np.asarray(stamps)
        lo = np.searchsorted(ks, st - WINDOW_S)
        hi = np.searchsorted(ks, st + WINDOW_S, side="right")
        nearest = np.clip(np.searchsorted(ks, st), 0, len(ks) - 1)
        empty = hi <= lo
        lo = np.where(empty, nearest, lo)
        hi = np.where(empty, nearest + 1, hi)
        mean_ms = (csum[hi] - csum[lo]) / (hi - lo) * 1e3
        return np.asarray(times) * (NOMINAL_MS / mean_ms)
