"""Interleaved timing normalised against a fixed reference kernel.

On a shared virtual machine the host's speed swings by tens of percent in
phases of several seconds, and no hardware counters are exposed.  Every
timed repetition is therefore bracketed by two calls of a reference kernel
that imports nothing from the package (a process start-up for operations
that start a process).  A repetition's time divided by the mean of its two
reference times, times the reference's nominal duration, is its time in
seconds on the nominal host; a metric is the median over the run's
repetitions.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Kernel times on a quiet 2-core Xeon VM (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1), single-threaded BLAS.
NOMINAL_KERNEL_S = 9.5e-3
NOMINAL_PROCESS_S = 0.45
CALLS_PER_PART = 3
# third-party imports of the package, without the package
_PROCESS_IMPORTS = "import numpy, scipy.special"

_rng = np.random.default_rng(20131)
_SORT_INPUT = _rng.random(20_000)
_SORTED = np.sort(_rng.random(10_000))
_PROBES = _rng.random(10_000)
_STREAM = _rng.random(1_000_000)


def _interpreter():
    acc = 0
    for i in range(6_000):
        acc += (i * 7) % 13
    return acc


def _sort():
    return np.sort(_SORT_INPUT)


def _search():
    for _ in range(5):
        np.searchsorted(_SORTED, _PROBES)


def _elementwise():
    x = _PROBES
    for _ in range(20):
        x = np.abs(x * 0.999 - 0.001)
    return x


def _stream():
    return float((_STREAM * 1.5 + 0.5).sum())


def _fresh_pages():
    # a large allocation is mapped afresh on every call, so this pays the
    # host's page-fault cost, as process start-up and model loading do
    return float(np.ones(1 << 20)[::4096].sum())


# Each part tracks the host's speed on one kind of work the package does:
# Python loops, sorting, ECDF searches, small-array arithmetic, memory
# streaming beyond the L2 cache and page faults.  Measured against the city fit over
# 180 alternations, the ratio of the two varied by 7 %, against 20 % for
# the fit alone.
PARTS = (_interpreter, _sort, _search, _elementwise, _stream, _fresh_pages)


def reference_kernel() -> float:
    """Sum over the parts of the fastest of CALLS_PER_PART calls."""
    total = 0.0
    for part in PARTS:
        best = np.inf
        for _ in range(CALLS_PER_PART):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def reference_process() -> float:
    """Start-up of a Python process importing the package's dependencies.

    Process start-up and imports pay for page faults and file reads that
    the in-process kernel does not track; this is the reference for
    operations that start a process.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROCESS_IMPORTS], check=True, timeout=120)
    return time.perf_counter() - t0


class Sampler:
    """Times repetitions of named operations between kernel calls."""

    def __init__(self):
        self.kernel: list[float] = []
        self.process: list[float] = []
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    def repeat(self, name: str, count: int, fn, *args, process: bool = False):
        """Time ``count`` calls of ``fn(*args)``, each between two reference
        calls (consecutive calls share one): the process reference if
        ``process``, else the kernel.  Returns the last result."""
        reference, nominal = ((reference_process, NOMINAL_PROCESS_S) if process
                              else (reference_kernel, NOMINAL_KERNEL_S))
        before = reference()
        for _ in range(count):
            t0 = time.perf_counter()
            out = fn(*args)
            elapsed = time.perf_counter() - t0
            after = reference()
            (self.process if process else self.kernel).append(after)
            self.times.setdefault(name, []).append(elapsed)
            self.scaled.setdefault(name, []).append(
                2.0 * elapsed * nominal / (before + after))
            before = after
        return out

    def host_factor(self) -> float:
        """Median kernel time of this run over its nominal duration."""
        return statistics.median(self.kernel) / NOMINAL_KERNEL_S

    def process_factor(self) -> float:
        """Median process reference time of this run over its nominal."""
        return statistics.median(self.process) / NOMINAL_PROCESS_S

    def normalised(self, name: str, per: int = 1) -> float:
        """Seconds on the nominal host of one repetition, divided by ``per``."""
        return statistics.median(self.scaled[name]) / per
