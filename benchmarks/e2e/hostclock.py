"""Host-speed control: one CPU, and a calibration kernel to scale by.

Two facts about the sandbox this benchmark runs in (measured while it
was written, see README.md):

- With two CPUs the program's 32-thread fan-out pool fights for the GIL
  across cores, and the same 6000-friend search flips between ~450 ms
  and ~1000 ms from one request to the next.  Pinned to one CPU the
  distribution has one mode.  The process is therefore pinned; the
  program is a single GIL-bound process, so no parallelism is lost.
- The host's speed itself drifts by +-25 % in phases that last from a
  second to half a minute (a fixed pure-Python loop takes 55..95 ms).
  Raw wall times of 10-second windows then differ by up to 40 % between
  runs of the same code.

So every time the harness reports is *scaled to a reference host*: a
fixed pure-Python kernel is timed at quiescent points between slices of
work, and a slice's times are divided by (local kernel time /
``REFERENCE_MS``).  The kernel belongs to the harness and shares no code
with the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import List, Optional

#: Kernel time (ms) on the host the numbers are scaled to: this
#: sandbox's 2.1 GHz Xeon vCPU in a quiet phase.
REFERENCE_MS = 20.0

_KERNEL_ROWS = 40_000


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the threads it will start) to the lowest
    CPU it may run on; returns that CPU, or None where the platform
    does not allow it (the run then stays unpinned and says so)."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


class Calibrator:
    """Times the calibration kernel at *boundaries* between slices.

    ``mark()`` is called before the first slice, between slices and
    after the last, only while no other thread of the harness or the
    program is doing work.  ``factor(i)`` is the host-speed factor of
    slice ``i`` (between boundaries ``i`` and ``i+1``): the median of
    the samples taken at boundaries ``i-1 .. i+2`` over
    ``REFERENCE_MS``.  Taking neighbours in smooths the kernel's own
    jitter while still following a phase change.
    """

    def __init__(self) -> None:
        rng = random.Random(0xCA11B)
        # Shaped like the program's hot loop (key slice -> int, payload
        # slice -> float, dict aggregate, sort) so that whatever slows
        # the host slows both alike.
        self._rows = [
            rng.randbytes(29) + b'{"grade":0.%03d}' % rng.randrange(1000)
            for _ in range(_KERNEL_ROWS)
        ]
        #: ``boundaries[i]`` is the list of kernel timings (ms) taken at
        #: boundary ``i``.
        self.boundaries: List[List[float]] = []
        # The first runs are slow (cold caches, first dict growth).
        self.kernel_ms()
        self.kernel_ms()

    def kernel_ms(self) -> float:
        started = time.perf_counter()
        agg = {}
        for row in self._rows:
            key = int.from_bytes(row[21:29], "big") % 5000
            grade = float(row[38:43])
            entry = agg.get(key)
            if entry is None:
                agg[key] = [grade, 1]
            else:
                entry[0] += grade
                entry[1] += 1
        sorted(
            ((key, e[0], e[1]) for key, e in agg.items()),
            key=lambda item: (-(item[1] / item[2]), item[0]),
        )
        return (time.perf_counter() - started) * 1e3

    def mark(self, samples: int = 1) -> int:
        """Take ``samples`` kernel timings as a new boundary; returns
        the boundary's index (= the index of the slice that follows)."""
        self.boundaries.append([self.kernel_ms() for _ in range(samples)])
        return len(self.boundaries) - 1

    def factor(self, slice_index: int) -> float:
        lo = max(0, slice_index - 1)
        window = [
            ms for boundary in self.boundaries[lo:slice_index + 3]
            for ms in boundary
        ]
        return statistics.median(window) / REFERENCE_MS

    def all_samples(self) -> List[float]:
        return [ms for boundary in self.boundaries for ms in boundary]


class ScaledStopwatch:
    """Wall time of back-to-back stretches of quiescent-bounded work,
    each divided by its host-speed factor: ``lap()`` ends a stretch
    (and takes the calibration boundary that starts the next)."""

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrator = calibrator
        #: (slice index, wall seconds) per finished stretch.
        self._stretches: List[tuple] = []
        self._slice = calibrator.mark()
        self._started = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._started
        self._stretches.append((self._slice, wall))
        self._slice = self._calibrator.mark()
        self._started = time.perf_counter()

    def wall_s(self) -> float:
        return sum(wall for _i, wall in self._stretches)

    def scaled_s(self) -> float:
        factor = self._calibrator.factor
        return sum(wall / factor(i) for i, wall in self._stretches)
