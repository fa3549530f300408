"""Machine-speed calibration for perfbench passes.

The benchmark runs on shared machines whose speed drifts by a third over
minutes: every instruction gets slower, so CPU time drifts with wall time.
A ``Calibrator`` samples that speed during a pass.  A wall-clock interval
timer interrupts the pass every ``interval_s`` and runs one fixed chunk of
reference work, timed in thread CPU time so that preemption does not count.
The chunk uses only the standard library (Fraction arithmetic, tuple words
and a dict, as the checker's hot loops do), never ``spfk``, so a change to
the package cannot move the reference.  Processes forked during the pass (a
process pool's workers) run chunks too, and report them through a shared
anonymous mapping, so the speed is sampled where the work runs.

``slowness()`` is the mean chunk time over ``CHUNK_REF_S``; dividing a time
by it expresses the time at the reference speed, the speed at which one chunk
takes ``CHUNK_REF_S``.  The chunks' own time is subtracted first.
"""
from __future__ import annotations

import mmap
import os
import signal
import statistics
import struct
import time
from fractions import Fraction

CHUNK_REF_S = 0.001  # one chunk's CPU time at the reference speed
INTERVAL_S = 0.025
WORKER_SLOTS = 64
_SLOT = struct.Struct("qd")  # a forked worker's chunk count and chunk CPU time


def chunk() -> Fraction:
    """A fixed amount of reference work, about 1 ms on a 2.1 GHz Xeon."""
    acc = Fraction(0)
    words: dict = {}
    word = ()
    for i in range(1, 110):
        q = Fraction(i % 13 - 6 or 1, i % 7 + 1)
        acc += q * q
        word = (i % 5,) + word[:5]
        words[word] = words.get(word, 0) + q
    return acc + sum(words.values())


def chunk_cpu_s() -> float:
    t0 = time.thread_time()
    chunk()
    return time.thread_time() - t0


class Calibrator:
    """Chunks of reference work run from a SIGALRM timer during a pass, in
    this process and in every process it forks while started."""

    def __init__(self, wrap=None, interval_s: float = INTERVAL_S):
        """``wrap(name, fn)``, if given, wraps this process's timer handler."""
        self.interval_s = interval_s
        self._handler = wrap("calibrate.chunk", self._tick) if wrap else self._tick
        self.chunks = 0
        self.own_cpu_s = 0.0
        self.own_wall_s = 0.0
        self._previous = None
        self._following = False
        self._forks = 0
        self._shared = mmap.mmap(-1, WORKER_SLOTS * _SLOT.size)
        self._slot = None  # in a forked worker: where it reports
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_worker)

    def _tick(self, signum, frame) -> None:
        w0 = time.perf_counter()
        self.own_cpu_s += chunk_cpu_s()
        self.chunks += 1
        self.own_wall_s += time.perf_counter() - w0
        if self._slot is not None:
            _SLOT.pack_into(self._shared, self._slot * _SLOT.size, self.chunks, self.own_cpu_s)

    def _before_fork(self) -> None:
        if self._following:
            self._forks += 1

    def _in_worker(self) -> None:
        if not self._following or self._forks > WORKER_SLOTS:
            return
        # The timer is not inherited: start one here, with fresh counts.
        self._following = False  # a worker's own forks are not followed
        self._slot = self._forks - 1
        self._handler = self._tick
        self.chunks, self.own_cpu_s, self.own_wall_s = 0, 0.0, 0.0
        self._arm()

    def _arm(self) -> None:
        chunk()  # warm: the first chunk of a process pays for its imports
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def start(self) -> None:
        self._following = True
        self._arm()

    def stop(self) -> None:
        self._following = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def workers(self) -> list[tuple[int, float]]:
        """(chunks, chunk CPU seconds) of each process forked while started."""
        slots = min(self._forks, WORKER_SLOTS)
        return [_SLOT.unpack_from(self._shared, i * _SLOT.size) for i in range(slots)]

    @property
    def cpu_s(self) -> float:
        """CPU time of all chunks, here and in the forked workers."""
        return self.own_cpu_s + sum(cpu for _, cpu in self.workers())

    @property
    def wall_s(self) -> float:
        """Wall time the chunks added to the pass: this process's chunks, plus
        the workers' chunks shared out over the workers, which run at once."""
        workers = self.workers()
        return self.own_wall_s + sum(cpu for _, cpu in workers) / max(1, len(workers))

    def slowness(self) -> float:
        """Mean chunk time over the reference chunk time (1.0 = reference)."""
        if not self.chunks:
            self._tick(signal.SIGALRM, None)
        chunks = self.chunks + sum(n for n, _ in self.workers())
        return self.cpu_s / chunks / CHUNK_REF_S


def spot_slowness(samples: int = 150) -> float:
    """Slowness from chunks run back to back (after one warm chunk)."""
    chunk()
    return statistics.fmean(chunk_cpu_s() for _ in range(samples)) / CHUNK_REF_S
