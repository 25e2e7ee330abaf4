"""Machine-speed probe, so that timings survive a noisy shared host.

On a shared VM the speed of the same CPU-bound Python code drifts by up to
2x over seconds to minutes, and thread CPU time drifts with wall time, so
neither medians nor CPU clocks hold a run steady. The probe measures that
drift directly: a timer interrupts the main thread every
``INTERVAL_S`` and runs a small fixed pure-Python computation (dict and set
updates, a sort), recording its thread CPU time. The computation is part of
the benchmark, never of the program, so a change to homgraph cannot move it.

A timing over ``[start, end]`` is normalized by the median chunk time
sampled within ``PAD_S`` of that interval::

    normalized = wall seconds * NOMINAL_S / median chunk seconds

``NOMINAL_S`` is the chunk's typical time inside a run on the host the
benchmark was tuned on (2 vCPUs, Intel Xeon, CPython 3.11), so normalized
figures read as seconds there. The chunks cost about 2% of the run, equally
on every commit. Thread CPU time keeps a
chunk that waits for the interpreter lock behind pool threads from reading
as a slow machine.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
PAD_S = 1.0
NOMINAL_S = 0.001


def _chunk() -> int:
    d: dict[int, int] = {}
    s: set[int] = set()
    for i in range(2000):
        k = (i * 7919) % 1013
        d[k] = d.get(k, 0) + 1
        s.add(k & 255)
    return sorted(d.items())[0][1] + len(s)


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall time, chunk CPU seconds)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.thread_time()
        _chunk()
        self.samples.append((time.perf_counter(), time.thread_time() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Multiplier that brings a timing over ``[start, end]`` to nominal speed."""
        near = [c for t, c in self.samples if start - PAD_S <= t <= end + PAD_S]
        if not near:
            return 1.0
        return NOMINAL_S / statistics.median(near)

    def median_chunk_s(self) -> float | None:
        return statistics.median(c for _, c in self.samples) if self.samples else None
