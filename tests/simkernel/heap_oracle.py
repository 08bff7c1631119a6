"""The single binary heap: the scheduler's test oracle.

This is the pure-python heap the kernel used before
:class:`~repro.simkernel.backends.BatchedBackend` became its only
scheduler: one ``heapq``-managed list, lazy deletion of cancelled timers,
and a whole-heap compaction once cancelled entries dominate.  It pops the
global ``(time, priority, sequence)`` minimum by construction, so the
differential fuzz (``test_backends.py``) diffs the batched scheduler's
execution order against it, and ``benchmarks/bench_kernel.py`` gates the
batched scheduler's events/sec against it in the same run.

Inject it with ``Simulator(backend=ReferenceBackend())``; the simulator
then runs its hooked ``pop_next`` loop over it.
"""

from __future__ import annotations

import heapq
import typing

from repro.simkernel.backends import COMPACT_MIN, _is_dead
from repro.simkernel.events import PRIORITY_NORMAL

_INF = float("inf")


class ReferenceBackend:
    """One heap, lazy deletion; the same methods as ``BatchedBackend``."""

    __slots__ = ("_cancelled", "_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._cancelled = 0

    def schedule(self, time: float, priority: int, item: typing.Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, item))

    def schedule_timer(self, handle: typing.Any) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap, (handle.time, PRIORITY_NORMAL, self._seq, handle)
        )

    def pop_next(self, deadline: float = _INF) -> tuple | None:
        heap = self._heap
        while heap:
            if heap[0][0] > deadline:
                return None
            entry = heapq.heappop(heap)
            if _is_dead(entry[3]):
                self._cancelled -= 1
                continue
            return entry
        return None

    def peek(self) -> float:
        heap = self._heap
        while heap:
            if _is_dead(heap[0][3]):
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0][0]
        return _INF

    def note_cancel(self, handle: typing.Any) -> None:
        self._cancelled += 1
        if self._cancelled > COMPACT_MIN and self._cancelled * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        self._heap[:] = [e for e in self._heap if not _is_dead(e[3])]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def pending(self) -> int:
        return len(self._heap) - self._cancelled

    def storage_size(self) -> int:
        return len(self._heap)
