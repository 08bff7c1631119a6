"""The simulation kernel's scheduler: where pending entries live.

The :class:`~repro.simkernel.kernel.Simulator` owns the clock and the
dispatch semantics; *where pending entries live and how the next one is
found* is delegated to a :class:`BatchedBackend`, the one scheduler every
simulator builds.  Three structures replace a single binary heap:

* a **monotone run** — a sorted list consumed by index.  Discrete-event
  workloads schedule overwhelmingly forward in time, so most entries
  append to the tail in already-sorted order (same-instant bursts at one
  ``(time, priority)`` frontier are the extreme case: they arrive in
  sequence order and cost one ``list.append`` each, with no per-event
  sift);
* a **near heap** for the rare out-of-order arrival inside the horizon
  (urgent same-instant wakeups, a timer armed behind the run tail);
* a **far heap** for timers beyond the horizon (watchdog periods,
  rejuvenation schedules).  Far entries migrate into the run in bulk —
  one filter + sort — when the near tier drains, so cancelled far timers
  are dropped wholesale without ever touching a heap.

Cancellation is lazy everywhere: :meth:`BatchedBackend.note_cancel` only
counts, and dead entries are skipped on pop or removed in bulk by
:meth:`BatchedBackend.compact` when they dominate their tier.

Determinism contract
--------------------
Entries are ordered strictly by ``(time, priority, sequence)`` with the
sequence number assigned in :meth:`BatchedBackend.schedule` call order,
and every pop returns the global minimum — exactly what a single binary
heap does.  ``tests/simkernel/heap_oracle.py`` keeps that heap as the
oracle: the differential fuzz in ``tests/simkernel/test_backends.py``
diffs execution order against it, ``benchmarks/bench_kernel.py`` gates
this backend's events/sec against it, and the golden experiment rows pin
the contract end to end.  A simulator accepts an injected backend
instance (``Simulator(backend=...)``) only as that test seam.

Entries are ``(time, priority, sequence, item)`` tuples, where ``item``
is an :class:`~repro.simkernel.events.Event` (or subclass) or a
:class:`~repro.simkernel.kernel.TimerHandle`.  The sequence field makes
keys unique, so tuple comparison never reaches the item.
"""

from __future__ import annotations

import heapq
import typing

from repro.errors import SimulationError
from repro.simkernel.events import PRIORITY_NORMAL

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.kernel import TimerHandle

_INF = float("inf")

#: Cancelled entries trigger an automatic compaction only past this count
#: *and* once they outnumber live entries — small queues never pay.
COMPACT_MIN = 64


def _is_dead(item: typing.Any) -> bool:
    """True for a lazily-deleted (cancelled timer) entry payload."""
    return getattr(item, "_cancelled", False) is True


class BatchedBackend:
    """Monotone-run + two-level-timer backend; see the module docstring.

    Structure invariants (all keys are ``(time, priority, sequence)``):

    * ``_run[_idx:]`` is sorted ascending; slots before ``_idx`` have
      been consumed and overwritten with ``None`` (releasing the entry
      tuple promptly — the freelists key off refcounts) until trimming
      drops the prefix;
    * ``_tail`` is the largest key ever appended to the run since it was
      last rebuilt — an upper bound on ``run[-1]`` that is valid even
      when the tail slots have been consumed and nulled;
    * ``_heap`` is a binary heap of in-horizon entries that arrived out
      of order (behind the run tail);
    * ``_far`` is a binary heap of entries with ``time >= _far_horizon``;
      the horizon only advances, so membership never needs revisiting;
    * every entry in ``_run``/``_heap`` sorts strictly below every entry
      in ``_far`` — the near tier fully drains before migration.

    The three lists are mutated in place (never rebound) so the kernel's
    inlined run loop can hold local references across compactions.

    The methods below are everything the kernel calls; a test oracle
    injected through ``Simulator(backend=...)`` implements the same ones.
    """

    __slots__ = (
        "_cancelled",
        "_far",
        "_far_cancelled",
        "_far_horizon",
        "_heap",
        "_idx",
        "_run",
        "_seq",
        "_span",
        "_tail",
    )

    #: Width of the near-time window, in simulated seconds.  Timers due
    #: beyond ``now + span`` land in the far heap.  Any positive value
    #: yields identical execution order, so this is a constant, not an
    #: option: 64 s sat at the minimum of the horizon sweep recorded in
    #: DESIGN.md (minute-scale epochs and reboots).  ``span=`` exists for
    #: the tests that prove order never depends on it.
    DEFAULT_SPAN = 64.0

    def __init__(self, start_time: float = 0.0, span: float = DEFAULT_SPAN) -> None:
        if span <= 0:
            raise SimulationError(f"horizon span must be positive, got {span}")
        self._run: list[tuple] = []
        self._idx = 0
        self._tail: tuple | None = None
        self._heap: list[tuple] = []
        self._far: list[tuple] = []
        self._far_horizon = start_time + span
        self._span = span
        self._seq = 0
        self._cancelled = 0  # lazily-dead entries in _run/_heap
        self._far_cancelled = 0  # lazily-dead entries in _far

    # -- write side --------------------------------------------------------

    def schedule(self, time: float, priority: int, item: typing.Any) -> None:
        """Enqueue ``item`` at ``(time, priority)``, assigning a sequence."""
        self._seq += 1
        entry = (time, priority, self._seq, item)
        if time >= self._far_horizon:
            heapq.heappush(self._far, entry)
            return
        tail = self._tail
        # Monotone tail append: comparing against the largest key ever
        # appended (consumed or not) is stricter than the sortedness of
        # the live suffix requires, but keeps the check O(1) and valid
        # after consumed slots are nulled.  The sequence field makes
        # ties impossible, so >= is exact; a "miss" here only routes the
        # entry through the near heap — order is unaffected.
        if tail is None or entry >= tail:
            self._run.append(entry)
            self._tail = entry
        else:
            heapq.heappush(self._heap, entry)

    def schedule_timer(self, handle: "TimerHandle") -> None:
        """Enqueue a timer handle at ``handle.time``, normal priority."""
        # schedule() with time=handle.time, priority=PRIORITY_NORMAL
        # inlined: fluid-sharing churn arms hundreds of thousands of
        # timers per experiment and the extra frame is measurable.
        self._seq += 1
        time = handle.time
        entry = (time, PRIORITY_NORMAL, self._seq, handle)
        if time >= self._far_horizon:
            heapq.heappush(self._far, entry)
            return
        tail = self._tail
        if tail is None or entry >= tail:
            self._run.append(entry)
            self._tail = entry
        else:
            heapq.heappush(self._heap, entry)

    # -- read side ---------------------------------------------------------

    def pop_next(self, deadline: float = _INF) -> tuple | None:
        """Remove and return the earliest live entry, or ``None``.

        Entries after ``deadline`` are left queued; lazily-cancelled
        timers encountered on the way are discarded and accounted.
        """
        run, heap = self._run, self._heap
        while True:
            idx = self._idx
            if idx < len(run):
                entry = run[idx]
                if heap and heap[0] < entry:
                    if heap[0][0] > deadline:
                        return None
                    entry = heapq.heappop(heap)
                elif entry[0] > deadline:
                    return None
                else:
                    run[idx] = None  # release the tuple for the freelists
                    self._idx = idx + 1
                    if self._idx > 4096 and self._idx * 2 > len(run):
                        self._trim_run()
            elif heap:
                if heap[0][0] > deadline:
                    return None
                entry = heapq.heappop(heap)
            elif self._far:
                if self._far[0][0] > deadline:
                    return None
                self._migrate()
                continue
            else:
                return None
            if _is_dead(entry[3]):
                self._cancelled -= 1
                continue
            return entry

    def peek(self) -> float:
        """Time of the earliest live entry, or ``inf`` when empty."""
        while True:
            run, heap = self._run, self._heap
            idx = self._idx
            while idx < len(run) and _is_dead(run[idx][3]):
                idx += 1
                self._cancelled -= 1
            self._idx = idx
            while heap and _is_dead(heap[0][3]):
                heapq.heappop(heap)
                self._cancelled -= 1
            head = _INF
            if idx < len(run):
                head = run[idx][0]
            if heap and heap[0][0] < head:
                head = heap[0][0]
            if head != _INF:
                return head
            if self._far:
                self._migrate()
                continue
            return _INF

    # -- cancellation ------------------------------------------------------

    def note_cancel(self, handle: "TimerHandle") -> None:
        """Account one lazily-cancelled handle still queued here."""
        # The horizon only advances, so time >= horizon <=> still in _far.
        if handle.time >= self._far_horizon:
            self._far_cancelled += 1
            if (
                self._far_cancelled > COMPACT_MIN
                and self._far_cancelled * 2 > len(self._far)
            ):
                self._compact_far()
        else:
            self._cancelled += 1
            # Near size computed inside the condition: the COMPACT_MIN
            # short-circuit spares the common low-churn cancel the len
            # arithmetic.
            if self._cancelled > COMPACT_MIN and self._cancelled * 2 > (
                len(self._run) - self._idx + len(self._heap)
            ):
                self._compact_near()

    def compact(self) -> None:
        """Physically remove every lazily-cancelled entry."""
        self._compact_near()
        self._compact_far()

    # -- sizes -------------------------------------------------------------

    def pending(self) -> int:
        """Number of live (non-cancelled) queued entries."""
        return (
            (len(self._run) - self._idx)
            + len(self._heap)
            + len(self._far)
            - self._cancelled
            - self._far_cancelled
        )

    def storage_size(self) -> int:
        """Entries physically retained, including lazily-cancelled ones."""
        return (len(self._run) - self._idx) + len(self._heap) + len(self._far)

    # -- internals ---------------------------------------------------------

    def _trim_run(self) -> None:
        """Drop the consumed prefix (in place: loops hold references)."""
        del self._run[: self._idx]
        self._idx = 0

    def _compact_near(self) -> None:
        run = self._run
        live = [e for e in run[self._idx :] if not _is_dead(e[3])]
        run[:] = live
        self._idx = 0
        if live:
            self._tail = live[-1]
        self._heap[:] = [e for e in self._heap if not _is_dead(e[3])]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def _compact_far(self) -> None:
        self._far[:] = [e for e in self._far if not _is_dead(e[3])]
        heapq.heapify(self._far)
        self._far_cancelled = 0

    def _migrate(self) -> None:
        """Advance the horizon and pull due far entries into the run.

        Called only when the near tier is fully drained, so the pulled
        batch *is* the new run after one bulk sort.  Cancelled far
        entries are dropped here without individual heap operations.
        """
        far = self._far
        base = far[0][0]
        if base == _INF:
            horizon = _INF
            pulled = far[:]
            del far[:]
        else:
            horizon = base + self._span
            pulled = []
            while far and far[0][0] < horizon:
                pulled.append(heapq.heappop(far))
        live = [e for e in pulled if not _is_dead(e[3])]
        self._far_cancelled -= len(pulled) - len(live)
        live.sort()
        self._run[:] = live
        self._idx = 0
        self._tail = live[-1] if live else None
        self._far_horizon = horizon

