"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock and the dispatch semantics, and
is the factory for all kernel primitives (events, timeouts, processes).
Where pending entries live — timer tiers, lazy deletion — is delegated to
the :class:`~repro.simkernel.backends.BatchedBackend` scheduler.  The API
deliberately mirrors well-known DES libraries so the higher layers read
naturally::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(3.0)
        return "done"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "done" and sim.now == 3.0

Determinism: at equal timestamps events are processed in (priority,
insertion) order, so a simulation with fixed seeds is exactly repeatable —
a property the test suite and the paper-reproduction experiments rely on.
Two run loops execute that order: :meth:`Simulator._run_batched`, the
scheduler's pop inlined for speed, and :meth:`Simulator._run_generic`,
which pops through ``pop_next`` so sanitized runs can hook every entry
and tests can inject the heap oracle (see :mod:`repro.simkernel.backends`
for the contract and the fuzzed proof).
"""

from __future__ import annotations

import heapq
import os
import sys
import typing

from repro.errors import SimulationError
from repro.simkernel.backends import BatchedBackend
from repro.simkernel.events import (
    AllOf,
    AnyOf,
    Event,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    PROCESSED,
    TRIGGERED,
    Timeout,
)
from repro.simkernel.process import Process, ProcessGenerator

_observers: list[typing.Callable[["Simulator"], None]] = []
"""Callbacks invoked with each newly constructed :class:`Simulator`.

Normally empty; :func:`repro.analysis.obs.capture_simulators` registers
one so CLI trace export can reach simulators built deep inside
experiment runners.  Construction-time only — observers never see run
events and cannot perturb anything.
"""

_getrefcount = sys.getrefcount

#: Freelists never hold more than this many recycled objects per kind.
_POOL_CAP = 1024

#: ``sys.getrefcount(item)`` for an entry payload referenced only by its
#: entry tuple, the dispatch local, and the getrefcount argument — i.e.
#: an object nobody outside the event loop can observe.  Recycling is
#: gated on exactly this count, so a handle or timeout the user (or a
#: waiting process frame) still references is never reused.
_UNREFERENCED = 3


class TimerHandle:
    """A cancellable scheduled callback (see :meth:`Simulator.call_at`).

    Timer handles sit directly in the scheduler backend — no Event or
    closure is allocated per timer, which matters because fluid-sharing
    pools reschedule (cancel + re-arm) a timer on every membership
    change.  A cancelled handle is dropped by the event loop without any
    callback bookkeeping when its deadline is reached, and the backend
    compacts its structures if cancelled handles ever dominate them.
    """

    # _san_origin is set only by the determinism sanitizer and stays unset
    # otherwise — readers must use getattr(handle, "_san_origin", None).
    __slots__ = ("_cancelled", "_popped", "_san_origin", "_sim", "callback", "time")

    def __init__(
        self,
        time: float,
        callback: typing.Callable[[], None] | None = None,
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self._sim = sim
        self._cancelled = False
        self._popped = False

    def cancel(self) -> None:
        """Prevent the callback from running (safe after it ran)."""
        if self._cancelled:
            return
        self._cancelled = True
        self.callback = None  # release closure references promptly
        # Only a handle still sitting in the backend needs accounting; a
        # cancel after the loop already popped it (fired, or discarded by
        # an earlier cancel pass) must not inflate the lazy-delete
        # counters — phantom counts trigger pointless whole-structure
        # compaction scans.
        if self._sim is not None and not self._popped:
            self._sim._backend.note_cancel(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0).
    trace:
        Optional :class:`~repro.simkernel.tracing.Tracer`; if omitted a fresh
        one is created so instrumentation is always available.
    sanitize:
        ``True`` attaches a
        :class:`~repro.simkernel.sanitizer.DeterminismSanitizer` (exposed as
        ``sim.sanitizer``) that observes the run for determinism hazards
        without perturbing it, and turns on runtime trace-schema
        validation (:meth:`~repro.simkernel.tracing.Tracer
        .enable_schema_validation`).  ``None`` (the default) consults the
        ``REPRO_SANITIZE`` environment variable.
    metrics:
        ``True`` enables the :class:`~repro.simkernel.metrics
        .MetricsRegistry` exposed as ``sim.metrics`` (instruments
        accumulate and keep sample series).  ``False`` keeps it in
        no-op mode.  ``None`` (the default) consults ``REPRO_METRICS``.
        Enabled or not, metrics never perturb the simulation.
    backend:
        ``None`` (the default) builds a
        :class:`~repro.simkernel.backends.BatchedBackend`.  A fresh
        backend instance is the test seam: the heap oracle is injected
        here, and runs over anything but a ``BatchedBackend`` take the
        hooked loop.  Anything else raises :class:`SimulationError`.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: typing.Any = None,
        sanitize: bool | None = None,
        metrics: bool | None = None,
        backend: typing.Any = None,
    ) -> None:
        from repro.simkernel.metrics import MetricsRegistry
        from repro.simkernel.spans import SpanTracker
        from repro.simkernel.tracing import Tracer  # local import: cycle guard

        self._now = float(start_time)
        if backend is None:
            backend = BatchedBackend(start_time=self._now)
        elif isinstance(backend, type) or not hasattr(backend, "pop_next"):
            raise SimulationError(
                f"backend must be None or a backend instance, got {backend!r}"
            )
        self._backend = backend
        self._schedule = self._backend.schedule
        self._active_process: Process | None = None
        self._timeout_pool: list[Timeout] = []
        self._timer_pool: list[TimerHandle] = []
        # Columnar: record() appends to typed column buffers and allocates
        # no per-record object unless a live subscription matches, so
        # always-on tracing stays off the event hot path's flamegraph.
        self.trace = trace if trace is not None else Tracer(self)
        self.spans = SpanTracker(self)
        if metrics is None:
            metrics = os.environ.get("REPRO_METRICS", "") not in ("", "0")
        self.metrics = MetricsRegistry(self, enabled=bool(metrics))
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        if sanitize:
            from repro.simkernel.sanitizer import DeterminismSanitizer

            self.sanitizer: typing.Any = DeterminismSanitizer(self)
            # caller-supplied trace objects may predate schema validation
            enable = getattr(self.trace, "enable_schema_validation", None)
            if enable is not None:
                enable()
        else:
            self.sanitizer = None
        if _observers:
            for observer in _observers:
                observer(self)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def backend(self) -> typing.Any:
        """The scheduler in use: a
        :class:`~repro.simkernel.backends.BatchedBackend` unless a test
        injected another."""
        return self._backend

    # -- primitive factories -------------------------------------------------

    def event(self, name: str | None = None) -> Event:
        """Create an untriggered event."""
        return Event(self, name=name)

    def timeout(
        self, delay: float, value: typing.Any = None, name: str | None = None
    ) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        pool = self._timeout_pool
        if pool and delay >= 0:
            # Reset a recycled instance in place; the stores mirror
            # Timeout.__init__ exactly (a timeout is born triggered).
            # Negative (and NaN) delays fall through to the constructor,
            # which owns the error path.
            timeout = pool.pop()
            timeout.name = name
            timeout.delay = delay
            timeout._value = value
            timeout._ok = True
            timeout._state = TRIGGERED
            timeout._defused = False
            self._schedule(self._now + delay, PRIORITY_NORMAL, timeout)
            return timeout
        return Timeout(self, delay, value=value, name=name)

    def spawn(
        self, generator: ProcessGenerator, name: str | None = None
    ) -> Process:
        """Start a new process from a generator and return it."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """Event that fires when every given event has fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """Event that fires when any given event has fired."""
        return AnyOf(self, events)

    def call_at(
        self, time: float, callback: typing.Callable[[], None]
    ) -> TimerHandle:
        """Run ``callback()`` at absolute simulated ``time``; cancellable.

        Used by fluid-sharing resources that must reschedule their next
        completion whenever membership changes.
        """
        if time < self._now:
            raise SimulationError(f"call_at({time}) is in the past (now={self._now})")
        pool = self._timer_pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle.callback = callback
            handle._cancelled = False
            handle._popped = False
        else:
            handle = TimerHandle(time, callback, self)
        if self.sanitizer is not None:
            self.sanitizer.note_timer(handle)
        self._backend.schedule_timer(handle)
        return handle

    def call_in(
        self, delay: float, callback: typing.Callable[[], None]
    ) -> TimerHandle:
        """Run ``callback()`` after ``delay`` seconds; cancellable."""
        return self.call_at(self._now + delay, callback)

    def rearm_timer(
        self,
        handle: TimerHandle | None,
        time: float,
        callback: typing.Callable[[], None],
    ) -> TimerHandle:
        """Cancel ``handle`` (if any) and arm a fresh timer at ``time``.

        Semantically identical to ``handle.cancel()`` followed by
        :meth:`call_at` — the replacement takes a *new* scheduling
        sequence number, so same-instant ordering is exactly what the
        two separate calls would produce.  One entry point lets the
        cancel/re-arm churn of fluid-sharing pools flow through the
        backend's lazy-delete accounting and the handle freelist in a
        single call.
        """
        if handle is not None:
            handle.cancel()
        return self.call_at(time, callback)

    def _call_soon_urgent(self, callback: typing.Callable[[], None]) -> None:
        """Schedule ``callback()`` at the current instant, urgently.

        Used by :class:`~repro.simkernel.process.Process` start-up; cheaper
        than a full Event because nothing ever waits on it.
        """
        pool = self._timer_pool
        if pool:
            handle = pool.pop()
            handle.time = self._now
            handle.callback = callback
            handle._cancelled = False
            handle._popped = False
        else:
            handle = TimerHandle(self._now, callback, self)
        self._schedule(self._now, PRIORITY_URGENT, handle)

    # -- scheduling internals -------------------------------------------------

    def _enqueue(self, event: Event, priority: int) -> None:
        # "Now" can never be in the past: skip _enqueue_at's guard.
        self._schedule(self._now, priority, event)

    def _enqueue_at(self, time: float, event: Event, priority: int) -> None:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._schedule(time, priority, event)

    def _recycle_timer(self, handle: TimerHandle) -> None:
        """Return a dead, externally-unreferenced handle to the freelist."""
        pool = self._timer_pool
        if len(pool) < _POOL_CAP:
            handle.callback = None
            pool.append(handle)

    # -- event loop ------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._backend.peek()

    def step(self) -> None:
        """Process the next scheduled event, advancing the clock.

        Cancelled timers encountered on the way are discarded without any
        callback bookkeeping (they count as no event at all).
        """
        entry = self._backend.pop_next()
        if entry is None:
            raise SimulationError("step() with an empty event queue")
        time, priority, _, item = entry
        san = self.sanitizer
        if san is not None:
            san.on_execute(time, priority, item)
        self._now = time
        if type(item) is TimerHandle:
            item._popped = True
            item.callback()
        else:
            item._process()

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time (the clock is
          advanced to exactly ``until`` even if no event fires then);
        * an :class:`Event` — run until that event has been processed, and
          return its value (re-raising its exception on failure).
        """
        # Sanitized runs and injected oracles take the hooked loop, so the
        # inlined one carries no per-event hook branch.
        if self.sanitizer is not None or type(self._backend) is not BatchedBackend:
            return self._run_generic(until)
        return self._run_batched(until)

    def _run_batched(self, until: float | Event | None) -> typing.Any:
        """The :meth:`run` semantics inlined over the batched scheduler.

        One dynamic dispatch per event is measurable at millions of events
        per experiment, so this loop inlines the backend's pop.  The
        batched structures (monotone run list, near/far heaps) are mutated
        in place by the backend, never rebound, so the local references
        below stay valid across compactions and migrations.  Beyond the
        cheaper pop/schedule, this loop recycles dead timeouts and fired
        timer handles into per-simulator freelists — an object is reused
        only when ``sys.getrefcount`` proves the event loop holds the sole
        references, so anything a process or caller still observes is
        left alone.
        """
        backend = self._backend
        run = backend._run
        heap = backend._heap
        far = backend._far
        heappop = heapq.heappop
        timeout_pool = self._timeout_pool
        until_event: Event | None = None
        deadline = float("inf")
        if isinstance(until, Event):
            until_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"run(until={deadline}) is in the past")

        while True:
            if until_event is not None and until_event._state == PROCESSED:
                break
            idx = backend._idx
            if idx < len(run):
                entry = run[idx]
                if heap and heap[0] < entry:
                    if heap[0][0] > deadline:
                        break
                    entry = heappop(heap)
                elif entry[0] > deadline:
                    break
                else:
                    run[idx] = None  # free the tuple for the freelists
                    idx += 1
                    backend._idx = idx
                    if idx > 4096 and idx * 2 > len(run):
                        backend._trim_run()
            elif heap:
                if heap[0][0] > deadline:
                    break
                entry = heappop(heap)
            elif far:
                if far[0][0] > deadline:
                    break
                backend._migrate()
                continue
            else:
                break

            item = entry[3]
            if type(item) is TimerHandle:
                if item._cancelled:
                    backend._cancelled -= 1
                    if _getrefcount(item) == _UNREFERENCED:
                        self._recycle_timer(item)
                    continue
                item._popped = True
                self._now = entry[0]
                item.callback()
                if (
                    not item._cancelled
                    and _getrefcount(item) == _UNREFERENCED
                ):
                    self._recycle_timer(item)
            else:
                self._now = entry[0]
                item._process()
                if (
                    type(item) is Timeout
                    and not item.callbacks
                    and _getrefcount(item) == _UNREFERENCED
                    and len(timeout_pool) < _POOL_CAP
                ):
                    timeout_pool.append(item)

        if until_event is not None:
            if until_event._state != PROCESSED:
                raise SimulationError(
                    f"event queue exhausted before {until_event!r} fired"
                )
            if not until_event._ok:
                until_event.defuse()
                raise until_event.value
            return until_event._value
        if until is not None:
            self._now = deadline
        return None

    def _run_generic(self, until: float | Event | None) -> typing.Any:
        """The :meth:`run` semantics over the backend's ``pop_next``.

        Used for sanitized runs and for an injected test oracle; the
        observable simulation — pop order, clock advances, callback
        execution — is identical to :meth:`_run_batched`.  Sanitizer hooks
        fire just before each entry executes.
        """
        backend = self._backend
        pop_next = backend.pop_next
        san = self.sanitizer

        until_event: Event | None = None
        deadline = float("inf")
        if isinstance(until, Event):
            until_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"run(until={deadline}) is in the past")

        try:
            while True:
                if until_event is not None and until_event._state == PROCESSED:
                    break
                entry = pop_next(deadline)
                if entry is None:
                    break
                time, priority, _, item = entry
                if san is not None:
                    san.on_execute(time, priority, item)
                self._now = time
                if type(item) is TimerHandle:
                    item._popped = True
                    item.callback()
                else:
                    item._process()

            if until_event is not None:
                if until_event._state != PROCESSED:
                    raise SimulationError(
                        f"event queue exhausted before {until_event!r} fired"
                    )
                if not until_event._ok:
                    until_event.defuse()
                    raise until_event.value
                return until_event._value
            if san is not None and until is None:
                san.on_queue_exhausted()
            if until is not None:
                self._now = deadline
            return None
        finally:
            if san is not None:
                san.on_run_exit()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator t={self._now:.6g} pending={self._backend.pending()}>"
