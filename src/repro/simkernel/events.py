"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-scheduling world view: an
:class:`Event` is a one-shot occurrence with an outcome (a value or an
exception).  Processes (see :mod:`repro.simkernel.process`) are generators
that ``yield`` events to wait for them.

Events move through three states:

``PENDING``
    Created but not yet triggered; waiting for someone to call
    :meth:`Event.succeed` or :meth:`Event.fail`.
``TRIGGERED``
    An outcome has been decided and the event is queued for callback
    processing by the simulator.
``PROCESSED``
    Callbacks have run; the outcome is final and readable.

A failed event whose exception nobody observed would silently swallow an
error, so the simulator raises it out of :meth:`Simulator.run` unless the
event was explicitly :meth:`Event.defuse`-d.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.kernel import Simulator

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

# Scheduling priorities: lower runs first at equal simulation times.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

Callback = typing.Callable[["Event"], None]


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.simkernel.kernel.Simulator`.
    name:
        Optional label used in ``repr`` and traces.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, sim: "Simulator", name: str | None = None) -> None:
        self.sim = sim
        self.name = name
        self.callbacks: list[Callback] = []
        self._value: typing.Any = None
        self._ok: bool | None = None
        self._state = PENDING
        self._defused = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once an outcome has been decided."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the outcome is final."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has no outcome yet")
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's outcome value (or exception object if it failed)."""
        if self._state == PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure outcome no longer needs an observer."""
        return self._defused

    # -- outcome ----------------------------------------------------------

    def succeed(self, value: typing.Any = None) -> "Event":
        """Decide a successful outcome and queue callback processing."""
        if self._state != PENDING:
            self._note_double_trigger("succeed")
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        # sim._schedule is the backend's bound schedule() — one call;
        # succeed() runs once per completed unit of simulated work,
        # everywhere.
        sim = self.sim
        sim._schedule(sim._now, PRIORITY_NORMAL, self)
        return self

    def succeed_at(self, time: float, value: typing.Any = None) -> "Event":
        """Decide a successful outcome now, delivering it at ``time``.

        Equivalent to arming a timer whose callback calls :meth:`succeed`
        at ``time``, minus the timer: the event is enqueued directly at
        the deadline, the same way :class:`Timeout` schedules itself.
        Fixed-latency completions (e.g. NIC wire delay after the
        bandwidth share is paid) use this on their hot path.
        """
        if self._state != PENDING:
            self._note_double_trigger("succeed_at")
            raise SimulationError(f"{self!r} already triggered")
        sim = self.sim
        if time < sim._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={sim._now}"
            )
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        sim._schedule(time, PRIORITY_NORMAL, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Decide a failure outcome and queue callback processing."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._state != PENDING:
            self._note_double_trigger("fail")
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        sim = self.sim
        sim._schedule(sim._now, PRIORITY_NORMAL, self)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the simulator will not re-raise it."""
        self._defused = True

    def _note_double_trigger(self, method: str) -> None:
        """Tell the sanitizer (if any) before the already-triggered raise."""
        sanitizer = getattr(self.sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.on_double_trigger(self, method)

    # -- callbacks ---------------------------------------------------------

    def add_callback(self, callback: Callback) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately, which makes waiting on completed events race-free.
        """
        if self._state == PROCESSED:
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callback) -> None:
        """Remove a previously added callback (no-op if absent)."""
        try:
            self.callbacks.remove(callback)
        except ValueError:
            pass

    def _process(self) -> None:
        """Run callbacks; called by the simulator's event loop."""
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        elif not self._ok and not self._defused:
            # Nobody is watching a failure: surface it from Simulator.run().
            raise self._value

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        return f"<{label} {self._state} at t={self.sim.now:.6g}>"

    def __or__(self, other: "Event") -> "AnyOf":
        """``a | b``: an :class:`AnyOf` over both events."""
        return AnyOf(self.sim, [self, other])


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: typing.Any = None,
        name: str | None = None,
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__: timeouts are the kernel's hottest
        # allocation, and the label is built lazily in __repr__.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        self.delay = delay
        # The delay check above already rules out scheduling in the past,
        # so this needs no guard of its own.
        sim._schedule(sim._now + delay, PRIORITY_NORMAL, self)

    def __repr__(self) -> str:
        label = self.name or f"Timeout({self.delay:.6g})"
        return f"<{label} {self._state} at t={self.sim.now:.6g}>"


class Condition(Event):
    """Base for events that fire when some of several events have fired.

    The condition's value is a dict mapping each *fired* constituent event
    to its value, in firing order (insertion-ordered dict).
    """

    __slots__ = ("events", "_matched")

    def __init__(self, sim: "Simulator", events: typing.Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._matched: dict[Event, typing.Any] = {}
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if self._check(0, len(self.events)):
            self.succeed(dict(self._matched))
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _check(self, fired: int, total: int) -> bool:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._matched[event] = event.value
        if self._check(len(self._matched), len(self.events)):
            self.succeed(dict(self._matched))


class AllOf(Condition):
    """Fires when all constituent events have fired successfully."""

    __slots__ = ()

    def _check(self, fired: int, total: int) -> bool:
        return fired == total


class AnyOf(Condition):
    """Fires when at least one constituent event has fired successfully."""

    __slots__ = ()

    def _check(self, fired: int, total: int) -> bool:
        return fired >= 1 or total == 0

