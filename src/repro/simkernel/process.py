"""Generator-based simulated processes.

A *process* is a Python generator that yields :class:`~repro.simkernel.events.Event`
objects; the kernel resumes the generator with the event's value when it
fires (or throws the event's exception into it).  A :class:`Process` is
itself an event: it succeeds with the generator's return value, so processes
can wait for each other simply by yielding them.

A process runs until its generator returns or raises, or until
:meth:`Process.kill` ends it; nothing else can break into its wait.
"""

from __future__ import annotations

import typing

from repro.errors import ProcessKilled, SimulationError
from repro.simkernel.events import PENDING, PROCESSED, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class _StartTrigger:
    """Shared successful pseudo-event that kicks off every process.

    Only the attributes :meth:`Process._resume` reads are provided; using
    one immortal instance avoids allocating a real start Event (plus its
    callback list) per spawn.
    """

    __slots__ = ()

    _ok = True
    ok = True
    value = None
    _value = None


_START = _StartTrigger()


class Process(Event):
    """A running simulated activity wrapping a generator.

    Do not instantiate directly; use :meth:`Simulator.spawn`.
    """

    __slots__ = ("generator", "_target")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you forget a yield in the process function?"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._target: Event | None = None
        # Kick off the generator at the current time, urgently so that a
        # freshly spawned process starts before ordinary events at this
        # instant are processed.
        sim._call_soon_urgent(self._start)
        if sim.sanitizer is not None:
            sim.sanitizer.register_process(self)

    # -- public API --------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting on, if any."""
        return self._target

    def kill(self) -> None:
        """Terminate the process immediately with :class:`ProcessKilled`.

        The process event *fails*, but pre-defused: a kill is an intentional
        act by the caller, not an unobserved error.
        """
        if not self.is_alive:
            return
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        self.generator.close()
        self.defuse()
        self.fail(ProcessKilled(self.name))

    def _start(self) -> None:
        """Timer callback that performs the first resumption."""
        self._resume(_START)

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the outcome of ``trigger``."""
        sim = self.sim
        generator = self.generator
        sim._active_process = self
        self._target = None
        event: Event = trigger
        while True:
            try:
                if event._ok:
                    # _value, not the .value property: the trigger is always
                    # past PENDING here, so the property's guard is dead
                    # weight on the hottest resume path.
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                sim._active_process = None
                if self._state == PENDING:  # not already killed
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                sim._active_process = None
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                if self._state == PENDING:
                    self.fail(exc)
                return

            if not isinstance(next_event, Event):
                sim._active_process = None
                error = SimulationError(
                    f"process {self.name!r} yielded {next_event!r}, not an Event"
                )
                self.fail(error)
                return
            if next_event.sim is not sim:
                sim._active_process = None
                self.fail(SimulationError("yielded event belongs to another simulator"))
                return

            if next_event._state == PROCESSED:
                # Already done: consume its outcome synchronously.
                event = next_event
                continue
            self._target = next_event
            next_event.callbacks.append(self._resume)
            sim._active_process = None
            return
