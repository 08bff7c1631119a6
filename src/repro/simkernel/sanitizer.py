"""Opt-in runtime determinism sanitizer for the simulation kernel.

``Simulator(sanitize=True)`` (or ``REPRO_SANITIZE=1`` in the environment)
attaches a :class:`DeterminismSanitizer` that *observes* the event loop and
reports latent repeatability hazards that static analysis (simlint) cannot
see:

``unpinned-order``
    Two live ``call_at`` timers fired at the same ``(time, priority)``
    instant, armed at the same simulated moment by *different* execution
    contexts, with callbacks bound to the same receiver object.  Their
    relative order is decided solely by the insertion sequence —
    deterministic today, but any refactor that reorders the arming sites
    silently reorders the callbacks.  Pairs that cannot race are not
    reported: timers armed at different simulated times are causally
    pinned (the later armer could already observe the earlier timer),
    same-context pairs are pinned by program order, and bound methods of
    *different* receivers (e.g. per-host ``SharedPool`` timers in a
    symmetric cluster) mutate disjoint state.  Unbound callables share
    one bucket — independence cannot be proven for them.
``double-trigger``
    ``succeed()``/``fail()`` on an already-triggered event.  The kernel
    raises either way; the sanitizer records a structured report first so
    test harnesses see *which* event raced even when the exception is
    swallowed by a process.
``unfinished-process``
    After a run-to-exhaustion (``run(until=None)``) a process is still
    alive — it waits on an event nobody will ever trigger (a deadlock).
    Runs bounded by ``until=`` end with live processes by design and are
    not checked.
``undrained-waiters``
    After a run-to-exhaustion a :class:`~repro.simkernel.resources.Resource`
    still has queued requests.
``stale-fluid-tick``
    A fluid tick that :class:`~repro.workloads.httperf.FluidCoordinator`
    would have served from its kept solve (a quiet tick) solves to a
    different ``(rate, up)`` for some client: the reuse rule missed a
    write.  Sanitized coordinators solve every tick and compare, so the
    report names the client, the tick and both pairs.

The sanitizer never perturbs the simulation: it draws no randomness,
records nothing to the trace, and schedules nothing — a sanitized run
produces rows bit-identical to an unsanitized one.  Findings surface as
:class:`DeterminismWarning` warnings (so ``pytest.warns`` and ``-W error``
work) and accumulate on ``sim.sanitizer.reports``;
:meth:`DeterminismSanitizer.assert_clean` turns them into a hard failure
for tests.
"""

from __future__ import annotations

import typing
import warnings

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.events import Event
    from repro.simkernel.kernel import Simulator, TimerHandle


class DeterminismWarning(UserWarning):
    """A determinism hazard observed by the runtime sanitizer."""


class SanitizerReport(typing.NamedTuple):
    """One structured sanitizer finding."""

    code: str
    time: float
    message: str

    def render(self) -> str:
        """One-line human-readable form (used for warning text)."""
        return f"[{self.code}] t={self.time:.6g}: {self.message}"


_TOP_CONTEXT = ("main", "top-level")


def _callback_label(callback: typing.Any) -> str:
    """A stable, address-free description of a timer callback."""
    owner = getattr(callback, "__self__", None)
    name = getattr(callback, "__name__", repr(callback))
    if owner is None:
        return name
    label = f"{type(owner).__name__}.{name}"
    owner_name = getattr(owner, "name", None)
    if isinstance(owner_name, str):
        label += f"({owner_name})"
    return label


class DeterminismSanitizer:
    """Observes one :class:`Simulator`; see the module docstring."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.reports: list[SanitizerReport] = []
        self._processes: list[typing.Any] = []
        self._resources: list[typing.Any] = []
        self._ctx: tuple[typing.Any, str] = _TOP_CONTEXT
        self._batch_key: tuple[float, int] | None = None
        # Entries: (receiver-identity, armed-at, arming-context, label).
        self._batch: list[
            tuple[typing.Any, float, tuple[typing.Any, str], str]
        ] = []

    # -- registration hooks (called by the kernel when sanitizing) ---------

    def note_timer(self, handle: "TimerHandle") -> None:
        """Record who armed a ``call_at`` timer, and when."""
        process = self.sim._active_process
        if process is not None:
            ctx: tuple[typing.Any, str] = (id(process), f"process {process.name!r}")
        else:
            ctx = self._ctx
        handle._san_origin = (ctx, self.sim._now)

    def register_process(self, process: typing.Any) -> None:
        """Track a Process for the end-of-run unfinished check."""
        self._processes.append(process)

    def register_resource(self, resource: typing.Any) -> None:
        """Track a Resource for the end-of-run drain check."""
        self._resources.append(resource)

    # -- event-loop hooks --------------------------------------------------

    def on_execute(self, time: float, priority: int, item: typing.Any) -> None:
        """Called just before the loop executes a popped entry."""
        key = (time, priority)
        if key != self._batch_key:
            self._flush_batch()
            self._batch_key = key
        origin = getattr(item, "_san_origin", None)
        if origin is not None:
            ctx, armed_at = origin
            callback = item.callback
            owner = getattr(callback, "__self__", None)
            receiver = id(owner) if owner is not None else None
            self._batch.append(
                (receiver, armed_at, ctx, _callback_label(callback))
            )
        self._ctx = (id(item), _callback_label(getattr(item, "callback", None) or item))

    def on_double_trigger(self, event: "Event", method: str) -> None:
        """An already-triggered event was triggered again (kernel raises
        right after this hook)."""
        self.report(
            "double-trigger",
            f"{method}() on already-{event._state} event {event.name or 'event'!r}",
        )

    def on_run_exit(self) -> None:
        """A ``run()`` or ``step()`` call returned: close the open
        same-instant batch, and count what runs next as top-level code."""
        self._flush_batch()
        self._batch_key = None
        self._ctx = _TOP_CONTEXT

    def on_queue_exhausted(self) -> None:
        """A ``run(until=None)`` drained the queue: deadlock checks."""
        for process in self._processes:
            if process.is_alive:
                target = process.target
                waiting = (
                    f" (waiting on {target!r})" if target is not None else ""
                )
                self.report(
                    "unfinished-process",
                    f"process {process.name!r} never finished{waiting}",
                )
        for resource in self._resources:
            if resource._queue:
                self.report(
                    "undrained-waiters",
                    f"Resource {resource.name!r} ended the run with "
                    f"{len(resource._queue)} blocked waiter(s)",
                )

    # -- reporting ---------------------------------------------------------

    def _flush_batch(self) -> None:
        batch = self._batch
        if len(batch) >= 2:
            groups: dict[
                tuple[typing.Any, float],
                list[tuple[tuple[typing.Any, str], str]],
            ] = {}
            for receiver, armed_at, ctx, label in batch:
                groups.setdefault((receiver, armed_at), []).append((ctx, label))
            for (_, armed_at), entries in groups.items():
                contexts = {ctx for ctx, _ in entries}
                if len(contexts) < 2:
                    continue
                who = " vs ".join(
                    sorted({f"{label} armed by {ctx[1]}" for ctx, label in entries})
                )
                self.report(
                    "unpinned-order",
                    f"{len(entries)} timers fired at the same instant, armed "
                    f"at t={armed_at:.6g} by independent contexts ({who}); "
                    "their order is pinned only by insertion sequence",
                )
        if batch:
            self._batch = []

    def report(self, code: str, message: str) -> None:
        """Record a finding at the current instant and warn with it.

        The kernel's hooks report through here, and so do checks that
        layers above run only when ``sim.sanitizer`` is set
        (``stale-fluid-tick``).
        """
        report = SanitizerReport(code, self.sim._now, message)
        self.reports.append(report)
        warnings.warn(report.render(), DeterminismWarning, stacklevel=3)

    # -- test API ----------------------------------------------------------

    def assert_clean(self) -> None:
        """Raise :class:`SimulationError` if any hazard was reported."""
        if self.reports:
            details = "\n  ".join(r.render() for r in self.reports)
            raise SimulationError(
                f"determinism sanitizer found {len(self.reports)} hazard(s):"
                f"\n  {details}"
            )
