"""Plan executor: applies typed actions to live hosts, audited.

The executor is the only code that takes a host or a guest down on a
policy's behalf — the closed loop's plans and the open-loop schedules
of :mod:`repro.control.schedule` alike — and it does so exclusively
through mechanisms that already exist: ``host.reboot(strategy)`` and
``host.reboot_guest(vm)`` for rejuvenation and an injected
``migrate(source, target, vm)`` coroutine for live migration (wired by
the scenario layer from :mod:`repro.cluster.migration`; the control
layer sits *below* cluster and never imports it).  Every action lands
one ``control.decision`` trace record and one audit dict whether it
succeeded, failed, was skipped, or was deferred, so a report replays
exactly why the fleet looks the way it does.
"""

from __future__ import annotations

import typing

from repro.control.actions import Action, ActionKind, Plan, REJUVENATE_KINDS
from repro.errors import ControlError, ReproError

MigrateFn = typing.Callable[[str, str, str], typing.Iterator[typing.Any]]
"""Injected migration mechanism: ``migrate(source, target, vm)`` is a
simulation coroutine performing one live migration."""


class PlanExecutor:
    """Applies actions sequentially inside the simulation.

    ``actor`` names the span track the executor's ``control.action``
    spans open on.  Spans nest strictly per actor, so two triggers that
    act concurrently — the closed loop and a maintenance schedule — each
    need an executor on their own track.
    """

    def __init__(
        self,
        sim: typing.Any,
        hosts: typing.Mapping[str, typing.Any],
        migrate: MigrateFn | None = None,
        actor: str = "control",
    ) -> None:
        self.sim = sim
        self.hosts = dict(hosts)
        self.migrate = migrate
        self.actor = actor
        self.audit: list[dict] = []
        self.migrations = 0
        self.rejuvenations = 0
        self.skipped = 0
        self.failed = 0

    def apply(self, plan: Plan, cycle: int) -> typing.Iterator[typing.Any]:
        """Apply one plan's actions in order; record its deferrals."""
        for action in plan.actions:
            yield from self.execute(action, cycle)
        for action in plan.deferred:
            self.defer(action, cycle)

    def execute(
        self, action: Action, cycle: int
    ) -> typing.Iterator[typing.Any]:
        """Apply one action; returns its audited outcome: ``"applied"``,
        ``"failed"`` (the mechanism raised — a host already rebooting
        refuses first), ``"skipped"`` (no such host or mechanism) or
        ``"noop"``."""
        with self.sim.spans.span(
            "control.action", actor=self.actor, detail=action.kind.value
        ):
            if action.kind is ActionKind.NO_OP:
                outcome = "noop"
            elif action.kind is ActionKind.MIGRATE:
                outcome = yield from self._migrate(action)
            elif action.kind in REJUVENATE_KINDS:
                outcome = yield from self._rejuvenate(action)
            else:  # pragma: no cover - enum is closed
                raise ControlError(f"unknown action kind {action.kind!r}")
            self._record(cycle, action, outcome)
        return outcome

    def defer(self, action: Action, cycle: int) -> None:
        """Audit an action that was wanted but not taken (see ``reason``)."""
        self._record(cycle, action, "deferred")

    # -- one action ----------------------------------------------------------------

    def _migrate(self, action: Action) -> typing.Iterator[typing.Any]:
        if (
            self.migrate is None
            or action.vm is None
            or action.source is None
            or action.target is None
        ):
            self.skipped += 1
            return "skipped"
        try:
            yield from self.migrate(action.source, action.target, action.vm)
        except ReproError:
            self.failed += 1
            return "failed"
        self.migrations += 1
        return "applied"

    def _rejuvenate(self, action: Action) -> typing.Iterator[typing.Any]:
        host = self.hosts.get(action.target or "")
        if host is None:
            self.skipped += 1
            return "skipped"
        try:
            if action.kind is ActionKind.REJUVENATE_OS:
                yield from host.reboot_guest(action.vm)
            else:
                yield from host.reboot(action.kind.value.removeprefix("rejuvenate-"))
        except ReproError:
            self.failed += 1
            return "failed"
        self.rejuvenations += 1
        return "applied"

    # -- the audit trail -----------------------------------------------------------

    def _record(self, cycle: int, action: Action, outcome: str) -> None:
        # The innermost open span on the executor's track is the
        # control.action span while execute() is on the stack, and the
        # enclosing control.cycle span for deferred actions (recorded
        # outside any action span) — either way it is the join key that
        # lets repro.obs reconstruct this decision's causal chain from
        # the trace alone.
        span_id = self.sim.spans.current(self.actor)
        entry = {
            "time": self.sim.now,
            "cycle": cycle,
            "action": action.kind.value,
            "target": action.target or "",
            "outcome": outcome,
            "span": span_id,
        }
        extras = {}
        if action.vm is not None:
            extras["vm"] = action.vm
        if action.source is not None:
            extras["source"] = action.source
        if action.reason:
            extras["reason"] = action.reason
        entry.update(extras)
        self.audit.append(entry)
        self.sim.trace.record(
            "control.decision",
            cycle=cycle,
            action=action.kind.value,
            target=action.target or "",
            outcome=outcome,
            span=span_id,
            **extras,
        )
