"""Typed actions a placement strategy or a schedule may emit.

A strategy's output is a :class:`Plan`: an ordered tuple of
:class:`Action` values the executor applies sequentially, plus the
actions it *wanted* but the SLA constraints (migration budget, minimum
hosts up) forced it to defer.  Budget exhaustion degrades to a partial
plan — never an exception — so a starved control loop keeps making
forward progress one epoch at a time.  The open-loop triggers of
:mod:`repro.control.schedule` hand the executor the same actions one at
a time.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import ControlError


class ActionKind(enum.Enum):
    """What one control-plane action does."""

    MIGRATE = "migrate"
    REJUVENATE_WARM = "rejuvenate-warm"
    REJUVENATE_COLD = "rejuvenate-cold"
    REJUVENATE_SAVED = "rejuvenate-saved"
    REJUVENATE_DOM0_ONLY = "rejuvenate-dom0-only"
    REJUVENATE_OS = "rejuvenate-os"
    NO_OP = "no-op"


REBOOT_KINDS: dict[str, ActionKind] = {
    "warm": ActionKind.REJUVENATE_WARM,
    "cold": ActionKind.REJUVENATE_COLD,
    "saved": ActionKind.REJUVENATE_SAVED,
    "dom0-only": ActionKind.REJUVENATE_DOM0_ONLY,
}
"""Reboot strategy -> the VMM rejuvenation kind that runs it; each
kind's value is ``rejuvenate-`` plus its strategy."""

REJUVENATE_KINDS = frozenset(REBOOT_KINDS.values()) | {ActionKind.REJUVENATE_OS}


@dataclasses.dataclass(frozen=True)
class Action:
    """One decision: migrate a VM, rejuvenate a host, or do nothing.

    ``target`` is the host acted on — the migration destination or the
    reboot target; ``vm`` names the migrated or OS-rejuvenated guest, and
    ``source`` is set for migrations only.
    ``reason`` carries the detector or constraint that motivated (or
    deferred) the action into the audit log.
    """

    kind: ActionKind
    target: str | None = None
    vm: str | None = None
    source: str | None = None
    reason: str = ""


def migrate(vm: str, source: str, target: str, reason: str = "") -> Action:
    """A live-migration action."""
    return Action(
        ActionKind.MIGRATE, target=target, vm=vm, source=source, reason=reason
    )


def reboot_kind(strategy: str) -> ActionKind:
    """The VMM rejuvenation kind that runs reboot ``strategy``."""
    if strategy not in REBOOT_KINDS:
        raise ControlError(f"unknown reboot strategy {strategy!r}")
    return REBOOT_KINDS[strategy]


def rejuvenate(host: str, strategy: str = "warm", reason: str = "") -> Action:
    """A VMM rejuvenation of ``host`` with any reboot strategy."""
    return Action(reboot_kind(strategy), target=host, reason=reason)


def rejuvenate_os(host: str, vm: str, reason: str = "") -> Action:
    """An OS rejuvenation of one guest: ``vm`` reboots, its VMM keeps running."""
    return Action(ActionKind.REJUVENATE_OS, target=host, vm=vm, reason=reason)


@dataclasses.dataclass(frozen=True)
class Plan:
    """One control cycle's decisions: ordered actions plus deferrals."""

    strategy: str
    actions: tuple[Action, ...] = ()
    deferred: tuple[Action, ...] = ()

    @property
    def migrations(self) -> int:
        return sum(1 for a in self.actions if a.kind is ActionKind.MIGRATE)

    @property
    def rejuvenations(self) -> int:
        return sum(1 for a in self.actions if a.kind in REJUVENATE_KINDS)

    @property
    def is_noop(self) -> bool:
        return not self.actions and not self.deferred
