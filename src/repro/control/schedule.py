"""Open-loop rejuvenation triggers that feed the plan executor.

:class:`~repro.control.loop.ControlLoop` rejuvenates what its detectors
flag; the paper's other two policies fire on a clock and hand the same
typed actions to the same :class:`~repro.control.executor.PlanExecutor`:
:func:`periodic` is the §3.2 time-based schedule (Figure 2) and
:func:`campaign` one §6 rolling or evacuate-to-spare pass (Figure 9).

Reboots of one host are mutually exclusive.  These triggers *wait out* a
reboot in flight, so a scheduled rejuvenation runs late rather than
never; the closed loop's actions are refused instead and replanned next
cycle.
"""

from __future__ import annotations

import itertools
import typing

from repro.control.actions import (
    Action,
    ActionKind,
    migrate,
    reboot_kind,
    rejuvenate_os,
)
from repro.control.executor import PlanExecutor
from repro.errors import ControlError

WATCHDOG_GRACE_S = 60.0
"""How long :func:`periodic` leaves a host to its crash watchdog after a
failed action (one that found the VMM crashed, say)."""


def _wait_out_reboot(host: typing.Any) -> typing.Iterator[typing.Any]:
    while host.rebooting:
        yield host.reboot_finished()


def _require_known(executor: PlanExecutor, *hosts: typing.Any) -> None:
    unknown = [h.name for h in hosts if executor.hosts.get(h.name) is not h]
    if unknown:
        raise ControlError(f"not hosts of this executor: {', '.join(unknown)}")


def periodic(
    executor: PlanExecutor,
    host: typing.Any,
    strategy: str,
    os_interval_s: float,
    vmm_interval_s: float,
    until: float,
) -> typing.Iterator[typing.Any]:
    """``host``'s time-based rejuvenation schedule (a process body).

    Each guest is rejuvenated ``os_interval_s`` after the start of its
    own last rejuvenation, the VMM every ``vmm_interval_s``; the next
    guest is picked by (due time, name), a VMM rejuvenation due within
    1 s of a guest's goes first, and a cold one resets every guest clock
    (Figure 2(b)).  An overdue rejuvenation runs at once, none starts
    after ``until``, and after a failed action the schedule waits
    :data:`WATCHDOG_GRACE_S` and restarts its clocks.
    """
    if os_interval_s <= 0 or vmm_interval_s <= 0:
        raise ControlError("rejuvenation intervals must be positive")
    _require_known(executor, host)
    vmm = Action(reboot_kind(strategy), target=host.name, reason="periodic")
    sim = executor.sim

    def schedule() -> typing.Iterator[typing.Any]:
        last_vmm = sim.now
        last_os = dict.fromkeys(host.vm_specs, sim.now)
        for step in itertools.count():
            name = min(last_os, key=lambda n: (last_os[n], n))
            os_at = last_os[name] + os_interval_s
            vmm_at = last_vmm + vmm_interval_s
            if min(os_at, vmm_at) > until:
                if until > sim.now:
                    yield sim.timeout(until - sim.now)
                return
            yield sim.timeout(max(0.0, min(os_at, vmm_at) - sim.now))
            yield from _wait_out_reboot(host)
            started = sim.now
            vmm_first = vmm_at <= os_at + 1.0
            action = vmm if vmm_first else rejuvenate_os(host.name, name, "periodic")
            outcome = yield from executor.execute(action, step)
            if outcome != "applied":
                yield sim.timeout(WATCHDOG_GRACE_S)
                last_vmm, last_os = sim.now, dict.fromkeys(last_os, sim.now)
            elif not vmm_first:
                last_os[name] = started
            else:
                last_vmm = started
                if vmm.kind is ActionKind.REJUVENATE_COLD:
                    last_os = dict.fromkeys(last_os, started)

    return schedule()


def campaign(
    executor: PlanExecutor,
    hosts: typing.Sequence[typing.Any],
    strategy: str,
    settle_s: float = 0.0,
    spare: typing.Any = None,
) -> typing.Iterator[typing.Any]:
    """One rejuvenation pass over ``hosts`` in order (a process body).

    With no ``spare``, each host reboots and the pass then waits
    ``settle_s``, after the last host too.  With a spare, each host's VMs
    migrate to it, the host reboots empty and the VMs migrate back; a
    host whose evacuation failed is not rebooted (its rejuvenation is
    audited ``deferred``), so no guest goes down.  A host's actions share
    one audit ``cycle``: its place in the pass.
    """
    if settle_s < 0:
        raise ControlError(f"settle time must be >= 0, got {settle_s}")
    hosts = list(hosts)
    _require_known(executor, *hosts, *([spare] if spare is not None else []))
    kind = reboot_kind(strategy)
    sim = executor.sim

    def rounds() -> typing.Iterator[typing.Any]:
        for step, host in enumerate(hosts):
            yield from _wait_out_reboot(host)
            reboot = Action(kind, target=host.name, reason="campaign")
            if spare is None:
                yield from executor.execute(reboot, step)
                if settle_s:
                    yield sim.timeout(settle_s)
                continue
            vms, moved = list(host.vm_specs), []
            for vm in vms:
                action = migrate(vm, host.name, spare.name, "evacuate to spare")
                if (yield from executor.execute(action, step)) != "applied":
                    break
                moved.append(vm)
            if moved == vms:
                yield from executor.execute(reboot, step)
            else:
                executor.defer(
                    Action(kind, target=host.name, reason="evacuation failed"),
                    step,
                )
            for vm in moved:
                action = migrate(vm, spare.name, host.name, "return from spare")
                yield from executor.execute(action, step)

    return rounds()
