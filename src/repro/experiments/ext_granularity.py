"""EXT-GRANULARITY: the rejuvenation hierarchy of §7, measured.

The related-work section situates the warm-VM reboot in a hierarchy of
reboot granularities: microreboot restarts an application component,
checkpoint/restart rejuvenates an OS while preserving its processes, and
the warm-VM reboot rejuvenates a VMM while preserving its VMs.  This
extension measures the whole ladder on one testbed (11 JBoss VMs; the
downtime is the affected service's):

* **microreboot** — restart the JBoss process in place;
* **OS reboot + process checkpoint** — reboot the guest kernel, restore
  JBoss from its checkpoint (Randell-style);
* **OS reboot** — plain guest reboot, JBoss cold-starts;
* **dom0-only reboot** — rejuvenate the privileged VM (§8 extension);
* **warm VMM reboot** — the paper's contribution;
* **cold VMM reboot** — everything above at once, the expensive way.

The claims checked: each "preserve the children" technique beats its
"reboot the children" counterpart at the same level, and the warm-VM
reboot rejuvenates the *deepest* component for less downtime than even a
single guest's cold OS reboot chain would suggest.
"""

from __future__ import annotations

import typing

from repro.analysis.downtime import extract_downtimes
from repro.analysis.report import ComparisonRow, render_table
from repro.experiments.common import (
    ExperimentResult,
    build_testbed,
)

_VM = "vm00"

_LADDER = (
    "microreboot",
    "os+checkpoint",
    "os",
    "dom0-only",
    "warm-vmm",
    "cold-vmm",
)


def _downtime_of(controller, t0: float) -> float:
    """Longest closed outage of the observed VM's JBoss since ``t0``."""
    intervals = [
        i
        for i in extract_downtimes(
            controller.sim.trace, since=t0, domain=_VM, service="jboss"
        )
        if i.closed
    ]
    return max((i.duration for i in intervals), default=0.0)


def _measure(action: str) -> float:
    controller = build_testbed(11, services=("jboss",))
    host = controller.host
    t0 = controller.now
    if action == "microreboot":
        controller.run_process(host.restart_service(_VM, "jboss"))
    elif action == "os+checkpoint":
        controller.run_process(
            host.reboot_guest(_VM, checkpoint_processes=True)
        )
    elif action == "os":
        controller.run_process(host.reboot_guest(_VM))
    elif action == "dom0-only":
        controller.rejuvenate("dom0-only")
    elif action == "warm-vmm":
        controller.rejuvenate("warm")
    elif action == "cold-vmm":
        controller.rejuvenate("cold")
    else:  # pragma: no cover - guarded by the caller
        raise ValueError(action)
    controller.run_for(5)
    return _downtime_of(controller, t0)


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [((action,), "_measure", {"action": action}) for action in _LADDER]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fold per-cell downtimes into the granularity-ladder result."""
    result = ExperimentResult(
        "EXT-GRANULARITY", "the §7 rejuvenation hierarchy, one testbed"
    )
    downtimes = {action: payloads[(action,)] for action in _LADDER}
    result.data["downtimes"] = downtimes
    result.tables.append(
        render_table(
            ["granularity", "what is rejuvenated", "JBoss downtime (s)"],
            [
                ("microreboot", "one service process", downtimes["microreboot"]),
                ("OS reboot + checkpoint", "guest kernel", downtimes["os+checkpoint"]),
                ("OS reboot", "guest kernel + processes", downtimes["os"]),
                ("dom0-only reboot", "privileged VM", downtimes["dom0-only"]),
                ("warm VMM reboot", "hypervisor", downtimes["warm-vmm"]),
                ("cold VMM reboot", "hypervisor + all guests", downtimes["cold-vmm"]),
            ],
        )
    )
    result.rows = [
        ComparisonRow(
            "checkpointing beats plain OS reboot (1=yes)",
            1.0,
            1.0 if downtimes["os+checkpoint"] < downtimes["os"] else 0.0,
            "",
            tolerance=0.01,
        ),
        # Candea's claim: rebooting the finer component beats rebooting
        # the coarser one that contains it.  (A checkpointed OS reboot can
        # undercut a cold-starting microreboot when the service's start
        # cost dominates — an interesting wrinkle the table shows.)
        ComparisonRow(
            "microreboot beats plain OS reboot (1=yes)",
            1.0,
            1.0 if downtimes["microreboot"] < downtimes["os"] else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "warm VMM cheaper than cold VMM (1=yes)",
            1.0,
            1.0 if downtimes["warm-vmm"] < downtimes["cold-vmm"] else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "warm VMM rejuvenates deeper than OS reboot for similar downtime",
            1.0,
            downtimes["warm-vmm"] / max(downtimes["os"], 1e-9),
            "x",
            tolerance=0.6,
        ),
    ]
    return result
