"""Placement strategies over an inert fleet view.

The planner side of the control plane is pure: a
:class:`PlacementStrategy` maps a :class:`FleetView` (plain frozen data
snapshotted from live hosts by :func:`view_of_hosts`) and SLA
:class:`Constraints` to a :class:`~repro.control.actions.Plan`.  No
strategy touches simulation state, draws randomness, or iterates a set —
given the same view they emit the same plan, which is what makes the
closed loop deterministic across seeds, run loops and shardings.

Two strategies ship, named in :data:`STRATEGIES`:

=====================  ========================================================
name                   policy
=====================  ========================================================
fleet-order            no migrations; rejuvenate aging hosts in fleet order
first-fit-decreasing   classic bin-packing: evacuate underloaded hosts,
                       largest VM first, first host it fits on; rejuvenate
                       hosts emptied by the packing, then aging hosts in
                       fleet order
=====================  ========================================================

Constraint violations degrade, never raise: actions past the migration
budget or the minimum-hosts-up floor land in ``plan.deferred`` with the
constraint named in ``reason``, and the next control cycle replans from
the fresher view.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.actions import (
    Action,
    ActionKind,
    Plan,
    migrate,
    rejuvenate,
)
from repro.errors import ControlError


@dataclasses.dataclass(frozen=True)
class VMView:
    """One VM as the planner sees it."""

    name: str
    host: str
    memory_bytes: int


@dataclasses.dataclass(frozen=True)
class HostView:
    """One host as the planner sees it: inventory plus detector levels."""

    name: str
    capacity_bytes: int
    vms: tuple[VMView, ...] = ()
    load: float = 0.0
    heap_utilization: float = 0.0
    overloaded: bool = False
    underloaded: bool = False
    aging: bool = False

    @property
    def used_bytes(self) -> int:
        return sum(vm.memory_bytes for vm in self.vms)

    @property
    def free_bytes(self) -> int:
        return max(self.capacity_bytes - self.used_bytes, 0)


@dataclasses.dataclass(frozen=True)
class FleetView:
    """The whole fleet, in fleet (build) order."""

    hosts: tuple[HostView, ...] = ()

    @property
    def size(self) -> int:
        return len(self.hosts)

    def index_of(self, host_name: str) -> int:
        """The named host's position in fleet order (the tie-breaker)."""
        for index, host in enumerate(self.hosts):
            if host.name == host_name:
                return index
        raise ControlError(f"no host named {host_name!r} in the fleet view")


@dataclasses.dataclass(frozen=True)
class Constraints:
    """The SLA envelope a plan must stay inside."""

    migration_budget: int = 4
    min_hosts_up: int = 1
    rejuvenate: str = "warm"

    def __post_init__(self) -> None:
        if self.migration_budget < 0:
            raise ControlError(
                f"migration_budget: must be >= 0, got {self.migration_budget}"
            )
        if self.min_hosts_up < 0:
            raise ControlError(
                f"min_hosts_up: must be >= 0, got {self.min_hosts_up}"
            )
        if self.rejuvenate not in ("warm", "cold"):
            raise ControlError(
                f"rejuvenate: must be one of warm, cold, got {self.rejuvenate!r}"
            )


def view_of_hosts(
    hosts: typing.Iterable[typing.Any],
    loads: typing.Mapping[str, float] | None = None,
    overloaded: typing.Container[str] = (),
    underloaded: typing.Container[str] = (),
    aging: typing.Container[str] = (),
) -> FleetView:
    """Snapshot live host objects (duck-typed) into an inert view.

    Works on anything exposing ``name``, ``vm_specs`` (name -> spec with
    ``memory_bytes``) and optionally ``vmm``/``machine`` — the real
    :class:`~repro.core.host.Host` or a test double.  Detector levels
    arrive as membership containers so the loop can stamp its gate state
    onto the view without the view layer knowing about detectors.
    """
    loads = loads if loads is not None else {}
    views = []
    for host in hosts:
        vms = tuple(
            VMView(vm_name, host.name, int(spec.memory_bytes))
            for vm_name, spec in host.vm_specs.items()
        )
        vmm = getattr(host, "vmm", None)
        heap = float(vmm.heap.utilization) if vmm is not None else 0.0
        machine = getattr(host, "machine", None)
        capacity = (
            int(machine.memory.total_bytes)
            if machine is not None
            else sum(vm.memory_bytes for vm in vms)
        )
        views.append(
            HostView(
                name=host.name,
                capacity_bytes=capacity,
                vms=vms,
                load=float(loads.get(host.name, 0.0)),
                heap_utilization=heap,
                overloaded=host.name in overloaded,
                underloaded=host.name in underloaded,
                aging=host.name in aging,
            )
        )
    return FleetView(tuple(views))


# -- the strategy interface -------------------------------------------------------


class PlacementStrategy:
    """Base class: a pure (view, constraints) -> plan function."""

    name: typing.ClassVar[str] = ""

    def plan(self, view: FleetView, constraints: Constraints) -> Plan:
        """The actions this strategy wants this cycle."""
        raise NotImplementedError

    # -- shared planning helpers ---------------------------------------------------

    def _pack(
        self,
        view: FleetView,
        constraints: Constraints,
        donors: typing.Sequence[HostView],
        receivers: typing.Sequence[HostView],
        reason: str,
    ) -> tuple[list[Action], list[Action], list[str]]:
        """First-fit VMs off ``donors`` onto ``receivers``, largest first.

        Returns ``(actions, deferred, evacuated donor names)``.  Budget
        overruns and unplaceable VMs defer; ties break on the donor's
        fleet index then the VM name, so packing is deterministic.
        """
        free = {r.name: r.free_bytes for r in receivers}
        vms = sorted(
            (vm for donor in donors for vm in donor.vms),
            key=lambda vm: (-vm.memory_bytes, view.index_of(vm.host), vm.name),
        )
        budget = constraints.migration_budget
        actions: list[Action] = []
        deferred: list[Action] = []
        moved = {donor.name: 0 for donor in donors}
        for vm in vms:
            destination = None
            for receiver in receivers:
                if vm.memory_bytes <= free[receiver.name]:
                    destination = receiver.name
                    break
            if destination is None:
                deferred.append(
                    Action(
                        ActionKind.MIGRATE,
                        vm=vm.name,
                        source=vm.host,
                        reason="no host has capacity for this VM",
                    )
                )
                continue
            if budget <= 0:
                deferred.append(
                    migrate(
                        vm.name, vm.host, destination,
                        reason="migration budget exhausted",
                    )
                )
                continue
            free[destination] -= vm.memory_bytes
            budget -= 1
            moved[vm.host] += 1
            actions.append(migrate(vm.name, vm.host, destination, reason=reason))
        evacuated = [
            donor.name
            for donor in donors
            if donor.vms and moved[donor.name] == len(donor.vms)
        ]
        return actions, deferred, evacuated

    def _rejuvenations(
        self,
        view: FleetView,
        constraints: Constraints,
        candidates: typing.Sequence[tuple[str, str]],
    ) -> tuple[list[Action], list[Action]]:
        """Rejuvenate ``(host, reason)`` candidates under min-hosts-up.

        At most ``size - min_hosts_up`` hosts may be taken down per
        cycle; the overflow defers (the next cycle replans them).
        """
        allowed = max(view.size - constraints.min_hosts_up, 0)
        actions: list[Action] = []
        deferred: list[Action] = []
        for host_name, reason in candidates:
            action = rejuvenate(host_name, constraints.rejuvenate, reason=reason)
            if len(actions) < allowed:
                actions.append(action)
            else:
                deferred.append(
                    dataclasses.replace(
                        action,
                        reason=f"min_hosts_up={constraints.min_hosts_up} "
                        "forbids taking another host down",
                    )
                )
        return actions, deferred


class FleetOrderStrategy(PlacementStrategy):
    """The default: no migrations; ``plan`` rejuvenates the hosts the
    aging detector flagged, in fleet (build) order."""

    name = "fleet-order"

    def plan(self, view: FleetView, constraints: Constraints) -> Plan:
        candidates = [
            (h.name, "heap aging past threshold") for h in view.hosts if h.aging
        ]
        actions, deferred = self._rejuvenations(view, constraints, candidates)
        return Plan(
            strategy=self.name, actions=tuple(actions), deferred=tuple(deferred)
        )


class FirstFitDecreasingStrategy(PlacementStrategy):
    """Bin-pack underloaded hosts empty: largest VM first, first fit.

    Receivers are the hosts not flagged underloaded (or, in a fully idle
    fleet, the first ``max(min_hosts_up, 1)`` hosts, which keep the SLA
    floor serving).  Hosts the packing empties are rejuvenated first,
    then the aging hosts in fleet order.
    """

    name = "first-fit-decreasing"

    def plan(self, view: FleetView, constraints: Constraints) -> Plan:
        receivers = [h for h in view.hosts if not h.underloaded]
        if not receivers:
            receivers = list(view.hosts[: max(constraints.min_hosts_up, 1)])
        receiver_names = {r.name for r in receivers}
        donors = [
            h for h in view.hosts
            if h.underloaded and h.vms and h.name not in receiver_names
        ]
        moves, deferred, evacuated = self._pack(
            view, constraints, donors, receivers, "consolidate onto loaded host"
        )
        candidates = [(name, "evacuated underloaded host") for name in evacuated]
        evacuated_set = set(evacuated)
        candidates.extend(
            (h.name, "heap aging past threshold")
            for h in view.hosts
            if h.aging and h.name not in evacuated_set
        )
        rejuvs, over = self._rejuvenations(view, constraints, candidates)
        return Plan(
            strategy=self.name,
            actions=tuple(moves) + tuple(rejuvs),
            deferred=tuple(deferred) + tuple(over),
        )


STRATEGIES: dict[str, type[PlacementStrategy]] = {
    FleetOrderStrategy.name: FleetOrderStrategy,
    FirstFitDecreasingStrategy.name: FirstFitDecreasingStrategy,
}
"""Every shipped strategy by name: the values ``[policy] strategy`` and
``--policy`` accept."""


def resolve_strategy(name: str) -> PlacementStrategy:
    """A fresh instance of the named strategy."""
    cls = STRATEGIES.get(name)
    if cls is None:
        raise ControlError(
            f"unknown placement strategy {name!r}; "
            f"known: {', '.join(STRATEGIES)}"
        )
    return cls()
