"""Pluggable placement strategies over an inert fleet view.

The planner side of the control plane is pure: a
:class:`PlacementStrategy` maps a :class:`FleetView` (plain frozen data
snapshotted from live hosts by :func:`view_of_hosts`) and SLA
:class:`Constraints` to a :class:`~repro.control.actions.Plan`.  No
strategy touches simulation state, draws randomness, or iterates a set —
given the same view they emit the same plan, which is what makes the
closed loop deterministic across seeds, run loops and shardings.

Four strategies ship:

=====================  ========================================================
name                   policy
=====================  ========================================================
fleet-order            no migrations; rejuvenate aging hosts in fleet order
first-fit-decreasing   classic bin-packing: evacuate underloaded hosts,
                       largest VM first, first host it fits on; rejuvenate
                       hosts emptied by the packing
consolidation          migration-count-minimizing (à la OpenStack Watcher's
                       BasicConsolidation): evacuate the fewest-VM donors
                       first, whole hosts atomically, onto the most-loaded
                       receivers
aging-aware            rejuvenation ordered most-aged-first; migrations
                       steered onto the least-aged hosts (they will not be
                       disturbed by rejuvenation soon)
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
    """Base class: a pure (view, constraints) -> plan function pair."""

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

    def _consolidate(
        self,
        view: FleetView,
        constraints: Constraints,
        receivers: typing.Sequence[HostView],
        move_reason: str,
    ) -> Plan:
        """The shared consolidate-then-rejuvenate-emptied-hosts shape."""
        donors = [h for h in view.hosts if h.underloaded and h.vms]
        receiver_names = {r.name for r in receivers}
        donors = [d for d in donors if d.name not in receiver_names]
        moves, deferred, evacuated = self._pack(
            view, constraints, donors, receivers, move_reason
        )
        candidates = [(name, "evacuated underloaded host") for name in evacuated]
        evacuated_set = set(evacuated)
        candidates.extend(
            (h.name, "heap aging past threshold")
            for h in self._aging_order(view)
            if h.name not in evacuated_set
        )
        rejuvs, over = self._rejuvenations(view, constraints, candidates)
        return Plan(
            strategy=self.name,
            actions=tuple(moves) + tuple(rejuvs),
            deferred=tuple(deferred) + tuple(over),
        )

    def _aging_order(self, view: FleetView) -> list[HostView]:
        """Aging hosts in the order this strategy rejuvenates them."""
        return [h for h in view.hosts if h.aging]


STRATEGY_REGISTRY: dict[str, type[PlacementStrategy]] = {}


def register_strategy(
    cls: type[PlacementStrategy],
) -> type[PlacementStrategy]:
    """Class decorator adding a strategy to the named registry."""
    if not cls.name:
        raise ControlError(f"{cls.__name__} declares no strategy name")
    STRATEGY_REGISTRY[cls.name] = cls
    return cls


def strategy_names() -> tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(STRATEGY_REGISTRY))


def resolve_strategy(name: str) -> PlacementStrategy:
    """A fresh instance of the named strategy."""
    cls = STRATEGY_REGISTRY.get(name)
    if cls is None:
        raise ControlError(
            f"unknown placement strategy {name!r}; "
            f"known: {', '.join(strategy_names())}"
        )
    return cls()


@register_strategy
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


@register_strategy
class FirstFitDecreasingStrategy(PlacementStrategy):
    """Bin-pack underloaded hosts empty: largest VM first, first fit."""

    name = "first-fit-decreasing"

    def plan(self, view: FleetView, constraints: Constraints) -> Plan:
        receivers = self._receivers(view, constraints)
        return self._consolidate(
            view, constraints, receivers, "consolidate onto loaded host"
        )

    def _receivers(
        self, view: FleetView, constraints: Constraints
    ) -> list[HostView]:
        receivers = [h for h in view.hosts if not h.underloaded]
        if not receivers:
            # A fully idle fleet still keeps the SLA floor serving.
            keep = max(constraints.min_hosts_up, 1)
            receivers = list(view.hosts[:keep])
        return receivers


@register_strategy
class ConsolidationStrategy(FirstFitDecreasingStrategy):
    """Migration-count-minimizing consolidation (Watcher-shaped).

    Donors are evacuated whole or not at all, fewest-VM donors first —
    each completed evacuation buys one rejuvenable host for the minimum
    number of migrations — and land on the most-loaded receivers first,
    concentrating the fleet on the fewest hosts.
    """

    name = "consolidation"

    def plan(self, view: FleetView, constraints: Constraints) -> Plan:
        receivers = sorted(
            self._receivers(view, constraints),
            key=lambda h: (-h.load, view.index_of(h.name)),
        )
        receiver_names = {r.name for r in receivers}
        donors = sorted(
            (
                h for h in view.hosts
                if h.underloaded and h.vms and h.name not in receiver_names
            ),
            key=lambda h: (len(h.vms), view.index_of(h.name)),
        )
        free = {r.name: r.free_bytes for r in receivers}
        budget = constraints.migration_budget
        moves: list[Action] = []
        deferred: list[Action] = []
        evacuated: list[str] = []
        for donor in donors:
            placed = self._place_whole(donor, receivers, free)
            if placed is None:
                deferred.extend(
                    Action(
                        ActionKind.MIGRATE,
                        vm=vm.name,
                        source=vm.host,
                        reason="no receiver fits this donor's VMs",
                    )
                    for vm in donor.vms
                )
                continue
            if len(donor.vms) > budget:
                deferred.extend(
                    migrate(
                        vm.name, donor.name, destination,
                        reason="migration budget exhausted",
                    )
                    for vm, destination in placed
                )
                continue
            for vm, destination in placed:
                free[destination] -= vm.memory_bytes
                moves.append(
                    migrate(
                        vm.name, donor.name, destination,
                        reason="consolidate donor emptied atomically",
                    )
                )
            budget -= len(donor.vms)
            evacuated.append(donor.name)
        candidates = [(name, "evacuated underloaded host") for name in evacuated]
        evacuated_set = set(evacuated)
        candidates.extend(
            (h.name, "heap aging past threshold")
            for h in self._aging_order(view)
            if h.name not in evacuated_set
        )
        rejuvs, over = self._rejuvenations(view, constraints, candidates)
        return Plan(
            strategy=self.name,
            actions=tuple(moves) + tuple(rejuvs),
            deferred=tuple(deferred) + tuple(over),
        )

    def _place_whole(
        self,
        donor: HostView,
        receivers: typing.Sequence[HostView],
        free: dict[str, int],
    ) -> list[tuple[VMView, str]] | None:
        """A full placement of the donor's VMs, or ``None`` if any fails."""
        trial = dict(free)
        placed: list[tuple[VMView, str]] = []
        for vm in sorted(
            donor.vms, key=lambda v: (-v.memory_bytes, v.name)
        ):
            destination = None
            for receiver in receivers:
                if vm.memory_bytes <= trial[receiver.name]:
                    destination = receiver.name
                    break
            if destination is None:
                return None
            trial[destination] -= vm.memory_bytes
            placed.append((vm, destination))
        return placed


@register_strategy
class AgingAwareStrategy(FirstFitDecreasingStrategy):
    """Placement that minds the rejuvenation schedule.

    Aging hosts are rejuvenated most-aged-first (heap utilization
    descending, fleet order breaking ties), and migrations land on the
    *least*-aged receivers: a long-lived VM placed there will not be
    disturbed by a rejuvenation again soon.  (The Watcher-style
    refinement of steering short-lived VMs *toward* soon-to-rejuvenate
    hosts needs lifetime forecasts the simulation does not model.)
    """

    name = "aging-aware"

    def plan(self, view: FleetView, constraints: Constraints) -> Plan:
        receivers = sorted(
            self._receivers(view, constraints),
            key=lambda h: (h.heap_utilization, view.index_of(h.name)),
        )
        return self._consolidate(
            view, constraints, receivers, "steer VM onto least-aged host"
        )

    def _aging_order(self, view: FleetView) -> list[HostView]:
        return sorted(
            (h for h in view.hosts if h.aging),
            key=lambda h: (-h.heap_utilization, view.index_of(h.name)),
        )
