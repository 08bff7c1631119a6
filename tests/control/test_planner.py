"""Planner edge cases: degraded plans, never exceptions.

The strategy contract under stress — empty fleets, VMs nothing can
hold, exhausted migration budgets, SLA floors — is *partial plans with
named deferrals*.  These tests also pin the tie-breaking that keeps
every strategy deterministic over a fixed view.
"""

import pytest

from repro.control import (
    STRATEGIES,
    ActionKind,
    Constraints,
    FleetView,
    HostView,
    VMView,
    resolve_strategy,
    view_of_hosts,
)
from repro.errors import ControlError
from repro.units import gib

ALL_STRATEGIES = ("first-fit-decreasing", "fleet-order")


def vm(name: str, host: str, mem_gib: float = 1.0) -> VMView:
    return VMView(name, host, gib(mem_gib))


def hv(name: str, capacity_gib: float = 12.0, vms=(), **flags) -> HostView:
    return HostView(
        name=name, capacity_bytes=gib(capacity_gib), vms=tuple(vms), **flags
    )


class TestEdgeCases:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_empty_fleet_plans_a_noop(self, name):
        plan = resolve_strategy(name).plan(FleetView(), Constraints())
        assert plan.is_noop
        assert plan.strategy == name

    def test_oversized_vm_defers_instead_of_raising(self):
        view = FleetView((
            hv("busy", vms=(vm("big", "busy", 5.0),)),
            hv("idle", vms=(vm("whale", "idle", 8.0),), underloaded=True),
        ))
        plan = resolve_strategy("first-fit-decreasing").plan(
            view, Constraints()
        )
        assert plan.actions == ()  # nothing fits, nothing rejuvenated
        (deferral,) = plan.deferred
        assert deferral.kind is ActionKind.MIGRATE
        assert deferral.vm == "whale"
        assert deferral.source == "idle"
        assert deferral.target is None
        assert deferral.reason == "no host has capacity for this VM"

    def test_budget_exhaustion_yields_a_partial_plan(self):
        view = FleetView((
            hv("busy", vms=(vm("web", "busy"),)),
            hv(
                "idle",
                vms=(vm("a", "idle"), vm("b", "idle"), vm("c", "idle")),
                underloaded=True,
            ),
        ))
        plan = resolve_strategy("first-fit-decreasing").plan(
            view, Constraints(migration_budget=2)
        )
        moves = [a for a in plan.actions if a.kind is ActionKind.MIGRATE]
        assert [a.vm for a in moves] == ["a", "b"]
        assert all(a.target == "busy" for a in moves)
        over = [
            a for a in plan.deferred
            if a.reason == "migration budget exhausted"
        ]
        assert [a.vm for a in over] == ["c"]
        # The donor was not fully evacuated, so it must not be rebooted.
        assert plan.rejuvenations == 0

    def test_min_hosts_up_defers_the_overflow(self):
        view = FleetView(tuple(
            hv(f"h{i}", aging=True) for i in range(3)
        ))
        plan = resolve_strategy("fleet-order").plan(
            view, Constraints(min_hosts_up=2, rejuvenate="cold")
        )
        (action,) = plan.actions
        assert action.kind is ActionKind.REJUVENATE_COLD
        assert action.target == "h0"
        assert [a.target for a in plan.deferred] == ["h1", "h2"]
        assert all("min_hosts_up=2" in a.reason for a in plan.deferred)


class TestDeterminism:
    def test_equal_size_ties_break_on_fleet_index_then_vm_name(self):
        view = FleetView((
            hv("recv", vms=(vm("web", "recv"),)),
            hv("d0", vms=(vm("x", "d0"), vm("a", "d0")), underloaded=True),
            hv("d1", vms=(vm("m", "d1"),), underloaded=True),
        ))
        plan = resolve_strategy("first-fit-decreasing").plan(
            view, Constraints(migration_budget=8)
        )
        moves = [a for a in plan.actions if a.kind is ActionKind.MIGRATE]
        assert [(a.vm, a.source) for a in moves] == [
            ("a", "d0"), ("x", "d0"), ("m", "d1"),
        ]

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_same_view_same_plan(self, name):
        view = FleetView((
            hv("recv", vms=(vm("web", "recv"),), load=0.4),
            hv("d0", vms=(vm("a", "d0"), vm("b", "d0", 2.0)),
               underloaded=True, heap_utilization=0.5),
            hv("aged", vms=(vm("c", "aged"),), aging=True,
               heap_utilization=0.9),
        ))
        constraints = Constraints(migration_budget=3)
        assert (
            resolve_strategy(name).plan(view, constraints)
            == resolve_strategy(name).plan(view, constraints)
        )


class TestStrategies:
    def test_fleet_order_is_the_bit_identical_default(self):
        view = FleetView((
            hv("h0", heap_utilization=0.2),
            hv("h1", heap_utilization=0.9, aging=True),
            hv("h2", vms=(vm("a", "h2"),), underloaded=True),
            hv("h3", heap_utilization=0.95, aging=True),
        ))
        plan = resolve_strategy("fleet-order").plan(view, Constraints())
        assert plan.migrations == 0  # never migrates
        # Aging hosts rejuvenate in build order, not most-aged first.
        assert [a.target for a in plan.actions] == ["h1", "h3"]

    def test_first_fit_decreasing_rejuvenates_emptied_then_aging_hosts(self):
        view = FleetView((
            hv("h0", heap_utilization=0.5, aging=True),
            hv("h1", heap_utilization=0.9, aging=True),
            hv("h2", heap_utilization=0.1),
            hv("idle", vms=(vm("a", "idle"),), underloaded=True),
        ))
        plan = resolve_strategy("first-fit-decreasing").plan(view, Constraints())
        (move,) = [a for a in plan.actions if a.kind is ActionKind.MIGRATE]
        assert (move.vm, move.target) == ("a", "h0")  # the first host it fits
        assert move.reason == "consolidate onto loaded host"
        # The emptied host first, then the aging hosts in fleet order.
        assert [
            (a.target, a.reason)
            for a in plan.actions if a.kind is not ActionKind.MIGRATE
        ] == [
            ("idle", "evacuated underloaded host"),
            ("h0", "heap aging past threshold"),
            ("h1", "heap aging past threshold"),
        ]

    def test_all_idle_fleet_keeps_the_sla_floor_serving(self):
        view = FleetView((
            hv("h0", vms=(vm("a", "h0"),), underloaded=True),
            hv("h1", vms=(vm("b", "h1"),), underloaded=True),
        ))
        plan = resolve_strategy("first-fit-decreasing").plan(
            view, Constraints(min_hosts_up=1)
        )
        (move,) = [a for a in plan.actions if a.kind is ActionKind.MIGRATE]
        assert (move.vm, move.source, move.target) == ("b", "h1", "h0")
        # The receiver kept as the SLA floor is never rebooted.
        assert [a.target for a in plan.actions if a.kind is not ActionKind.MIGRATE] == ["h1"]


class TestRegistryAndHelpers:
    def test_registry_lists_the_shipped_strategies(self):
        assert tuple(STRATEGIES) == ("fleet-order", "first-fit-decreasing")
        for name, cls in STRATEGIES.items():
            assert cls.name == name

    def test_unknown_strategy_raises(self):
        with pytest.raises(ControlError, match="unknown placement strategy"):
            resolve_strategy("magic")

    def test_resolve_returns_fresh_instances(self):
        assert resolve_strategy("fleet-order") is not resolve_strategy(
            "fleet-order"
        )

    def test_constraints_validation(self):
        with pytest.raises(ControlError):
            Constraints(migration_budget=-1)
        with pytest.raises(ControlError):
            Constraints(min_hosts_up=-1)
        with pytest.raises(ControlError):
            Constraints(rejuvenate="lukewarm")

    def test_view_of_hosts_duck_types(self):
        class Spec:
            def __init__(self, memory_bytes):
                self.memory_bytes = memory_bytes

        class FakeHost:
            def __init__(self, name, vms):
                self.name = name
                self.vm_specs = vms

        fleet = [
            FakeHost("h0", {"a": Spec(gib(1)), "b": Spec(gib(2))}),
            FakeHost("h1", {}),
        ]
        view = view_of_hosts(
            fleet, loads={"h0": 0.25}, underloaded=("h1",), aging=("h0",)
        )
        assert view.size == 2
        h0, h1 = view.hosts
        # No machine attribute: capacity falls back to the VM footprint.
        assert h0.capacity_bytes == h0.used_bytes == gib(3)
        assert h0.free_bytes == 0
        assert h0.load == 0.25 and h0.aging and not h0.underloaded
        assert h1.underloaded and h1.heap_utilization == 0.0
        assert view.index_of("h1") == 1
        with pytest.raises(ControlError):
            view.index_of("h9")
