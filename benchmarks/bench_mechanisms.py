"""Micro-benchmarks of the core mechanisms (wall-clock cost of the
simulation itself, not simulated time).

These keep the simulator honest as the codebase grows: a full warm reboot
of an 11-VM host is a few thousand events and should stay in the
milliseconds; P2M replay walks a handful of runs, not one entry per page.
"""

import pytest

from repro.core import RootHammer, VMSpec
from repro.memory import FrameAllocator, MachineMemory, P2MTable
from repro.units import gib, pages


def build_11vm_controller():
    return RootHammer.started(
        vms=[VMSpec(f"vm{i:02d}", memory_bytes=gib(1)) for i in range(11)]
    )


def test_warm_reboot_simulation_cost(benchmark):
    """Simulate (build + warm-reboot) an 11-VM host."""

    def scenario():
        controller = build_11vm_controller()
        return controller.rejuvenate("warm")

    report = benchmark.pedantic(scenario, rounds=3, iterations=1)
    assert report.total < 60


def test_cold_reboot_simulation_cost(benchmark):
    def scenario():
        controller = build_11vm_controller()
        return controller.rejuvenate("cold")

    report = benchmark.pedantic(scenario, rounds=3, iterations=1)
    assert report.total > 100


def test_p2m_extent_replay_cost(benchmark):
    """The quick-reload hot path: replaying an 11 GiB P2M into a fresh
    allocator (coalescing the table's runs into machine extents, then
    reserving each)."""
    table = P2MTable("big", pages(gib(11)))
    memory = MachineMemory(pages(gib(12)))
    source = FrameAllocator(memory)
    extent = source.allocate(pages(gib(11)), "big")
    table.map_extent(0, extent)

    def replay():
        allocator = FrameAllocator(MachineMemory(pages(gib(12))))
        for run in table.machine_extents():
            allocator.reserve_exact(run, "big")
        return allocator

    allocator = benchmark(replay)
    assert allocator.pages_of("big") == pages(gib(11))


def test_event_loop_throughput(benchmark):
    """Raw kernel speed: schedule and run 10k timeout events."""
    from repro.simkernel import Simulator

    def run_events():
        sim = Simulator()
        for i in range(10_000):
            sim.timeout(i * 0.001)
        sim.run()
        return sim.now

    final = benchmark(run_events)
    assert final == pytest.approx(9.999)
