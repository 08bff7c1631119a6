"""Unit tests for CPU pool, BIOS, and the physical machine."""

import numpy as np
import pytest

from repro.config import paper_testbed, small_testbed
from repro.errors import HardwareError, PowerError
from repro.hardware import CpuPool, PhysicalMachine, PowerState
from repro.memory import SuspendImage
from repro.simkernel import Simulator
from repro.units import gib, pages


@pytest.fixture()
def sim():
    return Simulator()


class TestCpuPool:
    def test_single_job_full_speed(self, sim):
        cpu = CpuPool(sim, paper_testbed().cpu)
        done = cpu.execute(3.0)
        sim.run(done)
        assert sim.now == pytest.approx(3.0)

    def test_oversubscription(self, sim):
        cpu = CpuPool(sim, paper_testbed().cpu)  # 4 cores
        jobs = [cpu.execute(1.0) for _ in range(8)]
        sim.run(sim.all_of(jobs))
        assert sim.now == pytest.approx(2.0)

    def test_negative_work_rejected(self, sim):
        with pytest.raises(HardwareError):
            CpuPool(sim, paper_testbed().cpu).execute(-1)

    def test_drain_fails_jobs(self, sim):
        cpu = CpuPool(sim, paper_testbed().cpu)
        job = cpu.execute(10)
        cpu.drain()
        sim.run()
        assert not job.ok


class TestMachine:
    def test_assembles_profile(self, sim):
        machine = PhysicalMachine(sim, paper_testbed())
        assert machine.installed_bytes == gib(12)
        assert machine.memory.total_pages == pages(gib(12))
        assert machine.power_state is PowerState.RUNNING

    def test_hardware_reset_charges_post(self, sim):
        machine = PhysicalMachine(sim, paper_testbed())
        proc = sim.spawn(machine.hardware_reset())
        post = sim.run(proc)
        assert post == pytest.approx(47.0, abs=0.5)
        assert sim.now == pytest.approx(post)
        assert machine.reset_count == 1
        assert machine.bios.post_count == 1

    def test_hardware_reset_loses_memory_and_preserved(self, sim):
        machine = PhysicalMachine(sim, small_testbed())
        machine.memory.write_token(5, "data")
        snap = np.arange(4, dtype=np.int64)
        machine.preserved.save(
            SuspendImage("dom1", snap, {"pc": 1}, {"mem": 1})
        )
        sim.run(sim.spawn(machine.hardware_reset()))
        assert machine.memory.read_token(5) is None
        assert len(machine.preserved) == 0

    def test_quick_reload_preserves_memory_and_images(self, sim):
        machine = PhysicalMachine(sim, small_testbed())
        machine.memory.write_token(5, "data")
        snap = np.arange(4, dtype=np.int64)
        machine.preserved.save(
            SuspendImage("dom1", snap, {"pc": 1}, {"mem": 1})
        )
        sim.run(sim.spawn(machine.quick_reload_window()))
        assert machine.memory.read_token(5) == "data"
        assert "dom1" in machine.preserved
        assert machine.reset_count == 0

    def test_quick_reload_takes_no_hardware_time(self, sim):
        machine = PhysicalMachine(sim, paper_testbed())
        sim.run(sim.spawn(machine.quick_reload_window()))
        assert sim.now == 0.0

    def test_reset_while_resetting_rejected(self, sim):
        machine = PhysicalMachine(sim, small_testbed())
        sim.spawn(machine.hardware_reset())

        def second(sim):
            yield sim.timeout(0.1)
            with pytest.raises(PowerError):
                machine.require_running()

        sim.spawn(second(sim))
        sim.run()

    def test_reset_flaps_nic(self, sim):
        machine = PhysicalMachine(sim, small_testbed())
        states = []

        def probe(sim):
            yield sim.timeout(0.1)
            states.append(machine.nic.is_up)

        sim.spawn(probe(sim))
        sim.run(sim.spawn(machine.hardware_reset()))
        assert states == [False]
        assert machine.nic.is_up

    def test_duration_jitter_disabled_by_default(self, sim):
        machine = PhysicalMachine(sim, paper_testbed())
        assert machine.duration("x", 5.0) == 5.0

    def test_duration_jitter_enabled(self, sim):
        machine = PhysicalMachine(sim, paper_testbed(jitter_fraction=0.2))
        values = {machine.duration("x", 5.0) for _ in range(20)}
        assert len(values) > 1
        assert all(4.0 <= v <= 6.0 for v in values)

    def test_traces_recorded(self, sim):
        machine = PhysicalMachine(sim, small_testbed())
        sim.run(sim.spawn(machine.hardware_reset()))
        assert sim.trace.first("hw.reset.start") is not None
        assert sim.trace.first("hw.reset.done") is not None
