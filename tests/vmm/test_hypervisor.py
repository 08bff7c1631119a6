"""Unit tests for the baseline hypervisor: boot, domains, hypercalls,
save/restore, heap aging."""

import pytest

from repro.config import AgingFaults, paper_testbed, small_testbed
from repro.core.roothammer import RootHammerHypervisor
from repro.errors import (
    DomainError,
    HypercallError,
    VMMCrashed,
    VMMError,
)
from repro.hardware import PhysicalMachine
from repro.simkernel import Simulator
from repro.units import gib, mib, pages
from repro.vmm import DOM0_NAME, Hypervisor, VmmState


@pytest.fixture()
def sim():
    return Simulator()


def booted_vmm(sim, profile=None, faults=None, vmm_cls=Hypervisor):
    profile = profile or paper_testbed()
    machine = PhysicalMachine(sim, profile)
    vmm = vmm_cls(machine, profile, faults=faults)
    sim.run(sim.spawn(vmm.boot()))
    vmm.create_dom0()
    return vmm


class TestBoot:
    def test_boot_transitions_to_running(self, sim):
        vmm = booted_vmm(sim)
        assert vmm.state is VmmState.RUNNING

    def test_boot_charges_fixed_plus_scrub(self, sim):
        profile = paper_testbed()
        machine = PhysicalMachine(sim, profile)
        vmm = Hypervisor(machine, profile)
        sim.run(sim.spawn(vmm.boot()))
        # 4.0 fixed + 0.55/GiB over ~11.97 free GiB ~= 10.6
        assert sim.now == pytest.approx(10.58, abs=0.3)

    def test_double_boot_rejected(self, sim):
        vmm = booted_vmm(sim)
        with pytest.raises(VMMError):
            sim.run(sim.spawn(vmm.boot()))

    def test_boot_scrubs_free_memory_content(self, sim):
        profile = small_testbed()
        machine = PhysicalMachine(sim, profile)
        # MFN well past the VMM's own 32 MiB reservation, so it is free.
        machine.memory.write_token(50_000, "stale")
        vmm = Hypervisor(machine, profile)
        sim.run(sim.spawn(vmm.boot()))
        assert machine.memory.read_token(50_000) is None

    def test_heap_is_16mib(self, sim):
        assert booted_vmm(sim).heap.capacity_bytes == mib(16)


class TestDom0:
    def test_create_dom0(self, sim):
        vmm = booted_vmm(sim)
        dom0 = vmm.domain(DOM0_NAME)
        assert dom0.is_dom0
        assert dom0.is_running
        assert vmm.xenstore is not None

    def test_duplicate_dom0_rejected(self, sim):
        vmm = booted_vmm(sim)
        with pytest.raises(DomainError):
            vmm.create_dom0()

    def test_dom0_not_destroyable(self, sim):
        vmm = booted_vmm(sim)
        with pytest.raises(DomainError):
            vmm.destroy_domain(DOM0_NAME)

    def test_dom0_memory_allocated(self, sim):
        vmm = booted_vmm(sim)
        assert vmm.allocator.pages_of(DOM0_NAME) == pages(mib(512))


class TestDomainLifecycle:
    def test_create_domain(self, sim):
        vmm = booted_vmm(sim)
        domain = sim.run(sim.spawn(vmm.create_domain("vm1", gib(1))))
        assert domain.is_running
        assert vmm.allocator.pages_of("vm1") == pages(gib(1))
        assert domain.p2m.mapped_pages == pages(gib(1))
        # name, memory and state were introduced in xenstore
        assert vmm.xenstore.remove(f"/local/domain/{domain.domid}") == 3

    def test_creation_serialized_by_toolstack(self, sim):
        vmm = booted_vmm(sim)
        t0 = sim.now
        procs = [
            sim.spawn(vmm.create_domain(f"vm{i}", mib(256))) for i in range(4)
        ]
        sim.run(sim.all_of(procs))
        expected = 4 * paper_testbed().vmm.create_domain_s
        assert sim.now - t0 == pytest.approx(expected, rel=0.01)

    def test_duplicate_name_rejected(self, sim):
        vmm = booted_vmm(sim)
        sim.run(sim.spawn(vmm.create_domain("vm1", mib(256))))
        proc = sim.spawn(vmm.create_domain("vm1", mib(256)))
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, DomainError)

    def test_destroy_releases_memory_and_heap(self, sim):
        vmm = booted_vmm(sim)
        sim.run(sim.spawn(vmm.create_domain("vm1", gib(1))))
        heap_before = vmm.heap.live_bytes
        vmm.destroy_domain("vm1")
        assert vmm.allocator.pages_of("vm1") == 0
        assert vmm.heap.live_bytes < heap_before
        assert "vm1" not in vmm.domains
        assert vmm.event_channels.channels_of("vm1") == []

    def test_destroy_unknown_raises(self, sim):
        with pytest.raises(DomainError):
            booted_vmm(sim).destroy_domain("ghost")

    def test_domus_excludes_dom0(self, sim):
        vmm = booted_vmm(sim)
        sim.run(sim.spawn(vmm.create_domain("vm1", mib(256))))
        assert [d.name for d in vmm.domus] == ["vm1"]
        assert vmm.domain_list[0].name == DOM0_NAME


class TestHypercalls:
    def test_unknown_hypercall_raises(self, sim):
        vmm = booted_vmm(sim)
        dom0 = vmm.domain(DOM0_NAME)
        with pytest.raises(HypercallError):
            vmm.hypercall("frobnicate", dom0)

    def test_hypercall_counting(self, sim):
        vmm = booted_vmm(sim, vmm_cls=RootHammerHypervisor)
        dom0 = vmm.domain(DOM0_NAME)
        vmm.hypercall("xexec", dom0)
        vmm.hypercall("xexec", dom0)
        with pytest.raises(HypercallError):
            vmm.hypercall("frobnicate", dom0)  # unknown: not counted
        assert vmm.hypercall_counts == {"xexec": 2}

    def test_crashed_vmm_rejects_hypercalls(self, sim):
        vmm = booted_vmm(sim, vmm_cls=RootHammerHypervisor)
        vmm.state = VmmState.CRASHED  # what Host.crash does first
        with pytest.raises(VMMCrashed):
            vmm.hypercall("xexec", vmm.domain(DOM0_NAME))


class TestHeapAging:
    def test_destroy_leaks_with_fault(self, sim):
        """Changeset 9392: rebooting VMs bleeds the VMM heap (§2)."""
        faults = AgingFaults(leak_on_domain_destroy_bytes=64 * 1024)
        vmm = booted_vmm(sim, faults=faults)
        for i in range(5):
            sim.run(sim.spawn(vmm.create_domain(f"vm{i}", mib(256))))
            vmm.destroy_domain(f"vm{i}")
        assert vmm.heap.leaked_bytes == 5 * 64 * 1024

    def test_error_path_leak(self, sim):
        faults = AgingFaults(leak_on_error_path_bytes=1024)
        vmm = booted_vmm(sim, faults=faults)
        dom0 = vmm.domain(DOM0_NAME)
        for _ in range(3):
            with pytest.raises(HypercallError):
                vmm.hypercall("bogus", dom0)
        assert vmm.heap.leaked_bytes == 3 * 1024

    def test_healthy_vmm_never_leaks(self, sim):
        vmm = booted_vmm(sim)
        for i in range(5):
            sim.run(sim.spawn(vmm.create_domain(f"vm{i}", mib(256))))
            vmm.destroy_domain(f"vm{i}")
        assert vmm.heap.leaked_bytes == 0


class TestSaveRestore:
    def test_save_then_restore_roundtrip(self, sim):
        vmm = booted_vmm(sim)
        domain = sim.run(sim.spawn(vmm.create_domain("vm1", gib(1))))
        domain.execution_context["program_counter"] = 0x1234
        mfn = domain.p2m.mfn_of(0)
        vmm.machine.memory.write_token(mfn, "precious")

        sim.run(sim.spawn(vmm.save_domain_to_disk("vm1")))
        assert "vm1" not in vmm.domains
        assert "saved:vm1" in vmm.machine.disk_store

        restored = sim.run(sim.spawn(vmm.restore_domain_from_disk("vm1")))
        assert restored.is_running
        assert restored.execution_context["program_counter"] == 0x1234
        new_mfn = restored.p2m.mfn_of(0)
        assert vmm.machine.memory.read_token(new_mfn) == "precious"

    def test_save_duration_scales_with_memory(self, sim):
        vmm = booted_vmm(sim)
        sim.run(sim.spawn(vmm.create_domain("vm1", gib(2))))
        t0 = sim.now
        sim.run(sim.spawn(vmm.save_domain_to_disk("vm1")))
        duration = sim.now - t0
        # 2 GiB at 85 MiB/s ~= 24 s.
        assert duration == pytest.approx(gib(2) / (85 * 1024 * 1024), rel=0.05)

    def test_restore_missing_image_raises(self, sim):
        vmm = booted_vmm(sim)
        proc = sim.spawn(vmm.restore_domain_from_disk("ghost"))
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, DomainError)

    def test_saved_image_survives_hardware_reset(self, sim):
        """Disk contents persist across resets — unlike RAM."""
        vmm = booted_vmm(sim)
        sim.run(sim.spawn(vmm.create_domain("vm1", mib(256))))
        sim.run(sim.spawn(vmm.save_domain_to_disk("vm1")))
        sim.run(sim.spawn(vmm.machine.hardware_reset()))
        assert "saved:vm1" in vmm.machine.disk_store


class TestShutdown:
    def test_shutdown_lifecycle(self, sim):
        vmm = booted_vmm(sim)
        sim.run(sim.spawn(vmm.shutdown()))
        assert vmm.state is VmmState.DEAD
        with pytest.raises(VMMError):
            vmm.require_running()

    def test_free_bytes_reporting(self, sim):
        vmm = booted_vmm(sim)
        free_before = vmm.free_bytes()
        sim.run(sim.spawn(vmm.create_domain("vm1", gib(1))))
        assert vmm.free_bytes() == free_before - gib(1)
