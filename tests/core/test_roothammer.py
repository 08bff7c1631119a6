"""Unit tests for the RootHammer hypervisor mechanisms (§4.2, §4.3)."""

import pytest

from repro.errors import DomainError, HypercallError, RejuvenationError
from repro.guest import GuestState
from repro.memory import P2MSnapshot, P2MTable, SuspendImage
from repro.units import GiB, gib, pages
from repro.vmm import DOM0_NAME, DomainState

from tests.conftest import build_started_host


@pytest.fixture()
def host(sim):
    return build_started_host(sim, n_vms=2)


class TestXexec:
    def test_xexec_load(self, sim, host):
        vmm = host.vmm
        assert not vmm.ready_for_quick_reload
        sim.run(sim.spawn(vmm.xexec_load()))
        assert vmm.ready_for_quick_reload
        assert vmm.loaded_successor_image["dom0_kernel"].startswith("vmlinuz")

    def test_xexec_restricted_to_dom0(self, sim, host):
        vmm = host.vmm
        domu = vmm.domain("vm0")
        with pytest.raises(HypercallError):
            vmm.hypercall("xexec", domu)

    def test_xexec_denied_is_an_error_path(self, sim):
        from repro.config import AgingFaults

        host = build_started_host(
            sim, n_vms=1, faults=AgingFaults(leak_on_error_path_bytes=512)
        )
        vmm = host.vmm
        with pytest.raises(HypercallError):
            vmm.hypercall("xexec", vmm.domain("vm0"))
        assert vmm.heap.leaked_bytes == 512


class TestOnMemorySuspend:
    def test_suspend_preserves_image_in_place(self, sim, host):
        vmm = host.vmm
        guest = host.guest("vm0")
        sim.run(sim.spawn(vmm.suspend_domain_on_memory("vm0")))
        domain = vmm.domain("vm0")
        assert domain.state is DomainState.SUSPENDED
        assert guest.state is GuestState.SUSPENDED
        assert "vm0" in host.machine.preserved
        # Memory is NOT freed: still charged to the domain.
        assert vmm.allocator.pages_of("vm0") == pages(gib(1))
        # And no disk I/O happened for the image.
        assert host.machine.disk.stats.bytes_written < gib(1) // 100

    def test_suspend_saves_16kib_state(self, sim, host):
        vmm = host.vmm
        sim.run(sim.spawn(vmm.suspend_domain_on_memory("vm0")))
        image = host.machine.preserved.load("vm0")
        assert image.state_bytes == 16 * 1024
        assert image.execution_state["event_channels"]
        assert image.configuration["memory_bytes"] == gib(1)

    def test_suspend_duration_nearly_memory_independent(self, sim):
        """The Figure 4 property: on-memory suspend of 11 GiB is ~0.08 s."""
        host = build_started_host(sim, n_vms=0)
        from repro.core import VMSpec
        from repro.guest import Filesystem

        host.vm_specs["big"] = VMSpec("big", memory_bytes=gib(11))
        host.machine.disk_store["fs:big"] = Filesystem()
        sim.run(sim.spawn(host.cold_boot_guests([host.vm_specs["big"]])))
        t0 = sim.now
        sim.run(sim.spawn(host.vmm.suspend_domain_on_memory("big")))
        duration = sim.now - t0
        assert duration < 0.15  # paper: 0.08 s at 11 GB

    def test_dom0_cannot_be_suspended(self, sim, host):
        proc = sim.spawn(host.vmm.suspend_domain_on_memory(DOM0_NAME))
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, DomainError)

    def test_suspend_all_parallel(self, sim, host):
        t0 = sim.now
        sim.run(sim.spawn(host.vmm.suspend_all_domus()))
        # Two 1 GiB VMs in parallel: well under 2x the single cost.
        assert sim.now - t0 < 0.12
        assert len(host.machine.preserved) == 2


class TestQuickReloadBootPath:
    def _suspend_and_reload(self, sim, host):
        vmm = host.vmm
        sim.run(sim.spawn(vmm.suspend_all_domus()))
        sim.run(sim.spawn(vmm.shutdown()))
        sim.run(sim.spawn(host.machine.quick_reload_window()))
        sim.run(sim.spawn(host.boot_vmm_instance()))
        return host.vmm

    def test_successor_reserves_preserved_extents(self, sim, host):
        new_vmm = self._suspend_and_reload(sim, host)
        assert new_vmm.generation == 2
        assert new_vmm.allocator.pages_of("vm0") == pages(gib(1))
        assert new_vmm.allocator.pages_of("vm1") == pages(gib(1))
        new_vmm.verify_no_preserved_overlap()

    def test_overlapping_preserved_images_rejected(self, sim, host):
        new_vmm = self._suspend_and_reload(sim, host)
        vm0 = new_vmm.machine.preserved.load("vm0").p2m_snapshot
        extent = max(
            P2MTable.from_snapshot("vm0", vm0).machine_extents(),
            key=lambda e: e.npages,
        )
        assert extent.npages > 5  # so MFNs start+2, +3 and +5 are vm0's
        ghost = P2MSnapshot(
            3, ((0, extent.start + 5, 1), (1, extent.start + 2, 2))
        )
        new_vmm.machine.preserved.save(
            SuspendImage("ghost", ghost, execution_state={}, configuration={})
        )
        with pytest.raises(
            RejuvenationError, match=rf"overlap at MFN {extent.start + 2}$"
        ):
            new_vmm.verify_no_preserved_overlap()

    def test_successor_scrub_skips_preserved_memory(self, sim, host):
        guest = host.guest("vm0")
        mfn = guest.domain.p2m.mfn_of(0)
        self._suspend_and_reload(sim, host)
        # The sentinel written at suspend must still be there.
        assert host.machine.memory.read_token(mfn) is not None

    def test_successor_boot_faster_with_more_preserved(self, sim):
        """reboot_vmm(n) decreases with n: less free memory to scrub."""
        def boot_time(n):
            s = type(sim)()  # fresh Simulator
            h = build_started_host(s, n_vms=n)
            s.run(s.spawn(h.vmm.suspend_all_domus()))
            s.run(s.spawn(h.vmm.shutdown()))
            t0 = s.now
            s.run(s.spawn(h.boot_vmm_instance()))
            return s.now - t0

        assert boot_time(4) < boot_time(1)


class TestOnMemoryResume:
    def _full_cycle(self, sim, host):
        vmm = host.vmm
        sim.run(sim.spawn(vmm.suspend_all_domus()))
        sim.run(sim.spawn(vmm.shutdown()))
        sim.run(sim.spawn(host.machine.quick_reload_window()))
        sim.run(sim.spawn(host.boot_vmm_instance()))
        host.vmm.create_dom0()
        resumed = sim.run(sim.spawn(host.vmm.resume_all_preserved()))
        return resumed

    def test_resume_restores_running_domains(self, sim, host):
        guest0 = host.guest("vm0")
        cache_marker = guest0.page_cache
        guest0.filesystem.create("/f", 1000)
        self._full_cycle(sim, host)
        new_guest = host.guest("vm0")
        assert new_guest is guest0  # same image object
        assert new_guest.page_cache is cache_marker  # cache survived
        assert new_guest.state is GuestState.RUNNING
        assert host.vmm.domain("vm0").is_running
        assert len(host.machine.preserved) == 0

    def test_resume_verifies_image_integrity(self, sim, host):
        self._full_cycle(sim, host)  # would raise GuestError if scrubbed

    def test_services_survive_without_restart(self, sim, host):
        before = host.guest("vm0").service("sshd").start_count
        self._full_cycle(sim, host)
        service = host.guest("vm0").service("sshd")
        assert service.is_up
        assert service.start_count == before  # never restarted

    def test_execution_context_restored(self, sim, host):
        host.vmm.domain("vm0").execution_context["program_counter"] = 0xcafe
        self._full_cycle(sim, host)
        assert host.vmm.domain("vm0").execution_context["program_counter"] == 0xcafe

    def test_event_channels_restored(self, sim, host):
        self._full_cycle(sim, host)
        channels = host.vmm.event_channels.channels_of("vm0")
        assert {c.purpose for c in channels} == {"console", "xenstore"}

    def test_resume_missing_image_raises(self, sim, host):
        proc = sim.spawn(host.vmm.resume_domain_on_memory("ghost"))
        proc.defuse()
        sim.run()
        assert not proc.ok

    def test_resume_serialized_by_toolstack(self, sim):
        host = build_started_host(sim, n_vms=4)
        vmm = host.vmm
        sim.run(sim.spawn(vmm.suspend_all_domus()))
        sim.run(sim.spawn(vmm.shutdown()))
        sim.run(sim.spawn(host.machine.quick_reload_window()))
        sim.run(sim.spawn(host.boot_vmm_instance()))
        host.vmm.create_dom0()
        t0 = sim.now
        sim.run(sim.spawn(host.vmm.resume_all_preserved()))
        per_vm = (sim.now - t0) / 4
        # ~0.25 create + 0.055/GiB + 0.1 devices + handler ~= 0.43 each.
        assert 0.3 <= per_vm <= 0.6
