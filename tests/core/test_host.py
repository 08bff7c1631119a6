"""Unit tests for Host orchestration edge cases and error paths."""

import pytest

from repro.config import paper_testbed, small_testbed
from repro.core import Host, VMSpec
from repro.errors import OutOfMemoryError, RejuvenationError
from repro.units import gib, mib

from tests.conftest import build_started_host


class TestInstallation:
    def test_install_after_start_rejected(self, sim, started_host):
        with pytest.raises(RejuvenationError):
            started_host.install_vm(VMSpec("late"))

    def test_duplicate_name_rejected(self, sim):
        host = Host(sim, profile=small_testbed())
        host.install_vm(VMSpec("vm", memory_bytes=mib(256)))
        with pytest.raises(RejuvenationError):
            host.install_vm(VMSpec("vm", memory_bytes=mib(256)))

    def test_dom0_name_reserved(self, sim):
        host = Host(sim, profile=small_testbed())
        with pytest.raises(RejuvenationError):
            host.install_vm(VMSpec("Domain-0", memory_bytes=mib(256)))

    def test_double_start_rejected(self, sim, started_host):
        proc = sim.spawn(started_host.start())
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, RejuvenationError)

    def test_filesystem_for_unknown_vm(self, sim, started_host):
        with pytest.raises(RejuvenationError):
            started_host.filesystem("ghost")

    def test_overcommitting_machine_memory_fails_loudly(self, sim):
        """12 VMs of 1 GiB + dom0 cannot fit in 12 GiB."""
        host = Host(sim, profile=paper_testbed())
        host.install_vms(VMSpec(f"vm{i}", memory_bytes=gib(1)) for i in range(12))
        proc = sim.spawn(host.start())
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, OutOfMemoryError)


class TestAccessors:
    def test_require_vmm_before_start(self, sim):
        host = Host(sim, profile=small_testbed())
        with pytest.raises(RejuvenationError):
            host.require_vmm()

    def test_guest_accessor_without_image(self, sim, started_host):
        started_host.domain("vm0").guest = None
        with pytest.raises(RejuvenationError):
            started_host.guest("vm0")

    def test_vm_count(self, sim, started_host):
        assert started_host.vm_count == 2

    def test_guests_listing(self, sim, started_host):
        assert sorted(g.name for g in started_host.guests()) == ["vm0", "vm1"]


class TestGuestReboot:
    def test_unknown_vm_rejected(self, sim, started_host):
        proc = sim.spawn(started_host.reboot_guest("ghost"))
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, RejuvenationError)

    def test_other_vms_untouched(self, sim, started_host):
        other = started_host.guest("vm1")
        other.page_cache.insert("/x", 4096)
        sim.run(sim.spawn(started_host.reboot_guest("vm0")))
        assert started_host.guest("vm1") is other
        assert other.page_cache.cached_bytes("/x") == 4096

    def test_filesystem_persists_across_guest_reboot(self, sim, started_host):
        started_host.guest("vm0").filesystem.create("/data", mib(1))
        sim.run(sim.spawn(started_host.reboot_guest("vm0")))
        assert started_host.guest("vm0").filesystem.exists("/data")

    def test_vmm_reboot_refused_while_a_guest_reboots(self, sim, started_host):
        sim.spawn(started_host.reboot_guest("vm0"))
        sim.run(until=sim.now + 1.0)
        refused = sim.spawn(started_host.reboot("warm"))
        refused.defuse()
        sim.run()
        assert isinstance(refused.value, RejuvenationError)
        assert "already rebooting" in str(refused.value)
        # The guest reboot finished undisturbed, and the VMM never went down.
        assert not started_host.rebooting
        assert started_host.generation == 1
        assert started_host.guest("vm0").state.value == "running"

    def test_guest_reboot_refused_while_the_vmm_reboots(self, sim, started_host):
        sim.spawn(started_host.reboot("warm"))
        sim.run(until=sim.now + 1.0)
        refused = sim.spawn(started_host.reboot_guest("vm0"))
        refused.defuse()
        sim.run()
        assert isinstance(refused.value, RejuvenationError)
        assert "already rebooting" in str(refused.value)
        assert started_host.generation == 2
        for name in ("vm0", "vm1"):
            assert started_host.guest(name).state.value == "running"


class TestCreationQuirk:
    def test_single_creation_no_slump(self, sim):
        host = build_started_host(sim, n_vms=1)
        assert host.machine.nic.degradation_factor == 1.0

    def test_multi_creation_slump_and_recovery(self, sim):
        host = build_started_host(sim, n_vms=3)
        # The quirk may still be active right after start...
        factor_now = host.machine.nic.degradation_factor
        assert factor_now <= 1.0
        sim.run(until=sim.now + 30)
        assert host.machine.nic.degradation_factor == 1.0

    def test_quirk_disabled_profile(self, sim):
        from repro.config import QuirkSpec

        profile = paper_testbed(
            quirks=QuirkSpec(post_create_network_slump_s=0.0)
        )
        host = Host(sim, profile=profile)
        host.install_vms(VMSpec(f"vm{i}") for i in range(3))
        sim.run(sim.spawn(host.start()))
        assert host.machine.nic.degradation_factor == 1.0


class TestRamdisk:
    def test_machine_has_seekless_ramdisk(self, sim, started_host):
        ramdisk = started_host.machine.ramdisk
        proc = ramdisk.read("x", mib(150))
        sim_t0 = sim.now
        sim.run(proc)
        # 150 MiB at 150 MiB/s, negligible access time.
        assert sim.now - sim_t0 == pytest.approx(1.0, abs=0.01)
