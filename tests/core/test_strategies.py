"""Integration tests for the three reboot strategies and the dom0-only
extension — including the paper's headline comparisons."""

import pytest

from repro.analysis import extract_downtimes, reboot_downtime_summary
from repro.core import RebootStrategy, RootHammer, VMSpec
from repro.errors import RejuvenationError
from repro.guest import GuestState
from repro.units import gib
from repro.vmm import Hypervisor

from tests.conftest import build_started_host


def controller_with(n, services=("ssh",), **kwargs):
    return RootHammer.started(
        vms=[
            VMSpec(f"vm{i:02d}", memory_bytes=gib(1), services=services)
            for i in range(n)
        ],
        **kwargs,
    )


class TestWarmReboot:
    def test_phases_present(self):
        rh = controller_with(2)
        report = rh.rejuvenate("warm")
        names = [p.name for p in report.phases]
        assert names == [
            "xexec-load",
            "dom0-shutdown",
            "suspend",
            "vmm-shutdown",
            "quick-reload",
            "vmm-boot",
            "dom0-boot",
            "resume",
        ]

    def test_no_hardware_reset(self):
        rh = controller_with(2)
        rh.rejuvenate("warm")
        assert rh.host.machine.reset_count == 0
        assert rh.host.machine.bios.post_count == 0

    def test_no_image_disk_traffic(self):
        rh = controller_with(2)
        written_before = rh.host.machine.disk.stats.bytes_written
        rh.rejuvenate("warm")
        # Only dom0 housekeeping writes, nothing near 2 GiB of images.
        assert rh.host.machine.disk.stats.bytes_written - written_before < gib(1) // 10

    def test_new_vmm_generation(self):
        rh = controller_with(1)
        old = rh.vmm()
        rh.rejuvenate("warm")
        assert rh.vmm() is not old
        assert rh.vmm().generation == old.generation + 1

    def test_heap_rejuvenated(self):
        from repro.config import AgingFaults

        rh = controller_with(1, faults=AgingFaults(leak_on_error_path_bytes=1024))
        vmm = rh.vmm()
        for _ in range(10):
            try:
                vmm.hypercall("bogus", vmm.domain("vm00"))
            except Exception:
                pass
        assert vmm.heap.leaked_bytes > 0
        rh.rejuvenate("warm")
        assert rh.vmm().heap.leaked_bytes == 0  # rejuvenation achieved

    def test_guests_keep_running_during_dom0_shutdown(self):
        """§4.2: suspending is delayed until dom0 is down, so services stay
        up through the dom0-shutdown phase."""
        rh = controller_with(2)
        report = rh.rejuvenate("warm")
        downs = rh.sim.trace.times("service.down", reason="suspend")
        dom0_shutdown = report.phase("dom0-shutdown")
        assert all(t >= dom0_shutdown.end for t in downs)

    def test_warm_downtime_11vms(self):
        """The headline: ~42 s downtime at 11 VMs (Figure 6(a))."""
        rh = controller_with(11)
        t0 = rh.now
        rh.rejuvenate("warm")
        summary = rh.downtime_summary(since=t0)
        assert 35 <= summary.mean <= 48
        assert summary.count == 11

    def test_requires_roothammer_hypervisor(self, sim):
        host = build_started_host(sim, n_vms=1, hypervisor_cls=Hypervisor)
        proc = sim.spawn(host.reboot("warm"))
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, RejuvenationError)

    def test_reboot_before_start_rejected(self, sim):
        from repro.core import Host

        host = Host(sim)
        proc = sim.spawn(host.reboot("warm"))
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, RejuvenationError)

    def test_unknown_strategy_rejected(self):
        rh = controller_with(1)
        with pytest.raises(RejuvenationError):
            rh.rejuvenate("lukewarm")


class TestColdReboot:
    def test_phases_present(self):
        rh = controller_with(2)
        report = rh.rejuvenate("cold")
        names = [p.name for p in report.phases]
        assert "guest-shutdown" in names
        assert "hardware-reset" in names
        assert "guest-boot" in names
        assert "quick-reload" not in names

    def test_hardware_reset_happened(self):
        rh = controller_with(2)
        report = rh.rejuvenate("cold")
        assert rh.host.machine.reset_count == 1
        assert report.phase_duration("hardware-reset") == pytest.approx(47, abs=1)

    def test_guests_are_fresh_images(self):
        rh = controller_with(2)
        old_guest = rh.guest("vm00")
        old_guest.page_cache.insert("/f", 1000)
        rh.rejuvenate("cold")
        new_guest = rh.guest("vm00")
        assert new_guest is not old_guest
        assert old_guest.state is GuestState.DEAD
        assert new_guest.page_cache.used_bytes == 0  # cache lost

    def test_services_restarted(self):
        rh = controller_with(1)
        rh.rejuvenate("cold")
        assert rh.guest("vm00").service("sshd").start_count == 1  # new instance

    def test_cold_downtime_11vms(self):
        """~157 s downtime at 11 VMs (Figure 6(a))."""
        rh = controller_with(11)
        t0 = rh.now
        rh.rejuvenate("cold")
        summary = rh.downtime_summary(since=t0)
        assert 140 <= summary.mean <= 170

    def test_cold_jboss_downtime_11vms(self):
        """~241 s with JBoss at 11 VMs (Figure 6(b))."""
        rh = controller_with(11, services=("jboss",))
        t0 = rh.now
        rh.rejuvenate("cold")
        summary = rh.downtime_summary(since=t0)
        assert 215 <= summary.mean <= 265


class TestSavedReboot:
    def test_phases_present(self):
        rh = controller_with(2)
        report = rh.rejuvenate("saved")
        names = [p.name for p in report.phases]
        assert "save" in names and "restore" in names
        assert "hardware-reset" in names

    def test_images_round_trip_through_disk(self):
        rh = controller_with(2)
        written_before = rh.host.machine.disk.stats.bytes_written
        guest = rh.guest("vm00")
        rh.rejuvenate("saved")
        written = rh.host.machine.disk.stats.bytes_written - written_before
        assert written >= 2 * gib(1)  # both images hit the disk
        assert rh.guest("vm00") is guest  # same image object back
        assert rh.guest("vm00").state is GuestState.RUNNING

    def test_saved_downtime_11vms(self):
        """~429 s at 11 VMs (Figure 6(a)) — the motivating disaster."""
        rh = controller_with(11)
        t0 = rh.now
        rh.rejuvenate("saved")
        summary = rh.downtime_summary(since=t0)
        assert 380 <= summary.mean <= 480

    def test_save_time_scales_with_memory_unlike_warm(self):
        rh1 = RootHammer.started(vms=[VMSpec("vm", memory_bytes=gib(1))])
        r1 = rh1.rejuvenate("saved")
        rh2 = RootHammer.started(vms=[VMSpec("vm", memory_bytes=gib(4))])
        r2 = rh2.rejuvenate("saved")
        assert r2.phase_duration("save") > 3 * r1.phase_duration("save")

        rh3 = RootHammer.started(vms=[VMSpec("vm", memory_bytes=gib(1))])
        w1 = rh3.rejuvenate("warm")
        rh4 = RootHammer.started(vms=[VMSpec("vm", memory_bytes=gib(4))])
        w2 = rh4.rejuvenate("warm")
        assert w2.phase_duration("suspend") - w1.phase_duration("suspend") < 0.1


class TestStrategyComparison:
    def test_ordering_warm_cold_saved(self):
        """The paper's central comparison at any VM count: warm << cold << saved."""
        results = {}
        for strategy in ("warm", "cold", "saved"):
            rh = controller_with(4)
            t0 = rh.now
            rh.rejuvenate(strategy)
            results[strategy] = rh.downtime_summary(since=t0).mean
        assert results["warm"] < results["cold"] < results["saved"]
        assert results["cold"] / results["warm"] > 2.5
        assert results["saved"] / results["warm"] > 5

    def test_enum_and_string_dispatch_agree(self):
        rh1 = controller_with(1)
        r1 = rh1.rejuvenate("warm")
        rh2 = controller_with(1)
        r2 = rh2.rejuvenate(RebootStrategy.WARM)
        assert r1.total == pytest.approx(r2.total)


class TestDom0OnlyReboot:
    def test_domus_keep_their_state(self):
        rh = controller_with(2)
        guest = rh.guest("vm00")
        guest.page_cache.insert("/f", 4096)
        old_generation = rh.vmm().generation
        report = rh.rejuvenate("dom0-only")
        assert rh.vmm().generation == old_generation  # VMM untouched
        assert rh.guest("vm00") is guest
        assert guest.page_cache.used_bytes == 4096
        assert [p.name for p in report.phases] == ["dom0-shutdown", "dom0-boot"]

    def test_downtime_only_dom0_cycle(self):
        rh = controller_with(2)
        t0 = rh.now
        rh.rejuvenate("dom0-only")
        summary = rh.downtime_summary(since=t0)
        # ~13.5 shutdown + ~31.7 boot.
        assert 40 <= summary.mean <= 50

    def test_xenstore_rejuvenated(self):
        from repro.config import AgingFaults

        rh = controller_with(1, faults=AgingFaults(xenstore_leak_per_txn_bytes=64))
        assert rh.vmm().xenstore.leaked_bytes > 0  # domain creation leaked
        rh.rejuvenate("dom0-only")
        assert rh.vmm().xenstore.leaked_bytes == 0


class TestDriverDomains:
    def test_driver_domain_cold_cycled_in_warm_reboot(self):
        """§7: driver domains cannot be suspended, increasing downtime."""
        rh = RootHammer.started(
            vms=[
                VMSpec("app", memory_bytes=gib(1)),
                VMSpec("driver", memory_bytes=gib(1), driver_domain=True),
            ]
        )
        driver_guest = rh.guest("driver")
        report = rh.rejuvenate("warm")
        assert report.has_phase("driver-domain-shutdown")
        assert report.has_phase("driver-domain-boot")
        assert rh.guest("driver") is not driver_guest  # fresh image
        assert rh.guest("app").state is GuestState.RUNNING

    def test_driver_domain_downtime_exceeds_suspended_peers(self):
        rh = RootHammer.started(
            vms=[
                VMSpec("app", memory_bytes=gib(1)),
                VMSpec("driver", memory_bytes=gib(1), driver_domain=True),
            ]
        )
        t0 = rh.now
        rh.rejuvenate("warm")
        intervals = rh.downtimes(since=t0)
        by_domain = {i.domain: i.duration for i in intervals if i.closed}
        assert by_domain["driver"] > by_domain["app"]
