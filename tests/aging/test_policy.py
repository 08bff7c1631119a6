"""Unit tests for rejuvenation policies and the aging monitor."""

import pytest

from repro.aging import AgingMonitor, ThresholdRejuvenator, TimeBasedRejuvenator
from repro.config import AgingFaults
from repro.errors import ConfigError
from repro.units import DAY, HOUR

from tests.conftest import build_started_host


class TestTimeBased:
    def test_validation(self, sim, started_host):
        with pytest.raises(ConfigError):
            TimeBasedRejuvenator(started_host, os_interval_s=0)

    def test_os_rejuvenations_happen_on_schedule(self, sim, started_host):
        rejuvenator = TimeBasedRejuvenator(
            started_host, strategy="warm",
            os_interval_s=DAY, vmm_interval_s=100 * DAY,
        )
        sim.run(sim.spawn(rejuvenator.run(sim.now + 3.5 * DAY)))
        # 2 VMs x 3 days.
        assert rejuvenator.count("os") == 6
        assert rejuvenator.count("vmm") == 0

    def test_vmm_rejuvenation_happens(self, sim, started_host):
        rejuvenator = TimeBasedRejuvenator(
            started_host, strategy="warm",
            os_interval_s=10 * DAY, vmm_interval_s=2 * DAY,
        )
        sim.run(sim.spawn(rejuvenator.run(sim.now + 5 * DAY)))
        assert rejuvenator.count("vmm") == 2
        assert started_host.generation == 3  # two warm reboots

    def test_cold_vmm_rejuvenation_resets_os_clocks(self, sim, started_host):
        rejuvenator = TimeBasedRejuvenator(
            started_host, strategy="cold",
            os_interval_s=3 * DAY, vmm_interval_s=4 * DAY,
        )
        sim.run(sim.spawn(rejuvenator.run(sim.now + 8 * DAY)))
        os_days = sorted(
            e.time / DAY for e in rejuvenator.events if e.kind == "os"
        )
        # OS at day 3; VMM at day 4 resets; next OS at day 7 (not 6).
        assert any(abs(d - 3) < 0.2 for d in os_days)
        assert not any(abs(d - 6) < 0.2 for d in os_days)
        assert any(abs(d - 7) < 0.2 for d in os_days)

    def test_warm_vmm_rejuvenation_keeps_os_clocks(self, sim, started_host):
        rejuvenator = TimeBasedRejuvenator(
            started_host, strategy="warm",
            os_interval_s=3 * DAY, vmm_interval_s=4 * DAY,
        )
        sim.run(sim.spawn(rejuvenator.run(sim.now + 7 * DAY)))
        os_days = sorted(
            e.time / DAY for e in rejuvenator.events if e.kind == "os"
        )
        assert any(abs(d - 6) < 0.2 for d in os_days)  # cadence kept

    def test_guests_alive_after_policy_run(self, sim, started_host):
        rejuvenator = TimeBasedRejuvenator(
            started_host, strategy="warm",
            os_interval_s=DAY, vmm_interval_s=2 * DAY,
        )
        sim.run(sim.spawn(rejuvenator.run(sim.now + 4 * DAY)))
        for name in ("vm0", "vm1"):
            assert started_host.guest(name).state.value == "running"


class TestThreshold:
    def test_validation(self, sim, started_host):
        with pytest.raises(ConfigError):
            ThresholdRejuvenator(started_host, heap_threshold=0)
        with pytest.raises(ConfigError):
            ThresholdRejuvenator(started_host, check_interval_s=0)

    def test_healthy_vmm_never_triggers(self, sim, started_host):
        rejuvenator = ThresholdRejuvenator(
            started_host, heap_threshold=0.5, check_interval_s=HOUR
        )
        sim.run(sim.spawn(rejuvenator.run(sim.now + 12 * HOUR)))
        assert rejuvenator.rejuvenations == []

    def test_leaking_vmm_triggers_rejuvenation(self, sim, started_host):
        vmm = started_host.vmm
        vmm.heap.leak_bytes(int(vmm.heap.capacity_bytes * 0.9))
        rejuvenator = ThresholdRejuvenator(
            started_host, strategy="warm",
            heap_threshold=0.8, check_interval_s=HOUR,
        )
        sim.run(sim.spawn(rejuvenator.run(sim.now + 3 * HOUR)))
        assert len(rejuvenator.rejuvenations) == 1
        assert started_host.vmm.heap.utilization < 0.8  # fresh heap


class TestAgingMonitor:
    def test_validation(self, sim, started_host):
        with pytest.raises(ConfigError):
            AgingMonitor(started_host, interval_s=0)

    def test_sampling(self, sim, started_host):
        monitor = AgingMonitor(started_host, interval_s=HOUR)
        sim.run(sim.spawn(monitor.run(sim.now + 5 * HOUR)))
        assert len(monitor.samples) == 5
        assert all(s.heap_utilization > 0 for s in monitor.samples)

    def test_flat_trend_never_exhausts(self, sim, started_host):
        monitor = AgingMonitor(started_host, interval_s=HOUR)
        sim.run(sim.spawn(monitor.run(sim.now + 4 * HOUR)))
        assert monitor.estimate_heap_exhaustion() == float("inf")
        assert monitor.recommended_rejuvenation_interval() == float("inf")

    def test_linear_leak_predicts_exhaustion(self, sim, started_host):
        vmm = started_host.vmm
        monitor = AgingMonitor(started_host, interval_s=HOUR)
        leak_per_hour = vmm.heap.capacity_bytes // 100

        def leaker(sim):
            while True:
                yield sim.timeout(HOUR)
                vmm.heap.leak_bytes(leak_per_hour)

        sim.spawn(leaker(sim))
        start = sim.now
        sim.run(sim.spawn(monitor.run(sim.now + 10 * HOUR)))
        predicted = monitor.estimate_heap_exhaustion()
        # ~1% per hour -> exhaustion ~100 h after start.
        assert predicted - start == pytest.approx(100 * HOUR, rel=0.1)
        interval = monitor.recommended_rejuvenation_interval(safety=0.5)
        assert interval == pytest.approx(50 * HOUR, rel=0.15)

    def test_needs_two_samples(self, sim, started_host):
        from repro.errors import AnalysisError

        monitor = AgingMonitor(started_host)
        monitor.sample_once()
        with pytest.raises(AnalysisError):
            monitor.heap_trend()

    def test_sample_during_reboot_returns_none(self, sim, started_host):
        monitor = AgingMonitor(started_host)
        started_host.vmm.xenstore = None
        assert monitor.sample_once() is None


class TestEndToEndAging:
    def test_paper_bugs_age_the_vmm_and_warm_reboot_rejuvenates(self, sim):
        """The full §2 story: domain churn under the cited Xen defects
        exhausts the heap; a warm reboot restores it without touching
        the running guests."""
        host = build_started_host(sim, n_vms=2, faults=AgingFaults.paper_bugs())
        vmm = host.vmm
        baseline = vmm.heap.used_bytes
        # Churn: repeatedly rejuvenate one guest OS (create/destroy cycles).
        for _ in range(8):
            sim.run(sim.spawn(host.reboot_guest("vm0")))
        assert vmm.heap.leaked_bytes > 0
        assert vmm.heap.used_bytes > baseline
        survivor_cache = host.guest("vm1").page_cache
        sim.run(sim.spawn(host.reboot("warm")))
        assert host.vmm.heap.leaked_bytes == 0
        assert host.guest("vm1").page_cache is survivor_cache
