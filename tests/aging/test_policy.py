"""Unit tests for the aging monitor and the aging story end to end.

The rejuvenation policies are tested with the control plane that runs
them: tests/control/test_schedule.py and tests/control/test_loop.py.
"""

import pytest

from repro.aging import AgingMonitor
from repro.config import AgingFaults
from repro.errors import ConfigError
from repro.units import HOUR

from tests.conftest import build_started_host


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
