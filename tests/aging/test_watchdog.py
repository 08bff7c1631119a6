"""Unit tests for crash injection, the watchdog, and unplanned recovery."""

import pytest

from repro.aging.watchdog import CrashWatchdog, HeapExhaustionCrasher
from repro.analysis.downtime import extract_downtimes
from repro.errors import ConfigError, RejuvenationError
from repro.units import HOUR, MiB, mib
from repro.vmm.hypervisor import VmmState

from tests.conftest import build_started_host


class TestCrash:
    def test_crash_marks_services_down(self, sim, started_host):
        t0 = sim.now
        started_host.crash("test")
        downs = sim.trace.select("service.down", since=t0, reason="vmm-crash")
        assert len(downs) == 2  # one sshd per VM

    def test_recover_requires_crashed_vmm(self, sim, started_host):
        proc = sim.spawn(started_host.recover_from_crash())
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, RejuvenationError)

    def test_recovery_restores_service(self, sim, started_host):
        t0 = sim.now
        started_host.crash("test")
        duration = sim.run(sim.spawn(started_host.recover_from_crash()))
        assert started_host.vmm.state is VmmState.RUNNING
        assert started_host.machine.reset_count == 1
        for name in ("vm0", "vm1"):
            assert started_host.guest(name).state.value == "running"
        intervals = extract_downtimes(sim.trace, since=t0)
        assert all(i.closed for i in intervals)
        # Unplanned recovery costs at least a full cold reboot.
        assert duration > 90

    def test_crash_loses_guest_state(self, sim, started_host):
        guest = started_host.guest("vm0")
        guest.page_cache.insert("/hot", mib(1))
        started_host.crash("test")
        sim.run(sim.spawn(started_host.recover_from_crash()))
        fresh = started_host.guest("vm0")
        assert fresh is not guest
        assert fresh.page_cache.used_bytes == 0


class TestCrashEvent:
    def test_crash_fires_only_the_crashed_hosts_waiter(self, sim):
        a = build_started_host(sim, n_vms=1, name="a")
        b = build_started_host(sim, n_vms=1, name="b")
        waiter_a, waiter_b = a.vmm_crashed(), b.vmm_crashed()
        crash_at = sim.now + 5
        sim.call_at(crash_at, lambda: a.crash("test"))
        assert sim.run(sim.any_of([waiter_a, waiter_b])) == {waiter_a: None}
        assert sim.now == crash_at
        assert not waiter_b.triggered
        assert b.vmm.state is VmmState.RUNNING

    def test_waiter_asked_mid_reboot_fires_at_next_generations_crash(
        self, sim, started_host
    ):
        old = started_host.vmm
        sim.spawn(started_host.reboot("cold"))
        for _ in range(10_000):
            if old.state is VmmState.DEAD:
                break
            sim.step()
        assert old.state is VmmState.DEAD
        waiter = started_host.vmm_crashed()
        sim.run(started_host.reboot_finished())
        assert started_host.generation == 2 and not waiter.triggered
        crash_at = sim.now + 5
        sim.call_at(crash_at, lambda: started_host.crash("test"))
        sim.run(waiter)
        assert sim.now == crash_at
        assert started_host.vmm.state is VmmState.CRASHED


class TestCrasher:
    def test_validation(self, sim, started_host):
        with pytest.raises(ConfigError):
            HeapExhaustionCrasher(started_host, leak_bytes_per_hour=0)
        with pytest.raises(ConfigError):
            HeapExhaustionCrasher(started_host, 100, tick_s=0)

    def test_leak_eventually_crashes(self, sim, started_host):
        crasher = HeapExhaustionCrasher(
            started_host, leak_bytes_per_hour=4 * MiB, tick_s=HOUR
        )
        sim.spawn(crasher.run(sim.now + 10 * HOUR))
        sim.run(until=sim.now + 10 * HOUR)
        assert len(crasher.crashes) == 1
        assert started_host.vmm.state is VmmState.CRASHED

    def test_slow_leak_never_crashes_within_horizon(self, sim, started_host):
        crasher = HeapExhaustionCrasher(
            started_host, leak_bytes_per_hour=1024, tick_s=HOUR
        )
        sim.spawn(crasher.run(sim.now + 24 * HOUR))
        sim.run(until=sim.now + 24 * HOUR)
        assert crasher.crashes == []


class TestWatchdog:
    def test_validation(self, sim, started_host):
        with pytest.raises(ConfigError):
            CrashWatchdog(started_host, detection_timeout_s=-1)
        with pytest.raises(ConfigError):
            CrashWatchdog(started_host, poll_interval_s=0)

    def test_detects_and_recovers(self, sim, started_host):
        watchdog = CrashWatchdog(
            started_host, detection_timeout_s=60, poll_interval_s=5
        )
        sim.spawn(watchdog.run(sim.now + HOUR))
        crash_at = sim.now + 100
        sim.call_at(crash_at, lambda: started_host.crash("injected"))
        sim.run(until=sim.now + HOUR)
        assert len(watchdog.recoveries) == 1
        detected, finished = watchdog.recoveries[0]
        assert detected >= crash_at + 60  # detection delay honoured
        assert started_host.vmm.state is VmmState.RUNNING

    def test_detection_delay_extends_outage(self, sim, started_host):
        """The reactive penalty: downtime = detection + recovery."""
        watchdog = CrashWatchdog(
            started_host, detection_timeout_s=120, poll_interval_s=5
        )
        sim.spawn(watchdog.run(sim.now + HOUR))
        t0 = sim.now
        sim.call_at(sim.now + 10, lambda: started_host.crash("injected"))
        sim.run(until=sim.now + HOUR)
        intervals = [
            i for i in extract_downtimes(sim.trace, since=t0) if i.closed
        ]
        assert intervals
        assert max(i.duration for i in intervals) > 120 + 90

    def test_idle_watchdog_does_nothing(self, sim, started_host):
        watchdog = CrashWatchdog(started_host)
        sim.spawn(watchdog.run(sim.now + HOUR))
        sim.run(until=sim.now + HOUR)
        assert watchdog.recoveries == []
        assert started_host.generation == 1


class TestExtProactiveExperiment:
    def test_shape(self):
        from repro.experiments import run_experiment

        result = run_experiment("EXT-PROACTIVE")
        assert result.shape_reproduced
        assert result.data["reactive"]["crashes"] >= 3
        assert result.data["proactive"]["crashes"] == 0
