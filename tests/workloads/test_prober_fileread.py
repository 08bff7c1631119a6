"""Unit tests for the ping prober and file-read benchmark."""

import pytest

from repro.errors import ReproError
from repro.units import mib
from repro.workloads import (
    PingProber,
    degradation,
    first_and_second_read,
    timed_read,
)


class TestPingProber:
    def test_invalid_interval(self, sim, started_host):
        with pytest.raises(ReproError):
            PingProber(sim, lambda: None, interval_s=0)

    def test_no_outage_when_service_stays_up(self, sim, started_host):
        prober = PingProber(
            sim, lambda: started_host.guest("vm0").service("sshd")
        ).start()
        sim.run(until=sim.now + 20)
        prober.stop()
        assert prober.outages == []
        assert prober.total_downtime() == 0.0

    def test_outage_measured_within_quantization(self, sim, started_host):
        guest = started_host.guest("vm0")
        prober = PingProber(
            sim,
            lambda: started_host.guest("vm0").service("sshd"),
            interval_s=0.5,
        ).start()

        def outage(sim):
            yield sim.timeout(5)
            yield sim.spawn(guest.run_suspend_handler())
            yield sim.timeout(20)
            yield sim.spawn(guest.run_resume_handler())

        sim.spawn(outage(sim))
        sim.run(until=sim.now + 60)
        prober.stop()
        assert len(prober.outages) == 1
        assert prober.longest_outage() == pytest.approx(20, abs=1.5)

    def test_prober_agrees_with_trace_measurement(self, sim, started_host):
        """The client-side measurement (paper's method) and the exact
        trace-based one must agree to within probe quantization."""
        from repro.analysis.downtime import extract_downtimes

        guest = started_host.guest("vm0")
        prober = PingProber(
            sim,
            lambda: started_host.guest("vm0").service("sshd"),
            interval_s=0.25,
        ).start()
        t0 = sim.now

        def outage(sim):
            yield sim.timeout(3)
            yield sim.spawn(guest.run_suspend_handler())
            yield sim.timeout(12)
            yield sim.spawn(guest.run_resume_handler())

        sim.spawn(outage(sim))
        sim.run(until=sim.now + 30)
        prober.stop()
        exact = extract_downtimes(sim.trace, since=t0, domain="vm0")
        assert len(exact) == 1
        assert prober.longest_outage() == pytest.approx(
            exact[0].duration, abs=0.6
        )

    def test_missing_domain_counts_as_down(self, sim, started_host):
        def lookup():
            raise ReproError("domain mid-reboot")

        prober = PingProber(sim, lookup).start()
        sim.run(until=sim.now + 2)
        assert prober.currently_down
        prober.stop()

    def test_double_start_rejected(self, sim, started_host):
        prober = PingProber(
            sim, lambda: started_host.guest("vm0").service("sshd")
        ).start()
        with pytest.raises(ReproError):
            prober.start()
        prober.stop()


class TestFileRead:
    def test_timed_read_throughput(self, sim, started_host):
        guest = started_host.guest("vm0")
        guest.filesystem.create("/f", mib(100))
        measurement = sim.run(sim.spawn(timed_read(guest, "/f")))
        assert measurement.nbytes == mib(100)
        # Disk-bound: ~85-90 MiB/s.
        assert mib(75) <= measurement.throughput <= mib(95)

    def test_first_vs_second_access(self, sim, started_host):
        guest = started_host.guest("vm0")
        guest.filesystem.create("/f", mib(100))
        first, second = sim.run(
            sim.spawn(first_and_second_read(guest, "/f"))
        )
        assert second.throughput > 8 * first.throughput  # cache effect

    def test_degradation_helper(self):
        assert degradation(100.0, 9.0) == pytest.approx(0.91)
        assert degradation(100.0, 100.0) == 0.0
        with pytest.raises(ReproError):
            degradation(0.0, 5.0)
