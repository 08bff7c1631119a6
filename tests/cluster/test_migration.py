"""Unit tests for the live-migration model."""

import pytest

from repro.analysis.downtime import extract_downtimes
from repro.cluster import MigrationSpec, live_migrate
from repro.config import small_testbed
from repro.core import Host, VMSpec
from repro.errors import MigrationError
from repro.simkernel import Simulator
from repro.units import gib, mib


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def two_hosts(sim):
    hosts = []
    for name in ("src", "dst"):
        host = Host(sim, profile=small_testbed(), name=name)
        if name == "src":
            host.install_vm(VMSpec("mobile", memory_bytes=gib(1)))
        sim.run(sim.spawn(host.start()))
        hosts.append(host)
    return hosts


class TestMigrationSpec:
    def test_clark_calibration(self):
        """800 MB in ~72 s (the Clark et al. number §6 relies on)."""
        spec = MigrationSpec()
        duration = spec.expected_duration(800 * 1000 * 1000)
        assert duration == pytest.approx(76, rel=0.1)

    def test_total_transfer_includes_dirty_rounds(self):
        spec = MigrationSpec(dirty_ratio=0.5, max_rounds=2)
        assert spec.total_transfer_bytes(1000) == 1000 + 500 + 250

    def test_validation(self):
        with pytest.raises(MigrationError):
            MigrationSpec(rate_bytes_per_s=0)
        with pytest.raises(MigrationError):
            MigrationSpec(dirty_ratio=1.0)
        with pytest.raises(MigrationError):
            MigrationSpec(max_rounds=0)
        with pytest.raises(MigrationError):
            MigrationSpec(source_degradation=0)


class TestLiveMigrate:
    def test_vm_moves_with_state(self, sim, two_hosts):
        src, dst = two_hosts
        guest = src.guest("mobile")
        guest.page_cache.insert("/hot", mib(1))
        sim.run(sim.spawn(live_migrate(src, dst, "mobile")))
        assert "mobile" not in src.require_vmm().domains
        moved = dst.guest("mobile")
        assert moved is guest
        assert moved.page_cache.cached_bytes("/hot") == mib(1)
        assert moved.state.value == "running"
        assert "mobile" in dst.vm_specs and "mobile" not in src.vm_specs

    def test_memory_image_verifiable_after_move(self, sim, two_hosts):
        src, dst = two_hosts
        guest = src.guest("mobile")
        sim.run(sim.spawn(live_migrate(src, dst, "mobile")))
        guest.verify_memory_image()  # sentinels travelled with the image

    def test_duration_tracks_spec(self, sim, two_hosts):
        src, dst = two_hosts
        spec = MigrationSpec()
        expected = spec.expected_duration(gib(1))
        t0 = sim.now
        sim.run(sim.spawn(live_migrate(src, dst, "mobile", spec)))
        # create_domain toolstack cost adds a little on top.
        assert sim.now - t0 == pytest.approx(expected, rel=0.05)

    def test_downtime_is_stop_and_copy_only(self, sim, two_hosts):
        src, dst = two_hosts
        t0 = sim.now
        sim.run(sim.spawn(live_migrate(src, dst, "mobile")))
        intervals = extract_downtimes(sim.trace, since=t0, domain="mobile")
        assert len(intervals) == 1
        # Residue transfer + stop-and-copy + domain create: a few seconds,
        # versus ~100 s for the whole migration.
        assert intervals[0].duration < 20
        assert intervals[0].down_reason == "migration"

    def test_source_nic_degraded_during_migration(self, sim, two_hosts):
        src, dst = two_hosts
        observed = []

        def watcher(sim):
            while True:
                observed.append(src.machine.nic.degradation_factor)
                yield sim.timeout(10)

        probe = sim.spawn(watcher(sim))
        sim.run(sim.spawn(live_migrate(src, dst, "mobile")))
        probe.kill()
        assert min(observed) == pytest.approx(0.88)
        assert src.machine.nic.degradation_factor == 1.0  # restored

    def test_migrating_missing_vm_raises(self, sim, two_hosts):
        src, dst = two_hosts
        proc = sim.spawn(live_migrate(src, dst, "ghost"))
        proc.defuse()
        sim.run()
        assert not proc.ok
