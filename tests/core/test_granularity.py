"""Tests for microreboot and checkpointed OS rejuvenation (§7 ladder)."""

import pytest

from repro.analysis.downtime import extract_downtimes
from repro.errors import ServiceError
from repro.guest.services import ServiceState

from tests.conftest import build_started_host


@pytest.fixture()
def jboss_host(sim):
    return build_started_host(sim, n_vms=2, services=("jboss",))


class TestMicroreboot:
    def test_restarts_only_the_target_service(self, sim, jboss_host):
        other = jboss_host.guest("vm1").service("jboss")
        before_other = other.start_count
        sim.run(sim.spawn(jboss_host.restart_service("vm0", "jboss")))
        assert jboss_host.guest("vm0").service("jboss").start_count == 2
        assert other.start_count == before_other
        assert jboss_host.guest("vm0").state.value == "running"

    def test_downtime_is_service_start_cost(self, sim, jboss_host):
        t0 = sim.now
        sim.run(sim.spawn(jboss_host.restart_service("vm0", "jboss")))
        intervals = extract_downtimes(sim.trace, since=t0, domain="vm0")
        assert len(intervals) == 1
        # JBoss start: ~350 MiB read + 12.5 CPU-s ~= 16-17 s.
        assert 14 <= intervals[0].duration <= 19
        assert intervals[0].down_reason == "microreboot"

    def test_vmm_untouched(self, sim, jboss_host):
        generation = jboss_host.generation
        sim.run(sim.spawn(jboss_host.restart_service("vm0", "jboss")))
        assert jboss_host.generation == generation


class TestCheckpointedOsReboot:
    def test_application_state_survives(self, sim, jboss_host):
        service = jboss_host.guest("vm0").service("jboss")
        sim.run(sim.spawn(service.handle_request()))
        sim.run(sim.spawn(service.handle_request()))
        assert service.requests_served == 2
        sim.run(
            sim.spawn(jboss_host.reboot_guest("vm0", checkpoint_processes=True))
        )
        restored = jboss_host.guest("vm0").service("jboss")
        assert restored is not service  # new process object
        assert restored.requests_served == 2  # application state restored
        assert restored.restored_from_checkpoint
        assert restored.is_up

    def test_faster_than_plain_os_reboot(self, sim):
        def rejuvenation_downtime(checkpoint):
            s = type(sim)()
            host = build_started_host(s, n_vms=1, services=("jboss",))
            t0 = s.now
            s.run(
                s.spawn(
                    host.reboot_guest("vm0", checkpoint_processes=checkpoint)
                )
            )
            intervals = extract_downtimes(s.trace, since=t0, domain="vm0")
            return max(i.duration for i in intervals if i.closed)

        assert rejuvenation_downtime(True) < rejuvenation_downtime(False) - 5

    def test_kernel_is_actually_rejuvenated(self, sim, jboss_host):
        """The OS is fresh even though processes are restored."""
        old_guest = jboss_host.guest("vm0")
        old_guest.page_cache.insert("/kernel-state", 4096)
        sim.run(
            sim.spawn(jboss_host.reboot_guest("vm0", checkpoint_processes=True))
        )
        new_guest = jboss_host.guest("vm0")
        assert new_guest is not old_guest
        assert new_guest.page_cache.cached_bytes("/kernel-state") == 0

    def test_checkpoint_requires_running_service(self, sim, jboss_host):
        service = jboss_host.guest("vm0").service("jboss")
        service.mark_stopped("test")
        with pytest.raises(ServiceError):
            service.checkpoint()

    def test_restore_rejects_wrong_kind(self, sim, jboss_host):
        guest = jboss_host.guest("vm0")
        fresh = type(guest.service("jboss"))(jboss_host.profile.services)
        assert fresh.state is ServiceState.STOPPED
        proc = sim.spawn(
            fresh.start_from_checkpoint(guest, {"kind": "apache"})
        )
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, ServiceError)

    def test_stopped_services_not_checkpointed(self, sim, jboss_host):
        service = jboss_host.guest("vm0").service("jboss")
        service.mark_stopped("test")
        sim.run(
            sim.spawn(jboss_host.reboot_guest("vm0", checkpoint_processes=True))
        )
        # Nothing was up, so the path degrades to a plain cold boot.
        restored = jboss_host.guest("vm0").service("jboss")
        assert not restored.restored_from_checkpoint
        assert restored.is_up  # cold-started by the fallback


class TestGranularityExperiment:
    def test_shape(self):
        from repro.experiments import run_experiment

        result = run_experiment("EXT-GRANULARITY")
        assert result.shape_reproduced
        ladder = result.data["downtimes"]
        assert ladder["cold-vmm"] > ladder["warm-vmm"] > ladder["microreboot"]
