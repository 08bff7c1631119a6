"""The open-loop triggers: the §3.2 schedule and the §6 campaigns.

Both hand their actions to the one :class:`~repro.control.PlanExecutor`,
so every test reads what happened from its audit.  The last class runs
each trigger beside the closed loop: the trigger waits out the loop's
reboots, and the loop's reboots are refused while the trigger holds the
host.
"""

import pytest

from repro.analysis.obs import span_records
from repro.cluster import Cluster, LoadBalancer, live_migrate
from repro.config import small_testbed
from repro.control import ControlConfig, PlanExecutor, campaign, periodic
from repro.errors import ClusterError, ControlError, GuestError, MigrationError
from repro.scenario.runner import run_scenario
from repro.scenario.spec import (
    FaultSpec,
    HostSpec,
    MaintenanceSpec,
    ScenarioSpec,
    VMSpec,
)
from repro.units import DAY, HOUR


def schedule(sim, host, strategy, os_interval_s, vmm_interval_s, horizon):
    """Run ``host``'s periodic schedule for ``horizon`` seconds."""
    executor = PlanExecutor(sim, {host.name: host})
    sim.run(
        sim.spawn(
            periodic(
                executor, host, strategy, os_interval_s, vmm_interval_s,
                until=sim.now + horizon,
            )
        )
    )
    return executor


def applied(executor, event):
    """Applied audit entries of one event kind: ``os`` or ``vmm``."""
    return [
        entry
        for entry in executor.audit
        if entry["outcome"] == "applied"
        and (entry["action"] == "rejuvenate-os") == (event == "os")
    ]


def started_cluster(sim, size=2, spare=False, services=("ssh",)):
    cluster = Cluster(
        sim, size=size, vms_per_host=1, services=services,
        profile=small_testbed(), spare=spare,
    )
    sim.run(sim.spawn(cluster.start()))
    return cluster


def cluster_executor(cluster, migrate=live_migrate):
    """An executor over every host and the spare, migrating with
    ``migrate(source_host, target_host, vm)``."""
    hosts = {host.name: host for host in cluster.hosts}
    if cluster.spare is not None:
        hosts[cluster.spare.name] = cluster.spare

    def migrate_by_name(source, target, vm):
        yield from migrate(hosts[source], hosts[target], vm)

    return PlanExecutor(cluster.sim, hosts, migrate=migrate_by_name)


def run_pass(cluster, executor, strategy, **kwargs):
    cluster.sim.run(
        cluster.sim.spawn(campaign(executor, cluster.hosts, strategy, **kwargs))
    )


class FlakyHost:
    """A host whose first ``failures`` guest reboots raise."""

    def __init__(self, sim, failures=1):
        self.sim = sim
        self.name = "h0"
        self.vm_specs = {"vm0": None}
        self.rebooting = False
        self.failures = failures

    def reboot_guest(self, vm):
        if self.failures:
            self.failures -= 1
            raise GuestError(f"{vm}: VMM crashed under it")
        yield self.sim.timeout(10.0)


class TestPeriodic:
    def test_validation(self, sim, started_host):
        executor = PlanExecutor(sim, {started_host.name: started_host})
        with pytest.raises(ControlError):
            periodic(executor, started_host, "warm", 0, DAY, until=DAY)
        with pytest.raises(ControlError, match="not hosts of this executor"):
            periodic(PlanExecutor(sim, {}), started_host, "warm", DAY, DAY, DAY)

    def test_os_rejuvenations_happen_on_schedule(self, sim, started_host):
        executor = schedule(sim, started_host, "warm", DAY, 100 * DAY, 3.5 * DAY)
        # 2 VMs x 3 days.
        assert len(applied(executor, "os")) == 6
        assert applied(executor, "vmm") == []

    def test_vmm_rejuvenation_happens(self, sim, started_host):
        executor = schedule(sim, started_host, "warm", 10 * DAY, 2 * DAY, 5 * DAY)
        assert len(applied(executor, "vmm")) == 2
        assert started_host.generation == 3  # two warm reboots

    def test_cold_vmm_rejuvenation_resets_os_clocks(self, sim, started_host):
        executor = schedule(sim, started_host, "cold", 3 * DAY, 4 * DAY, 8 * DAY)
        os_days = sorted(e["time"] / DAY for e in applied(executor, "os"))
        # OS at day 3; VMM at day 4 resets; next OS at day 7 (not 6).
        assert any(abs(d - 3) < 0.2 for d in os_days)
        assert not any(abs(d - 6) < 0.2 for d in os_days)
        assert any(abs(d - 7) < 0.2 for d in os_days)

    def test_warm_vmm_rejuvenation_keeps_os_clocks(self, sim, started_host):
        executor = schedule(sim, started_host, "warm", 3 * DAY, 4 * DAY, 7 * DAY)
        os_days = sorted(e["time"] / DAY for e in applied(executor, "os"))
        assert any(abs(d - 6) < 0.2 for d in os_days)  # cadence kept

    def test_guests_alive_after_policy_run(self, sim, started_host):
        schedule(sim, started_host, "warm", DAY, 2 * DAY, 4 * DAY)
        for name in ("vm0", "vm1"):
            assert started_host.guest(name).state.value == "running"

    def test_waits_out_a_reboot_in_flight(self, sim, started_host):
        ended = []

        def reboot():
            yield from started_host.reboot("warm")
            ended.append(sim.now)

        start = sim.now
        sim.spawn(reboot())
        # Both guests fall due 10 s in, mid-reboot: they run late, in
        # (due time, name) order, rather than never.
        executor = schedule(sim, started_host, "warm", 10.0, DAY, 15.0)
        assert [(e["vm"], e["outcome"]) for e in executor.audit] == [
            ("vm0", "applied"), ("vm1", "applied"),
        ]
        assert executor.audit[0]["time"] > ended[0] > start + 10.0
        assert started_host.generation == 2

    def test_failed_action_waits_for_the_watchdog_and_restarts_clocks(
        self, sim
    ):
        host = FlakyHost(sim)
        executor = schedule(sim, host, "warm", 100.0, 10 * DAY, 500.0)
        # Fails at 100 s; 60 s of grace restarts the clocks at 160 s, so
        # the next reboots start at 260, 360 and 460 s (10 s each).
        assert [(e["time"], e["outcome"]) for e in executor.audit] == [
            (100.0, "failed"),
            (270.0, "applied"),
            (370.0, "applied"),
            (470.0, "applied"),
        ]
        assert executor.failed == 1


class TestRollingCampaign:
    def test_all_hosts_rebooted(self, sim):
        cluster = started_cluster(sim, size=3)
        executor = cluster_executor(cluster)
        run_pass(cluster, executor, "warm", settle_s=1)
        assert [e["target"] for e in executor.audit] == [
            "host0", "host1", "host2",
        ]
        assert {e["outcome"] for e in executor.audit} == {"applied"}
        assert [e["cycle"] for e in executor.audit] == [0, 1, 2]
        for host in cluster.hosts:
            assert host.generation == 2

    def test_sequential_not_overlapping(self, sim):
        cluster = started_cluster(sim, size=2)
        run_pass(cluster, cluster_executor(cluster), "warm", settle_s=0)
        first, second = [
            span for span in span_records(sim.trace) if span["name"] == "reboot"
        ]
        assert (first["actor"], second["actor"]) == ("host0", "host1")
        assert second["start"] >= first["end"]

    def test_service_continuity_under_warm_rolling(self, sim):
        """At most one replica is ever down: the LB can always dispatch."""
        cluster = started_cluster(sim, size=2)
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        failures = []

        def prober(sim):
            while True:
                try:
                    lb.pick()
                except ClusterError:
                    failures.append(sim.now)
                yield sim.timeout(2.0)

        probe = sim.spawn(prober(sim))
        run_pass(cluster, cluster_executor(cluster), "warm", settle_s=2)
        probe.kill()
        assert failures == []

    def test_validation(self, sim):
        cluster = started_cluster(sim)
        executor = cluster_executor(cluster)
        with pytest.raises(ControlError):
            campaign(executor, cluster.hosts, "warm", settle_s=-1)
        with pytest.raises(ControlError, match="unknown reboot strategy"):
            campaign(executor, cluster.hosts, "lukewarm")

    def test_waits_out_a_reboot_in_flight(self, sim):
        cluster = started_cluster(sim, size=2)
        executor = cluster_executor(cluster)
        sim.spawn(cluster.hosts[0].reboot("warm"))
        run_pass(cluster, executor, "warm")
        assert [e["outcome"] for e in executor.audit] == ["applied", "applied"]
        assert [host.generation for host in cluster.hosts] == [3, 2]


class TestMigrationCampaign:
    def test_requires_a_known_spare(self, sim):
        cluster = started_cluster(sim, spare=True)
        executor = PlanExecutor(sim, {h.name: h for h in cluster.hosts})
        with pytest.raises(ControlError, match="not hosts of this executor"):
            campaign(executor, cluster.hosts, "cold", spare=cluster.spare)

    def test_vms_return_home(self, sim):
        cluster = started_cluster(sim, size=2, spare=True)
        executor = cluster_executor(cluster)
        run_pass(cluster, executor, "cold", spare=cluster.spare)
        for host in cluster.hosts:
            assert host.generation == 2  # rebooted once
            vm = f"{host.name}-vm0"
            assert host.guest(vm).state.value == "running"
        assert cluster.spare.require_vmm().domus == []
        assert [e["action"] for e in executor.audit] == [
            "migrate", "rejuvenate-cold", "migrate",
        ] * 2

    def test_guest_state_survives_whole_cycle(self, sim):
        cluster = started_cluster(sim, size=1, spare=True)
        guest = cluster.host("host0").guest("host0-vm0")
        guest.page_cache.insert("/hot", 4096)
        run_pass(cluster, cluster_executor(cluster), "cold", spare=cluster.spare)
        after = cluster.host("host0").guest("host0-vm0")
        assert after is guest  # same image travelled out and back
        assert after.page_cache.cached_bytes("/hot") == 4096

    def test_failed_evacuation_defers_the_reboot(self, sim):
        cluster = started_cluster(sim, size=2, spare=True)

        def planted(source, target, vm):
            if vm == "host0-vm0":
                raise MigrationError(f"{vm}: planted failure")
            yield from live_migrate(source, target, vm)

        executor = cluster_executor(cluster, migrate=planted)
        run_pass(cluster, executor, "cold", spare=cluster.spare)
        host0 = [e for e in executor.audit if e["cycle"] == 0]
        assert [(e["action"], e["outcome"]) for e in host0] == [
            ("migrate", "failed"), ("rejuvenate-cold", "deferred"),
        ]
        assert host0[1]["reason"] == "evacuation failed"
        assert [host.generation for host in cluster.hosts] == [1, 2]
        assert cluster.host("host0").guest("host0-vm0").state.value == "running"


def _shared_host_spec() -> ScenarioSpec:
    """One 2-VM host, a 1 MiB/h heap leak, a warm schedule (OS hourly,
    VMM every 2 h) and an aging policy with no cooldown and no SLA floor:
    the policy wants to reboot mid-schedule."""
    return ScenarioSpec(
        name="schedule-and-policy",
        hosts=(HostSpec(vms=(VMSpec(count=2),)),),
        faults=FaultSpec(heap_leak_kib_per_hour=1024.0),
        maintenance=MaintenanceSpec(
            kind="periodic", strategy="warm",
            os_interval_s=HOUR, vmm_interval_s=2 * HOUR,
        ),
        policy=ControlConfig(
            aging_threshold=0.06, aging_rearm=0.01, cooldown_s=0.0,
            min_hosts_up=0,
        ),
        observe_s=6 * HOUR,
    )


def _shared_cluster_spec() -> ScenarioSpec:
    """A warm rolling campaign over three hosts while a policy that
    flags any allocated heap as aging reboots hosts of its own."""
    return ScenarioSpec(
        name="campaign-and-policy",
        hosts=(HostSpec(count=3, vms=(VMSpec(),)),),
        maintenance=MaintenanceSpec(kind="rolling", strategy="warm", settle_s=5.0),
        policy=ControlConfig(
            aging_threshold=0.0001, aging_rearm=0.0, cooldown_s=0.0,
            min_hosts_up=0, interval_s=10.0,
        ),
        warmup_s=20.0,
        observe_s=400.0,
    )


class TestOneEngine:
    def test_periodic_schedule_and_policy_share_one_host(self):
        report = run_scenario(_shared_host_spec())
        # The policy's reboots that found the schedule holding the host
        # were refused before touching it ...
        assert report.policy["rejuvenations"] == 3
        assert report.policy["failed"] == 4
        refused = [e for e in report.policy["audit"] if e["outcome"] == "failed"]
        assert len(refused) == 4
        # ... and the schedule waited the policy's reboots out, missing
        # nothing: 6 h of hourly OS rejuvenations for 2 VMs, 2 VMM ones.
        assert report.maintenance["os_rejuvenations"] == 10
        assert report.maintenance["vmm_rejuvenations"] == 2
        assert report.maintenance["failed"] == 0

    def test_rolling_campaign_and_policy_share_a_cluster(self):
        # The campaign reaches a host the loop is rebooting and waits it
        # out, and each trigger's action spans stay on their own track.
        report = run_scenario(_shared_cluster_spec())
        assert report.maintenance["hosts_rejuvenated"] == 3
        assert report.maintenance["failed"] == 0
        assert report.policy["rejuvenations"] == 6
        assert report.policy["failed"] == 1  # refused: the campaign held it
