"""End-to-end scenario runs: the registry and the runner."""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.scenario import (
    FaultSpec,
    HostSpec,
    MaintenanceSpec,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
    registry,
    run_scenario,
)


def _quick_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="quick",
        hosts=(HostSpec(vms=(VMSpec(count=2),)),),
        workloads=(
            WorkloadSpec(kind="prober", service="ssh"),
            WorkloadSpec(kind="fileread", vm="vm00", file_kib=256.0),
        ),
        maintenance=MaintenanceSpec(kind="reboot", strategy="warm"),
        warmup_s=2.0,
        # Sized past the ~56 s warm reboot so the probers see the service
        # come back and close their outage intervals.
        observe_s=90.0,
    )


class TestRegistry:
    def test_builtins_are_listed(self):
        assert "mixed-fleet-rolling" in registry.names()
        assert "probed-warm-reboot" in registry.names()

    def test_unknown_name_reports_known_names(self):
        with pytest.raises(ScenarioError, match="known:"):
            registry.get("no-such-scenario")

    def test_duplicate_registration_is_rejected(self):
        spec = registry.get("probed-warm-reboot")
        with pytest.raises(ScenarioError, match="already registered"):
            registry.register(spec)
        assert registry.register(spec, replace=True) is spec

    def test_resolve_prefers_registry_then_falls_back_to_toml(self, tmp_path):
        assert registry.resolve("probed-warm-reboot").host_count == 1
        path = tmp_path / "own.toml"
        path.write_text('name = "own"\n', encoding="utf-8")
        assert registry.resolve(str(path)).name == "own"
        with pytest.raises(ScenarioError, match="no such spec file"):
            registry.resolve(str(tmp_path / "gone.toml"))


class TestRunScenario:
    def test_warm_reboot_run_reports_probed_downtime(self):
        report = run_scenario(_quick_spec())
        assert report.hosts == 1 and report.vms == 2
        # warmup + observe, plus the fileread measurement pair the report
        # times at the very end of the run.
        assert 2.0 + 90.0 <= report.duration_s < 2.0 + 91.0
        assert report.maintenance["kind"] == "reboot"
        assert report.maintenance["reboot_total_s"] > 0
        assert report.maintenance["vmm_reboot_s"] > 0
        by_kind = {w.kind: w for w in report.workloads}
        # The warm reboot takes the host down once; the prober sees it.
        assert by_kind["prober"].metrics["outages"] >= 1
        assert by_kind["prober"].metrics["total_downtime_s"] > 0
        assert by_kind["fileread"].metrics["first_read_bps"] > 0
        assert report.render().startswith("scenario quick:")

    def test_mixed_fleet_rolling_builtin_runs_end_to_end(self):
        # The tentpole demonstration: heterogeneous memory under rolling
        # maintenance, a setup no experiment module ever hard-coded.
        report = run_scenario(registry.get("mixed-fleet-rolling"))
        assert report.hosts == 3 and report.vms == 6
        assert report.maintenance["hosts_rejuvenated"] == 3
        assert report.maintenance["maintenance_s"] > 0
        assert len(report.workloads) == 6
        assert all(
            w.metrics["requests"] > 0
            for w in report.workloads
            if w.kind == "httperf"
        )

    def test_periodic_maintenance_preempts_heap_exhaustion(self):
        # aging-vs-periodic in miniature: 1 MiB/h against the 16 MiB heap
        # would crash at ~16 h, but the 12 h warm rejuvenation resets it.
        spec = ScenarioSpec(
            name="aging-preempted",
            faults=FaultSpec(
                preset="paper-bugs", heap_leak_kib_per_hour=1024.0
            ),
            maintenance=MaintenanceSpec(
                kind="periodic",
                strategy="warm",
                os_interval_s=6 * 3600.0,
                vmm_interval_s=12 * 3600.0,
            ),
            observe_s=2 * 86400.0,
        )
        report = run_scenario(spec)
        assert report.maintenance["vmm_rejuvenations"] >= 3
        assert report.maintenance["os_rejuvenations"] >= 1
        assert report.faults == {"crashes": 0, "recoveries": 0}

    def test_crash_mid_schedule_is_recovered_not_fatal(self):
        # A leak the schedule cannot outrun: the VMM dies mid-schedule,
        # the watchdog recovers it, and the run completes with a report
        # instead of an unhandled VMMCrashed.
        spec = ScenarioSpec(
            name="aging-crashing",
            faults=FaultSpec(heap_leak_kib_per_hour=8 * 1024.0),
            maintenance=MaintenanceSpec(
                kind="periodic",
                strategy="warm",
                os_interval_s=3600.0,
                vmm_interval_s=12 * 3600.0,
            ),
            observe_s=86400.0,
        )
        report = run_scenario(spec)
        assert report.faults["crashes"] >= 1
        assert report.faults["recoveries"] >= 1
        # Rejuvenations that found the VMM dead are audited and counted.
        assert report.maintenance["failed"] >= 1

    def test_report_round_trips_to_plain_data(self):
        data = run_scenario(_quick_spec()).to_dict()
        assert data["name"] == "quick"
        assert all(isinstance(w["metrics"], dict) for w in data["workloads"])
