"""Fleet-tier telemetry: the bit-identity gate and the SLO attachment.

The tentpole contract extends the fleet tier's determinism pin to the
telemetry bundle itself: the merged bundle (and therefore every export
derived from it) is *bit-identical* whether the shards ran serially,
fanned out across worker processes, or were replayed from the
content-addressed cache.
"""

import json

import pytest

from repro.analysis.obs import (
    capture_simulators,
    reboot_critical_path,
    span_records,
)
from repro.experiments.parallel import SweepStats
from repro.fleet import FleetSpec, run_fleet
from repro.obs import TelemetryBundle

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    return tmp_path / "cells"


def _fleet(**overrides) -> FleetSpec:
    """Two hosts over two shards with an SLO attached (which implies
    telemetry capture, like ``[policy]`` implies metrics)."""
    data = {
        "name": "obsfleet",
        "shards": 2,
        "hosts": [{"count": 2, "vms": [{"count": 1, "services": ["apache"]}]}],
        "workloads": [
            {
                "kind": "httperf",
                "service": "apache",
                "mode": "fluid",
                "sessions": 4,
                "files": 4,
                "file_kib": 512.0,
            }
        ],
        "strategy": "warm",
        "hosts_per_epoch": 2,
        "epoch_s": 60.0,
        "warmup_s": 60.0,
        "observe_s": 120.0,
        "slo": {"availability": 0.1, "downtime_budget_s": 500.0},
    }
    data.update(overrides)
    return FleetSpec.from_dict(data)


class TestTelemetryIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_fleet(_fleet(), jobs=1, use_cache=False)

    def test_serial_equals_sharded(self, serial):
        sharded = run_fleet(_fleet(), jobs=2, use_cache=False)
        assert json.dumps(serial.telemetry) == json.dumps(sharded.telemetry)
        assert serial.slo == sharded.slo

    def test_serial_equals_cached_replay(self, serial, cache_dir):
        stats = SweepStats()
        first = run_fleet(_fleet(), jobs=2, use_cache=True, stats=stats)
        assert stats.cache_hits == 0 and stats.executed == 2
        replay_stats = SweepStats()
        replay = run_fleet(_fleet(), jobs=2, use_cache=True,
                           stats=replay_stats)
        assert replay_stats.executed == 0 and replay_stats.cache_hits == 2
        assert (
            json.dumps(serial.telemetry)
            == json.dumps(first.telemetry)
            == json.dumps(replay.telemetry)
        )

    def test_exports_derive_identically(self, serial):
        """Same bundle in, same documents out — the exports add no
        nondeterminism on top of the bundle identity."""
        bundle = TelemetryBundle.from_dict(serial.telemetry)
        again = TelemetryBundle.from_dict(serial.telemetry)
        assert json.dumps(bundle.to_perfetto()) == json.dumps(
            again.to_perfetto()
        )
        assert bundle.to_prometheus() == again.to_prometheus()

    def test_bundle_carries_fleet_provenance(self, serial):
        bundle = TelemetryBundle.from_dict(serial.telemetry)
        assert bundle.fleet == "obsfleet"
        assert bundle.host_shard() == {"host0": 0, "host1": 1}
        # The published SLI gauges reproduce the report rows exactly.
        rows = {row["host"]: row for row in bundle.sli_rows()}
        for report_row in serial.rows:
            row = rows[report_row["host"]]
            assert row["availability"] == report_row["availability"]
            assert row["downtime_s"] == report_row["downtime_s"]

    def test_slo_report_travels_in_the_fleet_report(self, serial):
        assert serial.slo["passed"] is True
        kinds = [o["kind"] for o in serial.slo["objectives"]]
        assert kinds == ["availability", "downtime"]
        assert serial.slo["burn"]  # the burn series accompanies verdicts
        assert "slo PASS" in serial.render()


class TestCriticalPathFromTheBundle:
    def test_bundle_shard_answers_like_the_live_simulator(self):
        """The critical path is a query over span records, so a bundle
        shard (plain data that crossed the cell protocol) answers it
        exactly as the shard's live simulator does."""
        with capture_simulators() as sims:
            report = run_fleet(_fleet(), jobs=1, use_cache=False)
        bundle = TelemetryBundle.from_dict(
            json.loads(json.dumps(report.telemetry))
        )
        assert len(sims) == len(bundle.shards) == 2
        for shard, sim in zip(bundle.shards, sims):
            live = span_records(sim.trace)
            for host in shard.hosts:
                path = reboot_critical_path(shard.spans, host=host)
                assert path == reboot_critical_path(live, host=host)
                assert path.strategy == "warm" and path.entries
                assert path.total == pytest.approx(path.phase_sum, abs=1e-6)


class TestTelemetrySwitch:
    def test_no_slo_no_telemetry_key_means_no_bundle(self):
        spec = _fleet(slo=None)
        assert spec.telemetry_enabled is False
        report = run_fleet(spec, jobs=1, use_cache=False)
        assert report.telemetry == {} and report.slo == {}

    def test_telemetry_flag_without_slo_still_bundles(self):
        spec = _fleet(slo=None, telemetry=True)
        assert spec.telemetry_enabled is True
        report = run_fleet(spec, jobs=1, use_cache=False)
        bundle = TelemetryBundle.from_dict(report.telemetry)
        assert len(bundle.shards) == 2
        assert report.slo == {}  # no spec, no verdict
