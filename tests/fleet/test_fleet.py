"""Sharded fleet tier: spec geometry, epoch protocol, determinism.

The load-bearing contract: a fleet's merged report is *bit-identical*
whether its shards ran serially in one process, fanned out across
workers, or were replayed from the content-addressed cache — and
whether the fleet was cut into one shard or many.  That holds because
every source of behaviour is a pure function of global host identity
(RNG streams from host names, reboot starts from global host index,
fluid ticks on the absolute grid), never of shard membership.
"""

import json

import pytest

from repro.errors import FleetError, ScenarioError
from repro.experiments.parallel import SweepStats
from repro.fleet import (
    FleetSpec,
    fleet_cells,
    load_fleet_toml,
    merge_shards,
    run_fleet,
    run_fleet_shard,
)
from repro.fleet.cli import main
from repro.obs.cli import _check_fleet_spec

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    return tmp_path / "cells"


def _fleet(**overrides) -> FleetSpec:
    """A small fluid fleet: 4 hosts, 2 per epoch, warm rolling reboots."""
    data = {
        "name": "minifleet",
        "shards": 4,
        "hosts": [{"count": 4, "vms": [{"count": 1, "services": ["apache"]}]}],
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
        "observe_s": 180.0,
    }
    data.update(overrides)
    return FleetSpec.from_dict(data)


def _comparable(report) -> dict:
    out = report.to_dict()
    out.pop("wall_s")  # the only non-deterministic field
    return out


class TestSpec:
    def test_geometry(self):
        spec = _fleet()
        assert spec.host_count == 4
        assert spec.epochs == 2
        assert spec.horizon_s == 240.0
        assert spec.sessions == 16  # 4 sessions x 4 apache VMs

    def test_expanded_hosts_get_global_names(self):
        names = [h.name for h in _fleet().expanded_hosts()]
        assert names == ["host0", "host1", "host2", "host3"]
        assert all(h.count == 1 for h in _fleet().expanded_hosts())

    def test_host_name_collision_rejected(self):
        spec = _fleet(hosts=[
            {"name": "samename", "count": 2,
             "vms": [{"count": 1, "services": ["apache"]}]},
        ])
        with pytest.raises(ScenarioError, match="placeholder"):
            spec.expanded_hosts()

    def test_schedule_is_the_epoch_formula(self):
        spec = _fleet()
        assert spec.schedule() == {
            "host0": 60.0, "host1": 60.0, "host2": 120.0, "host3": 120.0,
        }

    def test_shard_plans_partition_contiguously(self):
        plans = _fleet(shards=3).shard_plans()
        sizes = [len(p["schedule"]) for p in plans]
        assert sizes == [2, 1, 1]  # balanced, extras to the front
        hosts = [
            h["name"] for p in plans for h in p["spec_data"]["hosts"]
        ]
        assert hosts == ["host0", "host1", "host2", "host3"]
        for plan in plans:
            assert plan["spec_data"]["force_cluster"] is True

    def test_more_shards_than_hosts_clamps(self):
        assert len(_fleet(shards=64).shard_plans()) == 4

    def test_roundtrip(self):
        spec = _fleet()
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown"):
            _fleet(frobnicate=1)

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"hosts": []}, "hosts"),
            ({"shards": 0}, "shards"),
            ({"strategy": "blink"}, "strategy"),
            ({"hosts_per_epoch": 0}, "hosts_per_epoch"),
            ({"epoch_s": 0.0}, "epoch_s"),
            ({"warmup_s": 0.0}, "warmup_s"),
            ({"observe_s": 30.0}, "observe_s"),  # shorter than the epochs
        ],
    )
    def test_validation(self, overrides, needle):
        with pytest.raises(ScenarioError, match=needle):
            _fleet(**overrides)


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_fleet(_fleet(), jobs=1)

    def test_serial_equals_sharded(self, serial, cache_dir):
        sharded = run_fleet(_fleet(), jobs=4)
        assert _comparable(serial) == _comparable(sharded)

    def test_serial_equals_cached_replay(self, serial, cache_dir):
        stats = SweepStats()
        first = run_fleet(_fleet(), jobs=2, use_cache=True, stats=stats)
        assert stats.cache_hits == 0 and stats.executed == 4
        replay_stats = SweepStats()
        replay = run_fleet(
            _fleet(), jobs=2, use_cache=True, stats=replay_stats
        )
        assert replay_stats.executed == 0 and replay_stats.cache_hits == 4
        assert _comparable(serial) == _comparable(first) == _comparable(replay)

    def test_sharding_cut_is_invisible(self, serial):
        # One shard vs four: identical rows, not merely close ones.
        whole = run_fleet(_fleet(shards=1), jobs=1)
        assert json.dumps(whole.rows) == json.dumps(serial.rows)
        assert whole.requests == serial.requests
        assert whole.downtime_s == serial.downtime_s

    def test_report_shape(self, serial):
        assert serial.hosts == 4 and serial.vms == 4 and serial.shards == 4
        assert serial.sessions == 16
        assert [row["host"] for row in serial.rows] == [
            "host0", "host1", "host2", "host3",
        ]
        assert serial.requests > 0
        assert serial.overruns == []  # warm reboots fit a 60s epoch
        assert 0.0 < serial.availability < 1.0
        assert "minifleet" in serial.render()


class TestEpochProtocol:
    def test_bringup_overrunning_warmup_is_an_error(self):
        # warmup_s must cover shard bring-up; a 1s budget cannot.
        spec = _fleet(warmup_s=1.0, observe_s=120.0)
        with pytest.raises(FleetError, match="bring-up"):
            run_fleet_shard(spec.shard_plans()[0])

    def test_missing_schedule_entry_is_an_error(self):
        plan = _fleet().shard_plans()[0]
        plan["schedule"] = {}
        with pytest.raises(FleetError, match="schedule"):
            run_fleet_shard(plan)

    def test_epoch_overrun_is_flagged(self):
        # A warm VMM reboot takes ~40s; a 10s epoch cannot contain it.
        spec = _fleet(
            hosts=[{"count": 2, "vms": [{"count": 1, "services": ["apache"]}]}],
            shards=1, hosts_per_epoch=1, epoch_s=10.0, observe_s=120.0,
        )
        report = run_fleet(spec, jobs=1)
        assert report.overruns == ["host0", "host1"]

    def test_policy_and_epoch_reboots_never_overlap(self):
        # The obs self-check fleet's policy reboots any host whose heap
        # sees an allocation, so its rejuvenations collide with epoch
        # slots in both orders; two shards used to crash on the
        # interleaved reboot spans.
        data = _check_fleet_spec().to_dict()
        data.update(
            hosts=[{"count": 4, "vms": [{"count": 1, "services": ["apache"]}]}],
            hosts_per_epoch=2, warmup_s=60.0, observe_s=600.0, shards=2,
        )
        spec = FleetSpec.from_dict(data)
        report = run_fleet(spec, jobs=1)
        reboots, epoch_starts = {}, {}
        for shard in report.telemetry["shards"]:
            for span in shard["spans"]:
                if span["name"] == "reboot":
                    end = span["end"] if span["end"] is not None else float("inf")
                    reboots.setdefault(span["actor"], []).append((span["start"], end))
                elif span["name"] == "fleet.host":
                    epoch_starts[span["actor"]] = span["start"]
        assert sorted(reboots) == ["host0", "host1", "host2", "host3"]
        for intervals in reboots.values():
            intervals.sort()
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert end <= start
        # Both orders happened: a policy reboot refused because an epoch
        # reboot held the host, and an epoch reboot that waited out a
        # policy reboot (so it started after its slot).
        outcomes = {e["outcome"] for e in report.policy["audit"]}
        assert "failed" in outcomes
        slots = spec.schedule()
        assert any(epoch_starts[h] > slots[h] for h in epoch_starts)

    def test_exact_mode_fleet_rows(self):
        spec = _fleet(
            hosts=[{"count": 2, "vms": [{"count": 1, "services": ["apache"]}]}],
            shards=2,
            workloads=[{
                "kind": "httperf", "service": "apache", "mode": "exact",
                "concurrency": 2, "files": 4, "file_kib": 512.0,
            }],
            observe_s=120.0,
        )
        report = run_fleet(spec, jobs=1)
        assert [row["mode"] for row in report.rows] == ["exact", "exact"]
        assert report.requests > 0
        assert report.downtime_s > 0  # the reboot outage, via retry pacing
        assert 0.0 < report.availability < 1.0


class TestMerge:
    def test_aggregates_are_row_sums(self):
        spec = _fleet()
        payloads = [run_fleet_shard(plan) for plan in spec.shard_plans()]
        report = merge_shards(spec, payloads)
        assert report.requests == pytest.approx(
            sum(row["requests"] for row in report.rows)
        )
        assert report.downtime_s == pytest.approx(
            sum(row["downtime_s"] for row in report.rows)
        )
        assert report.bringup_s == max(p["bringup_s"] for p in payloads)

    def test_cells_are_one_per_shard(self):
        spec = _fleet(shards=3)
        cells = fleet_cells(spec)
        assert [cell.key for cell in cells] == [
            ("minifleet", 0), ("minifleet", 1), ("minifleet", 2),
        ]
        assert len({cell.digest(False) for cell in cells}) == 3


class TestCli:
    def _write(self, tmp_path, body):
        path = tmp_path / "fleet.toml"
        path.write_text(body)
        return str(path)

    _GOOD = """
name = "toml-fleet"
shards = 2
hosts_per_epoch = 1
epoch_s = 60.0
warmup_s = 60.0
observe_s = 120.0

[[hosts]]
count = 2

  [[hosts.vms]]
  count = 1
  services = ["apache"]

[[workloads]]
kind = "httperf"
service = "apache"
mode = "fluid"
sessions = 4
files = 4
file_kib = 512.0
"""

    def test_validate_good_spec(self, tmp_path, capsys):
        path = self._write(tmp_path, self._GOOD)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "toml-fleet" in out and "2 host(s)" in out

    def test_validate_bad_spec_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, 'name = "x"\nshards = 0\n')
        assert main(["validate", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/no/such/fleet.toml"]) == 2

    def test_run_prints_report(self, tmp_path, capsys):
        path = self._write(tmp_path, self._GOOD)
        assert main(["run", path, "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet toml-fleet" in out and "availability" in out

    def test_run_obs_out_writes_an_explainable_bundle(self, tmp_path, capsys):
        # --obs-out forces telemetry on (the spec states none) and the
        # written bundle feeds `repro.obs explain` as-is.
        from repro.obs import TelemetryBundle, decision_timelines

        path = self._write(tmp_path, self._GOOD)
        out = str(tmp_path / "fleet.bundle.json")
        assert main(["run", path, "--jobs", "1", "--obs-out", out]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        bundle = TelemetryBundle.load(out)
        assert bundle.fleet == "toml-fleet" and len(bundle.shards) == 2
        # No control policy in the spec, so no decisions to explain —
        # but the reconstruction itself must accept the bundle.
        assert decision_timelines(bundle) == []

    def test_load_fleet_toml_roundtrip(self, tmp_path):
        spec = load_fleet_toml(self._write(tmp_path, self._GOOD))
        assert spec.host_count == 2 and spec.shards == 2
        assert spec.workloads[0].mode == "fluid"
