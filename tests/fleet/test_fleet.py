"""Sharded fleet tier: spec geometry, epoch protocol, determinism.

The load-bearing contract: a fleet's merged report is *bit-identical*
whether its shards ran serially in one process, fanned out across
workers, or were replayed from the content-addressed cache — and
whether the fleet was cut into one shard or many.  That holds because
every source of behaviour is a pure function of global host identity
(RNG streams from host names, reboot starts from global host index,
fluid ticks on the absolute grid), never of shard membership.
"""

import dataclasses
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
        with pytest.raises(ScenarioError, match="placeholder"):
            _fleet(hosts=[
                {"name": "samename", "count": 2,
                 "vms": [{"count": 1, "services": ["apache"]}]},
            ])

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
            pytest.param(
                {"shards": 1.5},
                r"fleet\.shards: expected an integer, got float",
                id="shards-float",
            ),
            pytest.param(
                {"hosts_per_epoch": 1.5},
                r"fleet\.hosts_per_epoch: expected an integer",
                id="hosts_per_epoch-float",
            ),
            pytest.param(
                {"telemetry": "yes"},
                r"fleet\.telemetry: expected a boolean",
                id="telemetry-str",
            ),
            pytest.param(
                {"profile": "huge"}, r"fleet\.profile: must be one of", id="profile"
            ),
            pytest.param(
                {"workloads": [{"service": "jboss"}]},
                r"fleet\.workloads\[0\]\.service: no VM runs 'jboss'",
                id="workload-service-unrun",
            ),
            pytest.param(
                {"workloads": [
                    {"mode": "fluid", "tick_s": 1.0},
                    {"mode": "fluid", "tick_s": 2.0},
                ]},
                r"fleet\.workloads\[1\]\.tick_s: all fluid workloads",
                id="workload-tick_s-mixed",
            ),
            pytest.param(
                {"hosts": [{"name": "a", "vms": [{}]}, {"name": "a", "vms": [{}]}]},
                r"fleet\.hosts: the name 'a' is given twice",
                id="host-name-twice",
            ),
            pytest.param(
                {"slo": {"availability": 2.0}},
                r"fleet\.slo\.availability: must be a ratio in \(0, 1\]",
                id="slo-availability",
            ),
            pytest.param(
                {"slo": {"availability": 0.9, "latency_target_s": 0.5}},
                r"fleet\.slo: unknown key\(s\) 'latency_target_s';",
                id="slo-latency_target_s",
            ),
            pytest.param(
                {"slo": {"availability": 0.9, "latency_quantile": 0.99}},
                r"fleet\.slo: unknown key\(s\) 'latency_quantile';",
                id="slo-latency_quantile",
            ),
        ],
    )
    def test_validation(self, overrides, needle):
        with pytest.raises(ScenarioError, match=needle):
            _fleet(**overrides)

    def test_vm_pinned_workload_rejected(self):
        # The pinned VM lives in one shard only: at two shards the other
        # shard used to fail after shard 0 ran, and at one shard the
        # report counted every VM's sessions for the one pinned client.
        workload = {**_fleet().to_dict()["workloads"][0], "vm": "host0-vm0"}
        with pytest.raises(ScenarioError, match=r"fleet\.workloads\[0\]\.vm: "):
            _fleet(shards=2, workloads=[workload])


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

    def test_shards_get_only_the_workloads_their_vms_run(self):
        # httperf runs on the apache host only: the ssh host's shard gets
        # no workload, and sharding stays invisible in the rows.
        hosts = [
            {"vms": [{"count": 1, "services": ["apache"]}]},
            {"vms": [{"count": 1, "services": ["ssh"]}]},
        ]
        whole = run_fleet(_fleet(hosts=hosts, shards=1), jobs=1)
        sharded = run_fleet(_fleet(hosts=hosts, shards=2), jobs=1)
        assert json.dumps(sharded.rows) == json.dumps(whole.rows)
        assert sharded.requests == whole.requests > 0

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

    def test_validate_workload_no_vm_runs_exits_two(self, tmp_path, capsys):
        path = self._write(
            tmp_path, self._GOOD.replace('service = "apache"', 'service = "jboss"')
        )
        assert main(["validate", path]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert ".workloads[0].service: no VM runs 'jboss'" in line

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/no/such/fleet.toml"]) == 2

    def test_validate_wrong_type_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, self._GOOD.replace("shards = 2", "shards = 1.5"))
        assert main(["validate", path]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert line.endswith(".shards: expected an integer, got float")

    def test_run_unknown_policy_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, self._GOOD)
        assert main(["run", path, "--policy", "bogus"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: policy.strategy: must be one of")

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

    @pytest.fixture(scope="class")
    def live_traces(self, tmp_path_factory):
        """Each shard's export from its live simulator, captured in a
        serial in-process run of the same spec with telemetry on."""
        from repro.analysis.obs import (
            capture_simulators,
            perfetto_events,
            span_records,
            write_perfetto,
        )

        tmp_path = tmp_path_factory.mktemp("live")
        spec = load_fleet_toml(self._write(tmp_path, self._GOOD))
        spec = dataclasses.replace(spec, telemetry=True)
        with capture_simulators() as sims:
            run_fleet(spec, jobs=1, use_cache=False)
        assert len(sims) == 2
        return [
            write_perfetto(
                tmp_path / f"live{shard}.json",
                perfetto_events(
                    span_records(sim.trace), sim.metrics.series_snapshot()
                ),
            ).read_bytes()
            for shard, sim in enumerate(sims)
        ]

    @pytest.mark.parametrize(
        "flags", [["--jobs", "2"], ["--jobs", "2", "--cache"]],
        ids=["jobs2", "cache"],
    )
    def test_run_trace_out_writes_each_shard_from_the_bundle(
        self, tmp_path, capsys, cache_dir, live_traces, flags
    ):
        """--trace-out turns telemetry on and rebuilds every shard's trace
        from the merged bundle, so it works under any --jobs and from
        the cache (the second --cache run replays every shard)."""
        # The traces carry the fleet.* SLI gauges telemetry publishes.
        events = json.loads(live_traces[0])["traceEvents"]
        assert "fleet.availability{host=host0,kind=httperf,vm=host0-vm0}" in {
            event["name"] for event in events if event["ph"] == "C"
        }
        path = self._write(tmp_path, self._GOOD)
        for run in range(2 if "--cache" in flags else 1):
            out = tmp_path / f"run{run}" / "trace.json"
            assert main(["run", path, *flags, "--trace-out", str(out)]) == 0
            printed = capsys.readouterr().out
            for shard, live in enumerate(live_traces):
                shard_path = out.with_name(f"trace.shard{shard}.json")
                assert f"wrote {shard_path}" in printed
                assert shard_path.read_bytes() == live

    def test_load_fleet_toml_roundtrip(self, tmp_path):
        spec = load_fleet_toml(self._write(tmp_path, self._GOOD))
        assert spec.host_count == 2 and spec.shards == 2
        assert spec.workloads[0].mode == "fluid"
