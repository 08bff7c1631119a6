"""Self-tests of the benchmark (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import tomllib
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fleetgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.analysis.report import ComparisonRow  # noqa: E402
from repro.devtools.simlint.layers import DEFAULT_LAYER_MAP  # noqa: E402
from repro.experiments import experiment_ids  # noqa: E402
from repro.experiments.common import ExperimentResult  # noqa: E402
from repro.fleet.spec import FleetSpec, load_fleet_toml  # noqa: E402
from repro.jobs import SweepStats  # noqa: E402

SMALL_FLEET = {
    "name": "perfbench-selftest",
    "shards": 1,
    "strategy": "warm",
    "hosts_per_epoch": 2,
    "epoch_s": 60.0,
    "warmup_s": 120.0,
    "observe_s": 120.0,
    "hosts": [{"count": 4, "vms": [{"memory_gib": 0.5, "services": ["apache"]}]}],
    "workloads": [
        {
            "kind": "httperf", "service": "apache", "mode": "fluid",
            "sessions": 20, "tick_s": 2.0, "files": 4, "file_kib": 512.0,
        }
    ],
}


def small_fleet(observed: bool) -> dict:
    data = json.loads(json.dumps(SMALL_FLEET))
    if observed:
        data.update(
            shards=2, telemetry=True, slo=dict(fleetgen.SLO), policy={}
        )
    return data


def run_small(cls: type, tmp_path: Path, data: dict) -> tuple:
    workload = cls(workloads.DEFAULT_SEED, tmp_path, tracing.SpanLog("test"), data)
    workload.setup()
    return workload, workload.run()


# -- layers ----------------------------------------------------------------------------


def test_every_repro_module_maps_to_a_layer():
    layers = tracing.LayerMap(ROOT / "src", HERE)
    modules = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert modules
    for path in modules:
        package = layers.package(str(path))
        assert DEFAULT_LAYER_MAP.layer_name(package) is not None, path


def test_reported_layers_and_experiments_match_the_program():
    declared = {pkg for _, packages in DEFAULT_LAYER_MAP.layers for pkg in packages}
    assert set(tracing.LAYERS) <= declared
    assert tuple(experiment_ids()) == tracing.EXPERIMENTS


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == tracing.metric_names()
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert end_to_end == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_attribution_charges_foreign_time_to_the_calling_layer():
    layers = tracing.LayerMap(ROOT / "src", HERE)
    guest = (str(ROOT / "src/repro/guest/kernel.py"), 1, "read")
    kernel = (str(ROOT / "src/repro/simkernel/kernel.py"), 1, "run")
    stdlib = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    bench = (str(HERE / "worker.py"), 1, "main")
    stats = {
        bench: (1, 1, 0.5, 6.5, {}),
        kernel: (1, 1, 1.0, 6.0, {bench: (1, 1, 1.0, 6.0)}),
        guest: (10, 10, 2.0, 5.0, {kernel: (10, 10, 2.0, 5.0)}),
        stdlib: (4, 4, 3.0, 3.0, {guest: (4, 4, 3.0, 3.0)}),
    }
    self_s, calls = tracing.attribute(stats, layers)
    assert self_s["guest"] == pytest.approx(5.0)
    assert self_s["simkernel"] == pytest.approx(1.0)
    assert calls["guest"] == 10
    assert self_s["unmapped"] == pytest.approx(0.5)
    assert calls["simkernel"] == 1  # entered from the benchmark


# -- the input generator ---------------------------------------------------------------


def test_generator_is_deterministic_and_keeps_its_totals():
    seen = set()
    for seed in range(40):
        data = fleetgen.generate(seed)
        assert data == fleetgen.generate(seed)
        seen.add(json.dumps(data, sort_keys=True))
        assert len(data["hosts"]) == fleetgen.HOSTS
        epoch = data["hosts_per_epoch"]
        for first in range(0, fleetgen.HOSTS, epoch):
            hosts = data["hosts"][first:first + epoch]
            vms = [vm for host in hosts for vm in host["vms"]]
            assert len(vms) == len(hosts)
            assert sum(vm["memory_gib"] for vm in vms) == len(hosts) * 1.0
        vms = [vm for host in data["hosts"] for vm in host["vms"]]
        low, high = fleetgen.VMS_PER_HOST
        assert all(low <= len(host["vms"]) <= high for host in data["hosts"])
        low, high = fleetgen.VM_MEMORY_RANGE_GIB
        assert all(low <= vm["memory_gib"] <= high for vm in vms)
        workload = data["workloads"][0]
        low, high = fleetgen.FILES
        assert low <= workload["files"] <= high
        low, high, _step = fleetgen.FILE_KIB
        assert low <= workload["file_kib"] <= high
        low, high, _step = fleetgen.SESSIONS
        assert low <= workload["sessions"] <= high
    assert len(seen) == 40


def test_seed_zero_is_shard_zero_of_the_rolling_example():
    example = load_fleet_toml(str(ROOT / "examples" / "fleet_rolling.toml"))
    text = fleetgen.to_toml(fleetgen.generate(fleetgen.EXAMPLE_SEED))
    generated = FleetSpec.from_dict(tomllib.loads(text))
    plans = [spec.shard_plans()[0] for spec in (example, generated)]
    for plan in plans:
        del plan["fleet"]
        plan["spec_data"].pop("name")
    assert plans[0] == plans[1]
    assert len(example.shard_plans()) * fleetgen.HOSTS == 1000


@pytest.mark.parametrize("observed", [False, True])
def test_generated_specs_load_through_toml(observed):
    shards = fleetgen.OBSERVED_SHARDS if observed else 1
    for seed in range(20):
        data = fleetgen.generate(seed, shards=shards, observed=observed)
        text = fleetgen.to_toml(data)
        assert tomllib.loads(text) == data
        spec = FleetSpec.from_dict(tomllib.loads(text))
        assert len(spec.shard_plans()) == shards
        assert spec.telemetry_enabled == observed


# -- output checks count failed operations ---------------------------------------------


def _results(golden: dict, ids: list[str]) -> dict:
    return {
        key: ExperimentResult(
            key, key, rows=[ComparisonRow(**row) for row in golden[key]]
        )
        for key in ids
    }


def test_a_planted_wrong_row_fails_one_operation():
    golden = json.loads(workloads.GOLDEN_ROWS.read_text(encoding="utf-8"))
    ids = ["FIG4", "SEC53"]
    hit = SweepStats(total_cells=3, cache_hits=3, executed=0)
    clean = workloads.check_sweep(
        ids, golden, _results(golden, ids), _results(golden, ids), hit
    )
    assert (clean.attempted, clean.failed) == (4, 0)

    planted = _results(golden, ids)
    row = planted["FIG4"].rows[0]
    planted["FIG4"].rows[0] = dataclasses.replace(row, measured=row.measured + 1.0)
    verdict = workloads.check_sweep(ids, golden, planted, _results(golden, ids), hit)
    assert (verdict.attempted, verdict.failed) == (4, 1)
    assert verdict.digest != clean.digest

    missed = SweepStats(total_cells=3, cache_hits=2, executed=1)
    verdict = workloads.check_sweep(
        ids, golden, _results(golden, ids), _results(golden, ids), missed
    )
    assert verdict.failed == 2  # every replayed experiment


def test_a_wrong_digest_fails_every_row(tmp_path):
    workload, outcome = run_small(workloads.FleetShard, tmp_path, small_fleet(False))
    right = workloads.report_digest(outcome["report"])
    assert workloads.check_fleet(workload, outcome, right).failed == 0
    verdict = workloads.check_fleet(workload, outcome, "0" * 64)
    assert verdict.attempted == 4
    assert verdict.failed == 4


def test_a_fleet_error_fails_every_row(tmp_path):
    data = small_fleet(False)
    data["warmup_s"] = 1.0  # bring-up cannot finish: FleetError
    workload, outcome = run_small(workloads.FleetShard, tmp_path, data)
    verdict = workloads.check_fleet(workload, outcome, None)
    assert outcome["status"] != 0
    assert (verdict.attempted, verdict.failed) == (4, 4)


def test_a_truncated_artifact_fails_one_operation(tmp_path):
    workload, outcome = run_small(
        workloads.FleetObserved, tmp_path, small_fleet(True)
    )
    assert workloads.check_fleet(workload, outcome, None).failed == 0
    for name in ("fleet.perfetto.json", "bundle.json", "fleet.prom"):
        path = outcome["out"] / name
        original = path.read_bytes()
        path.write_bytes(original[: len(original) // 2])
        verdict = workloads.check_fleet(workload, outcome, None)
        assert verdict.attempted == 4 + workload.artifacts
        assert verdict.failed == 1, (name, verdict.problems)
        path.write_bytes(original)


def test_a_missing_entry_point_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(
        tracing, "ENTRY_POINTS", (("repro.jobs", "no_such_function", "jobs.run"),)
    )
    with pytest.raises(LookupError, match="repro.jobs:no_such_function"):
        tracing.install_entry_points(tracing.SpanLog("test"), tracing.LargestBuild())


# -- the worker processes --------------------------------------------------------------


def test_a_run_stops_repeating_after_a_repetition_that_failed_everything(monkeypatch):
    launched = []

    def fake_launch(args, mode, workdir, deadline):
        launched.append(mode)
        result = {"wall_s": 0.01, "attempted": 26, "failed": 26}
        return {run.READY: {"setup_s": 0.1}, run.RESULT: result}

    monkeypatch.setattr(run, "launch", fake_launch)
    args = argparse.Namespace(workload="paper-sweep", seed=0, seconds=20, trace=0)
    found = run.repetitions(args, Path("unused"), time.monotonic() + 100)
    assert len(found) == 1 and launched == ["run"]


def test_blas_pools_are_pinned_inside_workload_processes(tmp_path):
    args = argparse.Namespace(workload="fleet-shard", seed=0, seconds=1)
    found = run.launch(args, "setup", tmp_path, time.monotonic() + 120)
    ready = found["PERFBENCH-READY"]
    assert ready["threads"] == 1
    assert ready["setup_s"] > 0
