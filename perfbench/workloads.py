"""The benchmark's three workloads: set-up, the timed call, output checks.

Each workload is a class with three phases, which the worker process
runs in order:

``setup()``
    Everything a command-line invocation pays before it simulates:
    importing the layers the workload calls, generating its inputs,
    ``repro.jobs.code_version()`` and the cell plan (or
    ``FleetSpec.shard_plans()``).  ``setup_s`` times this phase.
``run()``
    The timed call.  It returns an outcome that ``check`` reads; nothing
    in it is a benchmark-side check.
``check(outcome)``
    Counts operations and failed operations (see ``Verdict``) and
    returns the run's output digest, which the traced run compares with
    its untraced reference.

No module of ``repro`` is imported at module level: the imports are part
of ``setup()`` so that ``setup_s`` measures them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import shutil
import typing
from pathlib import Path

import fleetgen

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_ROWS = ROOT / "tests" / "experiments" / "golden_rows.json"
PINS = Path(__file__).resolve().parent / "pins.json"
DEFAULT_SEED = 0
"""The seed whose fleet report digests ``pins.json`` pins."""


@dataclasses.dataclass
class Verdict:
    """Operations a run attempted and how many of them failed."""

    attempted: int
    failed: int
    digest: str = ""
    problems: list[str] = dataclasses.field(default_factory=list)


def canonical_digest(data: typing.Any) -> str:
    """sha256 over the sorted-key, strict JSON form of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def _strict_json(path: Path) -> typing.Any:
    """Parse ``path`` as strict JSON: NaN and infinities are errors."""

    def reject(token: str) -> typing.NoReturn:
        raise ValueError(f"non-strict JSON constant {token}")

    with open(path, encoding="utf-8") as handle:
        return json.load(handle, parse_constant=reject)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- paper-sweep ---------------------------------------------------------------------


class PaperSweep:
    """The paper's evaluation as ``roothammer-experiments --all --jobs 1``
    runs it: every experiment cold into an empty cache, then replayed."""

    name = "paper-sweep"

    def __init__(self, seed: int, workdir: Path, spans: typing.Any) -> None:
        # The paper's fixed parameters are the input; the seed changes
        # nothing here.
        self.seed = seed
        self.workdir = workdir
        self.spans = spans

    def setup(self) -> None:
        with self.spans.span("setup.imports"):
            self.experiments = importlib.import_module("repro.experiments")
            self.parallel = importlib.import_module("repro.experiments.parallel")
            self.jobs = importlib.import_module("repro.jobs")
        with self.spans.span("setup.code_version"):
            self.jobs.code_version()
        with self.spans.span("setup.plan"):
            # The timed call plans the same cells again, as the CLI does.
            self.ids = self.experiments.experiment_ids()
            self.plan = {key: self.parallel.cells_for(key) for key in self.ids}

    def expected_ops(self) -> int:
        return 2 * len(self.ids)

    def run(self) -> dict:
        cache = self.workdir / "cache"
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        cold_stats = self.parallel.SweepStats()
        replay_stats = self.parallel.SweepStats()
        cold = self.parallel.run_all_parallel(
            jobs=1, use_cache=True, stats=cold_stats
        )
        replay = self.parallel.run_all_parallel(
            jobs=1, use_cache=True, stats=replay_stats
        )
        return {
            "cold": cold,
            "replay": replay,
            "cold_stats": cold_stats,
            "replay_stats": replay_stats,
            "cache": cache,
        }

    def check(self, outcome: dict) -> Verdict:
        with open(GOLDEN_ROWS, encoding="utf-8") as handle:
            golden = json.load(handle)
        return check_sweep(
            self.ids, golden, outcome["cold"], outcome["replay"],
            outcome["replay_stats"],
        )

    def layer_counts(self, outcome: dict) -> dict[str, float]:
        cold, replay = outcome["cold_stats"], outcome["replay_stats"]
        return {
            "jobs.cells": cold.total_cells + replay.total_cells,
            "jobs.hit_ratio": replay.cache_hits / replay.total_cells
            if replay.total_cells else 0.0,
            "jobs.cache_mb": _tree_bytes(outcome["cache"]) / 2**20,
        }

    def cleanup(self) -> None:
        os.environ.pop("REPRO_CACHE_DIR", None)
        shutil.rmtree(self.workdir / "cache", ignore_errors=True)


def check_sweep(
    ids: typing.Sequence[str],
    golden: dict[str, list[dict]],
    cold: dict,
    replay: dict,
    replay_stats: typing.Any,
) -> Verdict:
    """One operation per experiment and pass.  An experiment fails if its
    rows differ from the golden rows or its shape is not reproduced; a
    replayed experiment also fails if any cell of the replay missed the
    cache (the sweep statistics are not per experiment, so one miss fails
    every replayed experiment)."""
    problems: list[str] = []
    failed = 0
    all_hit = (
        replay_stats.executed == 0
        and replay_stats.cache_hits == replay_stats.total_cells > 0
    )
    if not all_hit:
        problems.append(
            f"replay executed {replay_stats.executed} of "
            f"{replay_stats.total_cells} cell(s) instead of reading the cache"
        )
    rows_by_pass: dict[str, dict[str, list[dict]]] = {}
    for label, results in (("cold", cold), ("replay", replay)):
        rows_by_pass[label] = {}
        for key in ids:
            result = results.get(key)
            if result is None:
                reason = "no result"
            else:
                rows = [dataclasses.asdict(row) for row in result.rows]
                rows_by_pass[label][key] = rows
                if rows != golden.get(key):
                    reason = "rows differ from golden_rows.json"
                elif not result.shape_reproduced:
                    reason = "shape not reproduced"
                elif label == "replay" and not all_hit:
                    reason = "replay missed the cache"
                else:
                    continue
            failed += 1
            problems.append(f"{label} {key}: {reason}")
    return Verdict(
        attempted=2 * len(ids),
        failed=failed,
        digest=canonical_digest(rows_by_pass),
        problems=problems,
    )


# -- the fleet workloads -------------------------------------------------------------


class FleetShard:
    """One 125-host fluid fleet shard from ``fleetgen`` (seed 0 is shard 0
    of ``examples/fleet_rolling.toml``) through ``python -m repro.fleet
    run SPEC --jobs 1``, telemetry off."""

    name = "fleet-shard"
    shards = 1
    observed = False
    artifacts = 0

    def __init__(
        self,
        seed: int,
        workdir: Path,
        spans: typing.Any,
        spec_data: dict | None = None,
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spans = spans
        self._spec_data = spec_data  # tests pass a small fleet here

    def setup(self) -> None:
        with self.spans.span("setup.imports"):
            self.cli = importlib.import_module("repro.fleet.cli")
            self.fleet_spec = importlib.import_module("repro.fleet.spec")
            self.runner = importlib.import_module("repro.fleet.runner")
            self.jobs = importlib.import_module("repro.jobs")
            if self.observed:
                self.bundle_mod = importlib.import_module("repro.obs.bundle")
                self.analysis_obs = importlib.import_module("repro.analysis.obs")
                self.errors = importlib.import_module("repro.errors")
        with self.spans.span("setup.inputs"):
            data = self._spec_data
            if data is None:
                data = fleetgen.generate(
                    self.seed, shards=self.shards, observed=self.observed
                )
            self.spec_path = self.workdir / "fleet.toml"
            self.spec_path.write_text(fleetgen.to_toml(data), encoding="utf-8")
        with self.spans.span("setup.code_version"):
            self.jobs.code_version()
        with self.spans.span("setup.plan"):
            self.spec = self.fleet_spec.load_fleet_toml(str(self.spec_path))
            plans = self.spec.shard_plans()
        self.hosts = [
            host["name"] for plan in plans for host in plan["spec_data"]["hosts"]
        ]
        self.expected_rows = [row for plan in plans for row in _plan_vms(plan)]
        self._reports: list = []
        self._install_recorder()

    def _install_recorder(self) -> None:
        """Keep the report the CLI computes (it only prints it)."""
        original = self.runner.run_fleet
        reports = self._reports

        def recorded(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            report = original(*args, **kwargs)
            reports.append(report)
            return report

        for module in (self.runner, self.cli):
            if getattr(module, "run_fleet", None) is original:
                module.run_fleet = recorded

    def expected_ops(self) -> int:
        return len(self.expected_rows) + self.artifacts

    def _argv(self, out: Path) -> list[str]:
        return ["run", str(self.spec_path), "--jobs", "1"]

    def run(self) -> dict:
        out = self.workdir / "out"
        out.mkdir(parents=True, exist_ok=True)
        self._reports.clear()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = self.cli.main(self._argv(out))
        return {
            "status": status,
            "report": self._reports[-1] if self._reports else None,
            "printed": printed.getvalue(),
            "out": out,
        }

    def check(self, outcome: dict) -> Verdict:
        pins = load_pins().get(self.name, {})
        return check_fleet(self, outcome, pins.get(str(self.seed)))

    def reboot_counts(self, report: typing.Any) -> dict[str, int] | None:
        """Completed reboots per host, where the run records them."""
        return None  # telemetry is off: the report carries no reboot spans

    def check_artifacts(self, outcome: dict) -> list[str]:
        return []

    def layer_counts(self, outcome: dict) -> dict[str, float]:
        report = outcome["report"]
        return {
            "jobs.cells": float(report.shards) if report is not None else 0.0,
            "jobs.hit_ratio": 0.0,
            "jobs.cache_mb": 0.0,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir / "out", ignore_errors=True)


def _plan_vms(plan: dict) -> typing.Iterator[tuple[str, str]]:
    """(host, VM) names for every VM of a shard plan, in host order; VMs
    take the cluster default name ``{host}-vm{i}``."""
    for host in plan["spec_data"]["hosts"]:
        index = 0
        for vm in host["vms"]:
            for _ in range(vm.get("count", 1)):
                yield host["name"], f"{host['name']}-vm{index}"
                index += 1


def report_digest(report: typing.Any) -> str:
    """Digest of a fleet report without its wall-clock field."""
    data = report.to_dict()
    data.pop("wall_s", None)
    return canonical_digest(data)


def check_fleet(workload: FleetShard, outcome: dict, pinned: str | None) -> Verdict:
    """One operation per expected (host, VM) row, plus each artifact.

    A row fails when it is missing, its availability is outside [0, 1],
    it served no requests, its outage is not one reboot's worth (more
    than 0 s and at most one epoch), its host overran its epoch, or --
    where the run records reboots -- its host did not reboot exactly
    once.  Every row fails when the CLI failed, bring-up did not finish
    inside the warm-up, a host without VMs did not reboot exactly once,
    or -- for the pinned seed -- the report digest differs.
    """
    attempted = workload.expected_ops()
    report = outcome.get("report")
    if outcome.get("status") != 0 or report is None:
        return Verdict(
            attempted, attempted,
            problems=[f"fleet CLI exited {outcome.get('status')}: "
                      f"{outcome.get('printed', '')[-300:]}"],
        )
    spec = workload.spec
    digest = report_digest(report)
    problems: list[str] = []
    fail_all = False
    if not report.bringup_s < spec.warmup_s:
        problems.append(f"bring-up {report.bringup_s}s >= warm-up {spec.warmup_s}s")
        fail_all = True
    if pinned is not None and digest != pinned:
        problems.append(f"report digest {digest[:12]} != pinned {pinned[:12]}")
        fail_all = True
    rows = {(row["host"], row["vm"]): row for row in report.rows}
    overran = set(report.overruns)
    reboots = workload.reboot_counts(report)
    if reboots is not None:
        with_rows = {host for host, _vm in workload.expected_rows}
        for host in workload.hosts:
            if host not in with_rows and reboots.get(host) != 1:
                problems.append(
                    f"host {host}: {reboots.get(host, 0)} fleet.host reboot span(s)"
                )
                fail_all = True
    failed_rows = 0
    for host, vm in workload.expected_rows:
        row = rows.get((host, vm))
        reason = None
        if row is None:
            reason = "missing"
        elif not 0.0 <= row.get("availability", -1.0) <= 1.0:
            reason = f"availability {row.get('availability')}"
        elif not row.get("requests", 0.0) > 0:
            reason = f"requests {row.get('requests')}"
        elif not 0.0 < row.get("downtime_s", 0.0) <= spec.epoch_s:
            reason = f"downtime {row.get('downtime_s')}s is not one reboot"
        elif host in overran:
            reason = "epoch overrun"
        elif reboots is not None and reboots.get(host) != 1:
            reason = f"{reboots.get(host, 0)} fleet.host reboot span(s)"
        if reason is not None:
            failed_rows += 1
            if len(problems) < 20:
                problems.append(f"row {host}/{vm}: {reason}")
    if len(rows) != len(workload.expected_rows):
        problems.append(
            f"{len(rows)} row(s) reported, {len(workload.expected_rows)} expected"
        )
    artifact_problems = workload.check_artifacts(outcome)
    problems.extend(artifact_problems)
    failed = attempted if fail_all else failed_rows + len(artifact_problems)
    return Verdict(attempted, min(failed, attempted), digest, problems)


class FleetObserved(FleetShard):
    """The same generated fleet in 2 shards with telemetry, ``[slo]`` and
    ``[policy]``, run with ``--obs-out`` and ``--trace-out``; the bundle
    is then reloaded and exported as Perfetto and Prometheus."""

    name = "fleet-observed"
    shards = fleetgen.OBSERVED_SHARDS
    observed = True
    artifacts = 3 + fleetgen.OBSERVED_SHARDS
    """The bundle, one trace per shard, the merged Perfetto document and
    the Prometheus page."""

    def _argv(self, out: Path) -> list[str]:
        return [
            "run", str(self.spec_path), "--jobs", "1",
            "--obs-out", str(out / "bundle.json"),
            "--trace-out", str(out / "trace.json"),
        ]

    def run(self) -> dict:
        outcome = super().run()
        out = outcome["out"]
        bundle = self.bundle_mod.TelemetryBundle.load(out / "bundle.json")
        bundle.write_perfetto(out / "fleet.perfetto.json")
        bundle.write_prometheus(out / "fleet.prom")
        outcome["bundle"] = bundle
        return outcome

    def reboot_counts(self, report: typing.Any) -> dict[str, int]:
        counts: dict[str, int] = {}
        for shard in report.telemetry.get("shards", ()):
            for span in shard["spans"]:
                if span["name"] == "fleet.host" and span["end"] is not None:
                    counts[span["actor"]] = counts.get(span["actor"], 0) + 1
        return counts

    def check_artifacts(self, outcome: dict) -> list[str]:
        """One problem per artifact that does not read back."""
        out: Path = outcome["out"]
        report = outcome["report"]
        problems = []
        try:
            written = json.loads(json.dumps(report.telemetry))
            if _strict_json(out / "bundle.json") != written or (
                outcome["bundle"].to_dict() != written
            ):
                problems.append("bundle.json: load differs from what was written")
        except (OSError, ValueError) as exc:
            problems.append(f"bundle.json: {exc}")
        traces = [f"trace.shard{i}.json" for i in range(self.shards)]
        for name in traces + ["fleet.perfetto.json"]:
            try:
                events = _strict_json(out / name).get("traceEvents")
                if not events:
                    problems.append(f"{name}: no trace events")
            except (OSError, ValueError, AttributeError) as exc:
                problems.append(f"{name}: {exc}")
        try:
            text = (out / "fleet.prom").read_text(encoding="utf-8")
            problems.extend(self._prometheus_problems(text, report.rows))
        except (OSError, ValueError, self.errors.ReproError) as exc:
            problems.append(f"fleet.prom: {exc}")
        return problems

    def _prometheus_problems(self, text: str, rows: list[dict]) -> list[str]:
        samples = self.analysis_obs.parse_prometheus(text)
        by_row: dict[tuple, dict[str, float]] = {}
        for (name, labels), value in samples.items():
            found = dict(labels)
            by_row.setdefault((found.get("host"), found.get("vm")), {})[name] = value
        for row in rows:
            got = by_row.get((row["host"], row["vm"]), {})
            for metric, field in (
                ("repro_fleet_availability", "availability"),
                ("repro_fleet_downtime_seconds", "downtime_s"),
            ):
                value = got.get(metric)
                if value != row[field]:
                    return [
                        f"fleet.prom: {metric} for {row['host']}/{row['vm']} "
                        f"reads {value}, the report has {row[field]}"
                    ]
        return []


WORKLOADS: dict[str, type] = {
    PaperSweep.name: PaperSweep,
    FleetShard.name: FleetShard,
    FleetObserved.name: FleetObserved,
}
