"""Fan fleet shards across worker processes and merge their payloads.

:func:`run_fleet` turns a :class:`~repro.fleet.spec.FleetSpec` into one
parallel-sweep cell per shard (reusing the foundation-layer pooled,
content-addressed cell machinery via
:func:`repro.jobs.run_cells`), executes them, and folds
the shard payloads into a :class:`FleetReport`.  ``jobs=1`` (or
``serial=True``) runs the same cells in-process — the determinism tests
assert serial, sharded-parallel and cache-replayed reports are
bit-identical for fluid workloads.
"""

from __future__ import annotations

import dataclasses
import time
import typing

from repro.jobs import Cell, SweepStats, run_cells
from repro.fleet.spec import FleetSpec
from repro.obs.bundle import TelemetryBundle
from repro.obs.slo import evaluate_slo, outage_intervals

_FLEET = "FLEET"
"""Cell experiment-id namespace for fleet shards."""


@dataclasses.dataclass
class FleetReport:
    """Plain-data outcome of one fleet run (picklable, JSON-friendly)."""

    name: str
    hosts: int
    vms: int
    shards: int
    sessions: int
    requests: float
    failures: float
    downtime_s: float
    availability: float
    overruns: list[str]
    bringup_s: float
    rows: list[dict]
    wall_s: float = 0.0
    policy: dict = dataclasses.field(default_factory=dict)
    """Aggregated control-loop summary across shards (counts summed,
    audits concatenated in shard order); empty without a policy."""
    telemetry: dict = dataclasses.field(default_factory=dict)
    """The merged :class:`~repro.obs.bundle.TelemetryBundle` as plain
    data; empty unless the spec enabled telemetry collection."""
    slo: dict = dataclasses.field(default_factory=dict)
    """SLO report (see :func:`repro.obs.slo.evaluate_slo`) evaluated from
    the merged telemetry; empty without an ``[slo]`` table."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        """A human-readable summary block."""
        lines = [
            f"fleet {self.name}: {self.hosts} host(s), {self.vms} VM(s), "
            f"{self.sessions} session(s) across {self.shards} shard(s)",
            f"  requests {self.requests:.0f}, failures {self.failures:.0f}, "
            f"downtime {self.downtime_s:.1f}s, "
            f"availability {self.availability:.4f}",
        ]
        if self.overruns:
            lines.append(
                f"  epoch overruns: {', '.join(self.overruns)}"
            )
        if self.policy:
            lines.append(
                "  policy {strategy}: {cycles} cycle(s), "
                "{migrations} migration(s), {rejuvenations} "
                "rejuvenation(s), {deferred} deferred".format(**self.policy)
            )
        if self.slo:
            objectives = ", ".join(
                "{kind} {verdict}".format(
                    kind=o["kind"], verdict="ok" if o["passed"] else "VIOLATED"
                )
                for o in self.slo["objectives"]
            )
            lines.append(
                f"  slo {'PASS' if self.slo['passed'] else 'FAIL'}: "
                f"{objectives}"
            )
        if self.wall_s:
            lines.append(f"  wall clock: {self.wall_s:.2f}s")
        return "\n".join(lines)


def fleet_cells(spec: FleetSpec) -> list[Cell]:
    """One content-addressed cell per shard plan."""
    return [
        Cell(
            _FLEET,
            (spec.name, plan["shard"]),
            "repro.fleet.shard:run_fleet_shard",
            {"shard": plan},
        )
        for plan in spec.shard_plans()
    ]


def merge_shards(spec: FleetSpec, payloads: typing.Sequence[dict]) -> FleetReport:
    """Fold ordered shard payloads into one fleet report.

    Shards partition the host list contiguously, so concatenating rows
    in shard order preserves global host order; per-fleet aggregates are
    plain sums (availability: row mean), summed in that same fixed order
    so the merged report is deterministic.
    """
    rows: list[dict] = []
    overruns: list[str] = []
    requests = failures = downtime = 0.0
    availability = 0.0
    hosts = vms = 0
    bringup = 0.0
    policy: dict = {}
    for payload in payloads:
        hosts += payload["hosts"]
        vms += payload["vms"]
        bringup = max(bringup, payload["bringup_s"])
        overruns.extend(payload["overruns"])
        for row in payload["rows"]:
            rows.append(dict(row))
            requests += row.get("requests", 0.0)
            failures += row.get("failures", 0.0)
            downtime += row.get("downtime_s", 0.0)
            availability += row.get("availability", 1.0)
        shard_policy = payload.get("policy") or {}
        if shard_policy:
            if not policy:
                policy = {
                    "strategy": shard_policy["strategy"],
                    "cycles": 0,
                    "migrations": 0,
                    "rejuvenations": 0,
                    "skipped": 0,
                    "failed": 0,
                    "deferred": 0,
                    "trigger_log": [],
                    "audit": [],
                }
            # Every shard ticks the same absolute grid, so cycle counts
            # agree; the action counters are genuine per-shard work.
            policy["cycles"] = max(policy["cycles"], shard_policy["cycles"])
            for key in (
                "migrations", "rejuvenations", "skipped", "failed", "deferred"
            ):
                policy[key] += shard_policy[key]
            policy["trigger_log"].extend(shard_policy.get("trigger_log", ()))
            policy["audit"].extend(shard_policy["audit"])
    telemetry: dict = {}
    slo: dict = {}
    blobs = [payload.get("telemetry") or {} for payload in payloads]
    if payloads and all(blobs):
        bundle = TelemetryBundle.merge(spec.name, blobs)
        telemetry = bundle.to_dict()
        if spec.slo is not None:
            # Price the SLO from the merged telemetry alone — the same
            # inputs `repro.obs` works from, so report and bundle can
            # never disagree.
            slo = evaluate_slo(
                spec.slo,
                start=spec.warmup_s,
                end=spec.horizon_s,
                rows=bundle.sli_rows(),
                outages=outage_intervals(
                    bundle.all_records(), spec.warmup_s, spec.horizon_s
                ),
            )
    return FleetReport(
        name=spec.name,
        hosts=hosts,
        vms=vms,
        shards=len(payloads),
        sessions=spec.sessions,
        requests=requests,
        failures=failures,
        downtime_s=downtime,
        availability=availability / len(rows) if rows else 1.0,
        overruns=overruns,
        bringup_s=bringup,
        rows=rows,
        policy=policy,
        telemetry=telemetry,
        slo=slo,
    )


def run_fleet(
    spec: FleetSpec,
    jobs: int | None = None,
    use_cache: bool = False,
    stats: SweepStats | None = None,
) -> FleetReport:
    """Run every shard (pooled across processes) and merge the payloads.

    Caching is off by default — fleet runs are usually one-shot and their
    payloads large-ish; pass ``use_cache=True`` to content-address them
    like experiment cells (the shard plan, workload mode included, is key
    material, so a cached fleet row can never alias a different
    configuration).
    """
    started = time.perf_counter()
    plan = fleet_cells(spec)
    payloads = run_cells(plan, jobs=jobs, use_cache=use_cache, stats=stats)
    ordered = [payloads[(_FLEET, cell.key)] for cell in plan]
    report = merge_shards(spec, ordered)
    report.wall_s = round(time.perf_counter() - started, 3)
    return report
