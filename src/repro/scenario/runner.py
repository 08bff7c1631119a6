"""Run a built scenario end-to-end and summarize what happened.

:func:`run_scenario` drives the generic timeline every spec describes —
warm-up, optional fault injection, the maintenance schedule, an
observation window — and folds the attached workloads' measurements into
a :class:`ScenarioReport` of plain data (picklable, JSON-friendly), so
the same function backs the ``scenario run`` CLI and EXT-AUTONOMIC's
experiment cells.

Experiments that need bespoke measurement (Figure 9's bucketized
timelines, say) build through :class:`~repro.scenario.builder
.ScenarioBuilder` directly and keep their own analysis; this runner is
the zero-new-code path for scenarios defined purely in TOML.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.aging.watchdog import CrashWatchdog, HeapExhaustionCrasher
from repro.control import ControlLoop, PlanExecutor, periodic
from repro.scenario.builder import AttachedWorkload, BuiltScenario, build_scenario
from repro.scenario.spec import ScenarioSpec
from repro.units import KiB
from repro.workloads.fileread import first_and_second_read


@dataclasses.dataclass
class WorkloadReport:
    """Summary of one attached workload over the whole run."""

    kind: str
    vm: str
    metrics: dict[str, float]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "vm": self.vm, "metrics": dict(self.metrics)}


@dataclasses.dataclass
class ScenarioReport:
    """Plain-data outcome of one scenario run."""

    name: str
    hosts: int
    vms: int
    duration_s: float
    workloads: list[WorkloadReport]
    maintenance: dict[str, typing.Any]
    faults: dict[str, typing.Any]
    metrics: dict[str, list[dict[str, typing.Any]]] = dataclasses.field(
        default_factory=dict
    )
    """Registry snapshot (see :meth:`MetricsRegistry.snapshot`); empty
    unless the run's simulator had metrics enabled (``REPRO_METRICS=1``)."""

    policy: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    """Control-loop summary (see :meth:`ControlLoop.summary`) including
    the per-decision audit log; empty when no policy was attached."""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hosts": self.hosts,
            "vms": self.vms,
            "duration_s": self.duration_s,
            "workloads": [w.to_dict() for w in self.workloads],
            "maintenance": dict(self.maintenance),
            "faults": dict(self.faults),
            "metrics": dict(self.metrics),
            "policy": dict(self.policy),
        }

    def render(self) -> str:
        """A human-readable summary block."""
        lines = [
            f"scenario {self.name}: {self.hosts} host(s), {self.vms} VM(s), "
            f"{self.duration_s:.1f}s simulated"
        ]
        if self.maintenance:
            pairs = ", ".join(
                f"{key}={value}" for key, value in sorted(self.maintenance.items())
            )
            lines.append(f"  maintenance: {pairs}")
        if self.faults:
            pairs = ", ".join(
                f"{key}={value}" for key, value in sorted(self.faults.items())
            )
            lines.append(f"  faults: {pairs}")
        for workload in self.workloads:
            pairs = ", ".join(
                f"{key}={value:.4g}"
                for key, value in sorted(workload.metrics.items())
            )
            lines.append(f"  {workload.kind} on {workload.vm}: {pairs}")
        if self.metrics:
            series = sum(len(entries) for entries in self.metrics.values())
            lines.append(
                f"  metrics: {len(self.metrics)} name(s), {series} series"
            )
        if self.policy:
            lines.append(
                "  policy {strategy}: {cycles} cycle(s), "
                "{migrations} migration(s), {rejuvenations} "
                "rejuvenation(s), {deferred} deferred".format(**self.policy)
            )
        return "\n".join(lines)


def _maintenance_counts(kind: str, executor: PlanExecutor) -> dict[str, int]:
    """What the maintenance executor's audit says was done."""
    guests = sum(
        e["action"] == "rejuvenate-os" and e["outcome"] == "applied"
        for e in executor.audit
    )
    vmms = executor.rejuvenations - guests
    if kind == "periodic":
        counts = {"os_rejuvenations": guests, "vmm_rejuvenations": vmms}
    else:
        counts = {"hosts_rejuvenated": vmms}
    return {**counts, "failed": executor.failed}


def _measure(built: BuiltScenario, attached: AttachedWorkload) -> WorkloadReport:
    spec = attached.spec
    sim = built.sim
    if spec.kind == "httperf" and spec.mode == "fluid":
        client = attached.client
        metrics = {
            "requests": client.total_completed,
            "failures": client.failures,
            "mean_rate": client.mean_rate(),
            "downtime_s": client.downtime_s,
            "availability": client.availability(),
        }
    elif spec.kind == "httperf":
        client = attached.client
        metrics = {
            "requests": float(len(client.completion_times)),
            "failures": float(client.failures),
            "mean_rate": client.mean_rate(),
        }
    elif spec.kind == "prober":
        prober = attached.client
        metrics = {
            "outages": float(len(prober.outages)),
            "total_downtime_s": prober.total_downtime(),
            "longest_outage_s": prober.longest_outage(),
        }
    else:  # fileread: measure a first/second read pair at report time
        guest = built.guest(attached.vm_name)
        first, second = sim.run(
            sim.spawn(first_and_second_read(guest, attached.paths[0]))
        )
        metrics = {
            "first_read_bps": first.throughput,
            "second_read_bps": second.throughput,
        }
    return WorkloadReport(spec.kind, attached.vm_name, metrics)


def run_scenario(
    spec: ScenarioSpec, profile: typing.Any = None
) -> ScenarioReport:
    """Build ``spec``, drive its timeline, and summarize the run."""
    built = build_scenario(spec, profile=profile)
    sim = built.sim
    run_start = sim.now
    if spec.warmup_s > 0:
        sim.run(until=sim.now + spec.warmup_s)

    horizon = sim.now + spec.observe_s
    fault_report: dict[str, typing.Any] = {}
    crashers: list[HeapExhaustionCrasher] = []
    watchdogs: list[CrashWatchdog] = []
    if (
        spec.faults is not None
        and spec.faults.heap_leak_kib_per_hour > 0
        and spec.observe_s > 0
    ):
        for host in built.hosts:
            crasher = HeapExhaustionCrasher(
                host,
                leak_bytes_per_hour=int(spec.faults.heap_leak_kib_per_hour * KiB),
            )
            watchdog = CrashWatchdog(host)
            sim.spawn(crasher.run(horizon), name=f"crasher:{host.name}")
            sim.spawn(watchdog.run(horizon), name=f"watchdog:{host.name}")
            crashers.append(crasher)
            watchdogs.append(watchdog)

    control_loop: ControlLoop | None = None
    if spec.policy is not None and spec.observe_s > 0:
        control_loop = ControlLoop(
            sim,
            built.hosts,
            config=spec.policy,
            # Dependency inversion: the control layer sits below cluster,
            # so the migration mechanism is injected as a callable.
            migrate=built.migrate if built.cluster is not None else None,
        )
        sim.spawn(control_loop.run(horizon), name="control")

    maintenance_report: dict[str, typing.Any] = {}
    maintenance = spec.maintenance
    executor: PlanExecutor | None = None
    if maintenance is not None:
        maintenance_report["kind"] = maintenance.kind
        maintenance_report["strategy"] = maintenance.strategy
        if maintenance.kind == "reboot":
            # One measured mechanism, not a policy: its report is the
            # strategy's RebootReport.
            report = built.controller.rejuvenate(maintenance.strategy)
            maintenance_report["reboot_total_s"] = report.total
            maintenance_report["vmm_reboot_s"] = report.vmm_reboot_duration()
        else:  # periodic / rolling / migration: policies, one executor
            executor = built.executor()
            if maintenance.kind == "periodic":
                (host,) = built.hosts  # spec validation: a single host
                sim.spawn(
                    periodic(
                        executor,
                        host,
                        maintenance.strategy,
                        maintenance.os_interval_s,
                        maintenance.vmm_interval_s,
                        until=horizon,
                    ),
                    name=f"rejuvenate:{host.name}",
                )
            else:
                started = sim.now
                sim.run(sim.spawn(built.campaign(executor)))
                maintenance_report["maintenance_s"] = sim.now - started

    if sim.now < horizon:
        sim.run(until=horizon)
    if executor is not None:
        maintenance_report.update(_maintenance_counts(maintenance.kind, executor))
    if crashers:
        fault_report["crashes"] = sum(len(c.crashes) for c in crashers)
        fault_report["recoveries"] = sum(len(w.recoveries) for w in watchdogs)

    built.stop_workloads()
    reports = [_measure(built, attached) for attached in built.workloads]
    return ScenarioReport(
        name=spec.name,
        hosts=len(built.hosts),
        vms=sum(len(host.vm_specs) for host in built.hosts),
        duration_s=sim.now - run_start,
        workloads=reports,
        maintenance=maintenance_report,
        faults=fault_report,
        metrics=sim.metrics.snapshot() if sim.metrics.enabled else {},
        policy=control_loop.summary() if control_loop is not None else {},
    )
