"""Worker-side execution of one fleet shard.

:func:`run_fleet_shard` is a parallel-sweep cell function: plain dict
plan in (see :meth:`~repro.fleet.spec.FleetSpec.shard_plans`), plain
dict payload out.  It materializes the shard's hosts through
:class:`~repro.scenario.builder.ScenarioBuilder`, enforces the epoch
barrier (bring-up must finish inside ``warmup_s``; reboots start at
absolute epoch times), and measures every workload over the fleet-wide
observation window ``[warmup_s, warmup_s + observe_s]`` — the same
wall-aligned window in every shard, which is what makes merged shard
payloads identical to a serial single-simulation run for fluid
workloads.
"""

from __future__ import annotations

import typing
from bisect import bisect_left, bisect_right

from repro.control.loop import ControlLoop
from repro.core.strategies import RebootStrategy
from repro.errors import FleetError
from repro.obs.bundle import capture_shard
from repro.scenario.builder import AttachedWorkload, BuiltScenario, ScenarioBuilder
from repro.scenario.spec import ScenarioSpec
from repro.workloads.httperf import FluidHttperf, Httperf
from repro.workloads.prober import PingProber


def _measure_window(
    attached: AttachedWorkload, since: float, until: float
) -> dict[str, float]:
    """One client's cross-validation row over the observation window.

    Fluid clients integrate their tick log; exact clients window their
    columnar completion log, and estimate downtime from the retry ledger
    (each failure is one worker sleeping ``retry_interval_s``, so
    ``failures * retry / concurrency`` is wall-clock unreachable time —
    quantized exactly like the fluid model's tick sampling).
    """
    client = attached.client
    if isinstance(client, FluidHttperf):
        return client.window_summary(since, until)
    if isinstance(client, Httperf):
        span = until - since
        times = client.completion_times
        lo, hi = bisect_left(times, since), bisect_right(times, until)
        downtime = (
            client.failures * client.retry_interval_s / client.concurrency
        )
        return {
            "requests": float(hi - lo),
            "failures": float(client.failures),
            "mean_rate": client.mean_rate(since, until),
            "downtime_s": downtime,
            "availability": 1.0 - min(downtime, span) / span if span > 0
            else 1.0,
        }
    if isinstance(client, PingProber):
        return {
            "outages": float(len(client.outages)),
            "downtime_s": client.total_downtime(),
            "longest_outage_s": client.longest_outage(),
        }
    raise FleetError(
        f"workload kind {attached.spec.kind!r} has no fleet measurement"
    )


def _rejuvenate(
    built: BuiltScenario,
    host: typing.Any,
    strategy: RebootStrategy,
    start: float,
    deadline: float,
    durations: dict[str, float],
    overruns: list[str],
) -> typing.Generator:
    """One host's epoch-scheduled VMM reboot (a process).

    A policy reboot may hold the host when the slot opens; the epoch
    reboot then starts as soon as that one ends, and the wait counts
    toward the epoch (a late finish is an overrun).
    """
    sim = built.sim
    yield sim.timeout(start - sim.now)
    while host.rebooting:
        yield host.reboot_finished()
    with sim.spans.span("fleet.host", actor=host.name, detail=strategy.value):
        yield from host.reboot(strategy)
    durations[host.name] = sim.now - start
    if sim.now > deadline:
        overruns.append(host.name)


def run_fleet_shard(shard: dict) -> dict:
    """Execute one shard plan to completion; returns a plain payload."""
    spec = ScenarioSpec.from_dict(shard["spec_data"])
    schedule: dict[str, float] = shard["schedule"]
    strategy = RebootStrategy(shard["strategy"])
    epoch_s = float(shard["epoch_s"])
    warmup = float(shard["warmup_s"])
    horizon = warmup + float(shard["observe_s"])
    telemetry = bool(shard.get("telemetry"))

    built = ScenarioBuilder(
        spec,
        # Telemetry collection needs the metric series even without a
        # policy; None keeps the spec-driven default.
        metrics=True if telemetry else None,
    ).build()
    sim = built.sim
    bringup_s = sim.now
    if bringup_s >= warmup:
        raise FleetError(
            f"shard {shard.get('shard')}: bring-up took {bringup_s:.1f}s but "
            f"warmup_s is {warmup}; the epoch barrier needs "
            "warmup_s to exceed every shard's bring-up — raise warmup_s"
        )

    durations: dict[str, float] = {}
    overruns: list[str] = []
    for host in built.hosts:
        start = schedule.get(host.name)
        if start is None:
            raise FleetError(
                f"shard {shard.get('shard')}: host {host.name!r} has no "
                "epoch schedule entry"
            )
        sim.spawn(
            _rejuvenate(
                built, host, strategy, float(start), float(start) + epoch_s,
                durations, overruns,
            ),
            name=f"fleet.rejuvenate:{host.name}",
        )
    control_loop = None
    if spec.policy is not None:
        # A policy-enabled shard runs its own control loop over its
        # hosts.  Decisions are a pure function of shard-local state on
        # the absolute grid, so sharding never changes them; migrations
        # stay shard-local (the loop only sees this shard's hosts).
        control_loop = ControlLoop(
            sim, built.hosts, config=spec.policy.to_control_config()
        )
        sim.spawn(control_loop.run(horizon), name="fleet.control")
    sim.run(until=horizon)
    built.stop_workloads()

    rows = [
        {
            "host": attached.host.name,
            "vm": attached.vm_name,
            "kind": attached.spec.kind,
            "mode": attached.spec.mode,
            "sessions": attached.spec.sessions
            if attached.spec.mode == "fluid" else attached.spec.concurrency,
            **_measure_window(attached, warmup, horizon),
        }
        for attached in built.workloads
    ]
    policy_summary = control_loop.summary() if control_loop is not None else {}
    shard_index = int(shard.get("shard", 0))
    blob: dict = {}
    if telemetry:
        # Publish each measured row's SLIs as gauges so the merged bundle
        # carries exactly the values the fleet report reports — the
        # zero-deviation agreement the obs-check gate asserts.
        for row in rows:
            labels = {
                "host": row["host"], "vm": row["vm"], "kind": row["kind"],
            }
            if "downtime_s" in row:
                sim.metrics.gauge("fleet.downtime_seconds", **labels).set(
                    row["downtime_s"]
                )
            if "availability" in row:
                sim.metrics.gauge("fleet.availability", **labels).set(
                    row["availability"]
                )
        blob = capture_shard(
            sim,
            shard_index,
            [host.name for host in built.hosts],
            audit=policy_summary.get("audit", ()),
            triggers=policy_summary.get("trigger_log", ()),
        ).to_dict()
    return {
        "fleet": shard.get("fleet", spec.name),
        "shard": shard_index,
        "hosts": len(built.hosts),
        "vms": sum(len(host.vm_specs) for host in built.hosts),
        "bringup_s": bringup_s,
        "reboot_s": dict(sorted(durations.items())),
        "overruns": sorted(overruns),
        "rows": rows,
        "policy": policy_summary,
        "telemetry": blob,
    }
