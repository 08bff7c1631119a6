"""Command line for the observability tier.

Exposed as ``python -m repro.obs ...``::

    obs explain BUNDLE.json [--json]   # decision timelines from a bundle
    obs check [--out DIR]              # end-to-end self-check

``explain`` reconstructs every control-plane decision's causal chain
(detector trigger → plan → action spans → downtime consequence) from a
merged telemetry bundle alone — the file ``python -m repro.fleet run
--obs-out`` writes.

``check`` is the ``make obs-check`` gate, in two stages.  The first
drives one instrumented warm reboot and checks the single-simulation
exporters against each other: balanced spans, a critical path that
reconciles with the reboot report, a strict-JSON Perfetto document with
span and counter tracks, and a Prometheus page that parses back to every
counter and gauge.  The second runs a small 2-shard fleet with a policy
and an SLO and checks the merged pipeline: a bit-identical bundle JSON
round trip, the merged Prometheus page against the fleet report to zero
deviation, one timeline per decision, and the SLO verdict.  With
``--out`` both stages write their artifacts under DIR, and the bundle
and Perfetto writers are checked to reproduce their documents.

The scenario and fleet tiers sit *above* this package; the self-check
imports them lazily inside its stages.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing

from repro.analysis.obs import (
    parse_prometheus,
    perfetto_events,
    perfetto_json,
    reboot_critical_path,
    reconcile,
    render_prometheus,
    span_records,
    write_atomic,
    write_perfetto,
)
from repro.errors import AnalysisError, ReproError
from repro.obs.bundle import TelemetryBundle
from repro.obs.slo import render_slo
from repro.obs.timeline import decision_timelines, render_timelines
from repro.simkernel.metrics import METRIC_SCHEMA
from repro.units import kib


def _cmd_explain(args: argparse.Namespace) -> int:
    bundle = TelemetryBundle.load(args.bundle)
    timelines = decision_timelines(bundle)
    if args.json:
        json.dump(
            [timeline.to_dict() for timeline in timelines],
            sys.stdout,
            indent=2,
            allow_nan=False,
        )
        print()
    elif timelines:
        print(render_timelines(timelines))
    else:
        print(f"{args.bundle}: no control-plane decisions recorded")
    return 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AnalysisError(f"obs self-check failed: {message}")


def _check_single_host(out: pathlib.Path | None) -> None:
    """Stage 1: one instrumented warm reboot under httperf load, and the
    single-simulation exporters checked against each other."""
    from repro.scenario.builder import ScenarioBuilder
    from repro.scenario.spec import HostSpec, ScenarioSpec, VMSpec
    from repro.workloads.httperf import Httperf

    spec = ScenarioSpec(
        name="testbed",
        hosts=(HostSpec(vms=(VMSpec(count=3, services=("apache",)),)),),
    )
    controller = ScenarioBuilder(spec, metrics=True).build().controller
    sim = controller.sim
    guest = controller.guest("vm01")
    paths = guest.filesystem.create_many("/www", 50, kib(512))
    controller.run_process(guest.warm_file_cache(paths))
    client = Httperf(
        sim,
        lambda: controller.host.guest("vm01").service("apache"),
        paths,
        concurrency=2,
        name="obs-check",
    ).start()
    controller.run_for(10.0)
    report = controller.rejuvenate("warm")
    controller.run_for(30.0)
    client.stop()

    # 1. Every span must be closed (balanced begin/end).
    open_spans = sim.spans.open_spans()
    _require(not open_spans, f"unbalanced spans left open: {open_spans}")

    # 2. The span critical path must reconcile with the reboot report.
    spans = span_records(sim.trace)
    path = reboot_critical_path(spans)
    worst = reconcile(path, report)
    print(
        f"critical path: {len(path.entries)} phases, "
        f"total {path.total:.3f} s, worst deviation {worst:.2e} s"
    )

    # 3. The Perfetto export must be strict JSON with both track types.
    try:
        events = list(perfetto_events(spans, sim.metrics.series_snapshot()))
    except ValueError as exc:
        raise AnalysisError(
            f"obs self-check failed: Perfetto export is not strict JSON: {exc}"
        ) from exc
    encoded = perfetto_json(events)
    phases = [event["ph"] for event in json.loads(encoded)["traceEvents"]]
    print(
        f"perfetto: {phases.count('X')} span events, "
        f"{phases.count('C')} counter events, {len(encoded)} bytes"
    )
    _require("X" in phases, "Perfetto export contains no span events")
    _require("C" in phases, "Perfetto export contains no counter events")

    # 4. The Prometheus text must parse back to the snapshot's values.
    snapshot = sim.metrics.snapshot()
    text = render_prometheus(snapshot)
    parsed = parse_prometheus(text)
    plain = [
        (name, entry)
        for name, entries in snapshot.items()
        for entry in entries
        if "value" in entry
    ]
    for name, entry in plain:
        # The exposition's naming contract, stated independently.
        sample = "repro_" + name.replace(".", "_")
        if METRIC_SCHEMA[name].kind == "counter":
            sample += "_total"
        key = (sample, tuple(sorted(entry["labels"].items())))
        _require(
            parsed.get(key) == entry["value"],
            f"Prometheus round-trip lost {sample}: "
            f"{parsed.get(key)} != {entry['value']}",
        )
    print(
        f"prometheus: {len(parsed)} samples, "
        f"{len(plain)} counter/gauge values verified"
    )
    if out is not None:
        print(f"wrote {write_perfetto(out / 'trace.json', events)}")
        print(f"wrote {write_atomic(out / 'metrics.prom', text)}")


def _check_fleet_spec():
    """The self-check fleet: 2 hosts across 2 shards, fluid httperf,
    an aging-triggered rejuvenation policy, and a permissive SLO."""
    from repro.fleet.spec import FleetSpec

    return FleetSpec.from_dict(
        {
            "name": "obs-check",
            "shards": 2,
            "hosts": [
                {"count": 2, "vms": [{"count": 1, "services": ["apache"]}]}
            ],
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
            # Long enough for the policy's rejuvenation (first proposable
            # once the epoch reboot's fresh heap sees an allocation, ~140s)
            # to finish inside the horizon and land its audit record.
            "observe_s": 180.0,
            "policy": {
                "strategy": "fleet-order",
                "interval_s": 30.0,
                # Any nonzero heap utilization trips the aging detector,
                # so every cycle after cooldown proposes a rejuvenation —
                # the decisions the timeline reconstruction is gated on.
                # (A freshly booted VMM heap sits near 5e-4 utilization.)
                "aging_threshold": 0.0001,
                "aging_rearm": 0.0,
                "cooldown_s": 60.0,
                "min_hosts_up": 0,
            },
            "slo": {
                # Permissive on purpose: the run performs two full warm
                # reboots per host inside the window, and the gate is
                # that the verdict reproduces, not that the fleet is calm.
                "availability": 0.3,
                "downtime_budget_s": 500.0,
                "window_s": 60.0,
            },
        }
    )


def _check_zero_deviation(bundle: TelemetryBundle, report) -> None:
    """The merged Prometheus page must reproduce the fleet report's
    per-workload availability and downtime exactly (repr round-trip,
    not within-tolerance)."""
    parsed = parse_prometheus(bundle.to_prometheus())
    host_shard = bundle.host_shard()
    for metric, field in (
        ("repro_fleet_availability", "availability"),
        ("repro_fleet_downtime_seconds", "downtime_s"),
    ):
        samples = {}
        for (name, label_items), value in parsed.items():
            if name != metric:
                continue
            labels = dict(label_items)
            samples[(labels["host"], labels["vm"])] = (value, labels)
        rows = [row for row in report.rows if field in row]
        _require(
            len(samples) == len(rows),
            f"{metric}: {len(samples)} sample(s) vs {len(rows)} report row(s)",
        )
        for row in rows:
            value, labels = samples[(row["host"], row["vm"])]
            _require(
                value == row[field],
                f"{metric}{{host={row['host']}}}: page says {value!r}, "
                f"report says {row[field]!r}",
            )
            _require(
                labels.get("shard") == str(host_shard[row["host"]]),
                f"{metric}{{host={row['host']}}}: shard label "
                f"{labels.get('shard')!r} disagrees with provenance "
                f"{host_shard[row['host']]}",
            )


def _check_timelines(bundle: TelemetryBundle, report) -> None:
    """Every control-plane decision must reconstruct its causal chain
    from the merged telemetry alone."""
    timelines = decision_timelines(bundle)
    audited = len(report.policy.get("audit", ()))
    _require(
        len(timelines) == audited,
        f"{len(timelines)} timeline(s) for {audited} audit entr(ies)",
    )
    _require(audited > 0, "the policy recorded no decisions to explain")
    for timeline in timelines:
        outcome = timeline.decision["outcome"]
        if outcome == "deferred":
            _require(
                timeline.action is None and timeline.cycle is not None,
                f"deferred decision at t={timeline.decision['time']} "
                "should resolve to a cycle span only",
            )
        else:
            _require(
                timeline.action is not None,
                f"{outcome} decision at t={timeline.decision['time']} "
                "has no control.action span",
            )
        if timeline.decision["action"].startswith("rejuvenate"):
            _require(
                timeline.trigger is not None
                and timeline.trigger["detector"] == "aging",
                f"rejuvenation at t={timeline.decision['time']} lost its "
                "aging trigger",
            )
            if outcome == "applied":
                _require(
                    any(
                        span["name"] == "reboot"
                        for span in timeline.mechanisms
                    ),
                    f"applied rejuvenation at t={timeline.decision['time']} "
                    "has no reboot mechanism span",
                )


def _check_fleet(out: pathlib.Path | None) -> None:
    """Stage 2: a 2-shard fleet's merged telemetry, SLO and timelines."""
    from repro.fleet.runner import run_fleet

    spec = _check_fleet_spec()
    report = run_fleet(spec, jobs=1, use_cache=False)
    _require(bool(report.telemetry), "fleet run produced no telemetry")
    bundle = TelemetryBundle.from_dict(report.telemetry)

    # 1. The bundle must survive a strict-JSON round trip bit-identically.
    encoded = json.dumps(bundle.to_dict(), allow_nan=False)
    _require(
        TelemetryBundle.from_dict(json.loads(encoded)).to_dict()
        == bundle.to_dict(),
        "bundle JSON round-trip drifted",
    )

    # 2. Merged Prometheus page == fleet report, to zero deviation.
    _check_zero_deviation(bundle, report)

    # 3. Every decision explains itself from the bundle alone.
    _check_timelines(bundle, report)

    # 4. The SLO verdict must hold and be recomputable from the bundle.
    _require(bool(report.slo), "fleet run produced no SLO report")
    _require(
        report.slo["passed"],
        "the self-check SLO should pass: " + render_slo(report.slo),
    )

    print(report.render())
    timelines = decision_timelines(bundle)
    print(f"obs check: {len(timelines)} decision timeline(s) reconstructed")
    if out is None:
        return
    # 5. The writers: write -> load -> write is byte-stable, and the
    # Perfetto file parses back to the document it was written from.
    bundle_path = bundle.write(out / "fleet.bundle.json")
    written = bundle_path.read_bytes()
    TelemetryBundle.load(bundle_path).write(bundle_path)
    _require(
        bundle_path.read_bytes() == written,
        f"{bundle_path}: write -> load -> write changed the bytes",
    )
    print(f"wrote {bundle_path}")
    perfetto_path = bundle.write_perfetto(out / "fleet.perfetto.json")
    _require(
        json.loads(perfetto_path.read_text(encoding="utf-8"))
        == bundle.to_perfetto(),
        f"{perfetto_path}: does not parse back to the bundle's "
        "Perfetto document",
    )
    print(f"wrote {perfetto_path}")
    print(f"wrote {bundle.write_prometheus(out / 'fleet.prom')}")
    slo_path = out / "fleet.slo.txt"
    slo_path.write_text(render_slo(report.slo) + "\n", encoding="utf-8")
    print(f"wrote {slo_path}")
    timelines_path = out / "fleet.timelines.txt"
    timelines_path.write_text(
        render_timelines(timelines) + "\n", encoding="utf-8"
    )
    print(f"wrote {timelines_path}")


def _cmd_check(args: argparse.Namespace) -> int:
    out = None
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    _check_single_host(out)
    _check_fleet(out)
    print("obs check: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.obs`` argument parser (``explain``, ``check``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability: explain fleet decisions, "
        "self-check the telemetry pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser(
        "explain",
        help="reconstruct control-plane decision timelines from a merged "
        "telemetry bundle",
    )
    explain.add_argument("bundle", metavar="BUNDLE.json")
    explain.add_argument(
        "--json", action="store_true",
        help="emit the timelines as JSON instead of text",
    )
    explain.set_defaults(fn=_cmd_explain)

    check = sub.add_parser(
        "check",
        help="run one instrumented reboot, then a 2-shard fleet, and "
        "verify spans, exporters, merged telemetry, SLO and timeline "
        "invariants end-to-end",
    )
    check.add_argument(
        "--out", metavar="DIR", default=None,
        help="also write the artifacts under DIR: the single run's "
        "Perfetto trace and Prometheus page, then the fleet's bundle, "
        "Perfetto, Prometheus, SLO report and timelines",
    )
    check.set_defaults(fn=_cmd_check)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    """``python -m repro.obs``; a package error prints one ``error:``
    line and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
