"""Command line for the fleet tier.

Exposed as ``python -m repro.fleet ...``::

    fleet validate SPEC...        # schema-check fleet TOML files
    fleet run SPEC [--jobs N]     # run every shard, print the report

``fleet run --obs-out PATH`` writes the *merged* telemetry bundle (all
shards, with host→shard provenance) as one JSON document — the input
``python -m repro.obs explain`` reconstructs decision timelines from.

``fleet run --trace-out PATH`` writes one Perfetto trace per shard
(``PATH`` gains a ``.shardN`` suffix), each rebuilt from that shard's
blob in the merged bundle, so control-plane decisions (``control.cycle``
/ ``control.action`` spans and the ``control.decision`` records) are
inspectable per shard under any ``--jobs`` and with ``--cache``.

Either flag forces telemetry collection on, even when the spec states
no ``[slo]`` table and no ``telemetry = true``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from repro.control import ControlConfig
from repro.errors import FleetError, ScenarioError
from repro.fleet.runner import run_fleet
from repro.fleet.spec import load_fleet_toml


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.specs:
        spec = load_fleet_toml(path)
        print(
            f"{path}: ok ({spec.name}: {spec.host_count} host(s), "
            f"{spec.sessions} fluid session(s), {len(spec.shard_plans())} "
            f"shard(s), {spec.epochs} epoch(s))"
        )
    return 0


def _trace_suffixed(path: str, shard: int) -> str:
    """``fleet.json`` -> ``fleet.shard0.json`` (suffix before the ext)."""
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.shard{shard}"
    return f"{stem}.shard{shard}.{ext}"


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_fleet_toml(args.spec)
    if args.policy:
        policy = {**(spec.policy or ControlConfig()).to_dict(), "strategy": args.policy}
        spec = dataclasses.replace(spec, policy=ControlConfig.from_dict(policy))
    observed = bool(args.obs_out or args.trace_out)
    if observed and not spec.telemetry_enabled:
        spec = dataclasses.replace(spec, telemetry=True)
    report = run_fleet(spec, jobs=args.jobs, use_cache=args.cache)
    if observed:
        from repro.analysis.obs import write_perfetto
        from repro.obs.bundle import TelemetryBundle

        bundle = TelemetryBundle.from_dict(report.telemetry)
        if args.trace_out:
            for shard in bundle.shards:
                out = _trace_suffixed(args.trace_out, shard.shard)
                print(f"wrote {write_perfetto(out, shard.perfetto_events())}")
        if args.obs_out:
            print(f"wrote {bundle.write(args.obs_out)}")
    print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Sharded fleet runs: validate and run fleet specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="schema-check fleet TOML files")
    validate.add_argument("specs", nargs="+", metavar="SPEC.toml")
    validate.set_defaults(fn=_cmd_validate)

    run = sub.add_parser("run", help="run one fleet end-to-end")
    run.add_argument("spec", metavar="SPEC.toml")
    run.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the shard fan-out (default: cpu count); "
        "1 runs shards serially in-process",
    )
    run.add_argument(
        "--cache", action="store_true",
        help="content-address shard payloads in the experiments cache",
    )
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write one Perfetto trace per shard (PATH gains a .shardN "
        "suffix); implies telemetry collection",
    )
    run.add_argument(
        "--obs-out",
        metavar="PATH",
        default=None,
        help="write the merged fleet telemetry bundle as one JSON "
        "document (implies telemetry collection); explain it with "
        "`python -m repro.obs explain PATH`",
    )
    run.add_argument(
        "--policy",
        metavar="STRATEGY",
        default=None,
        help="enable (or override) the autonomic control loop with this "
        "placement strategy on every shard",
    )
    run.set_defaults(fn=_cmd_run)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FleetError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
