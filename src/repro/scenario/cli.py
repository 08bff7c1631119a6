"""Command line for the scenario layer.

Exposed both as ``python -m repro.scenario ...`` and through the
experiments CLI as ``python -m repro.experiments.cli scenario ...``::

    scenario list                 # registered scenarios
    scenario validate SPEC...     # schema-check TOML files
    scenario build NAME|SPEC...   # dry-build: materialize the stack
    scenario run NAME|SPEC        # full run, prints the report
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from repro.control import ControlConfig
from repro.errors import ScenarioError
from repro.scenario import registry
from repro.scenario.builder import build_scenario
from repro.scenario.runner import run_scenario
from repro.scenario.spec import load_toml


def _cmd_list(args: argparse.Namespace) -> int:
    for name in registry.names():
        spec = registry.get(name)
        print(f"{name:24s} {spec.description}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.specs:
        spec = load_toml(path)
        print(f"{path}: ok ({spec.name}: {spec.host_count} host(s))")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    for target in args.specs:
        spec = registry.resolve(target)
        built = build_scenario(spec)
        vms = sum(len(host.vm_specs) for host in built.hosts)
        print(
            f"{target}: built {spec.name!r} — {len(built.hosts)} host(s), "
            f"{vms} VM(s), {len(built.workloads)} workload(s), "
            f"up at t={built.sim.now:.1f}s"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = registry.resolve(args.spec)
    if args.policy:
        policy = {**(spec.policy or ControlConfig()).to_dict(), "strategy": args.policy}
        spec = dataclasses.replace(spec, policy=ControlConfig.from_dict(policy))
    if args.trace_out:
        from repro.analysis.obs import (
            capture_simulators,
            perfetto_events,
            span_records,
            write_perfetto,
        )

        with capture_simulators() as sims:
            report = run_scenario(spec)
        for sim in sims:
            events = perfetto_events(
                span_records(sim.trace), sim.metrics.series_snapshot()
            )
            print(f"wrote {write_perfetto(args.trace_out, events)}")
    else:
        report = run_scenario(spec)
    print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description="Declarative scenario specs: list, validate, build, run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered scenarios").set_defaults(
        fn=_cmd_list
    )

    validate = sub.add_parser("validate", help="schema-check TOML spec files")
    validate.add_argument("specs", nargs="+", metavar="SPEC.toml")
    validate.set_defaults(fn=_cmd_validate)

    build = sub.add_parser(
        "build", help="dry-build: materialize and start each stack"
    )
    build.add_argument("specs", nargs="+", metavar="NAME|SPEC.toml")
    build.set_defaults(fn=_cmd_build)

    run = sub.add_parser("run", help="run one scenario end-to-end")
    run.add_argument("spec", metavar="NAME|SPEC.toml")
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Perfetto trace (spans + metric counter tracks) of "
        "the run; implies metrics collection (REPRO_METRICS=1)",
    )
    run.add_argument(
        "--policy",
        metavar="STRATEGY",
        default=None,
        help="enable (or override) the autonomic control loop with this "
        "placement strategy",
    )
    run.set_defaults(fn=_cmd_run)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
