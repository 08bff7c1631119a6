"""Command-line entry point: ``roothammer-experiments``.

Usage::

    roothammer-experiments --list
    roothammer-experiments FIG6 SEC52
    roothammer-experiments --all --full
    python -m repro.experiments.cli run --all --jobs 4
    python -m repro.experiments.cli scenario list
    python -m repro.experiments.cli scenario run examples/mixed_rolling.toml

Sweeps run through the parallel cell runner by default: independent
measurement cells fan across ``--jobs`` worker processes and completed
cells are memoised in a content-addressed cache (disable with
``--no-cache``; ``--jobs 1`` executes the same cells in-process).

``scenario ...`` dispatches to the declarative scenario layer's CLI
(:mod:`repro.scenario.cli`): list registered scenarios, validate or
dry-build TOML specs, and run arbitrary spec files with zero new code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import sys
import time
import typing

from repro.errors import ReproError
from repro.experiments import (
    describe,
    experiment_ids,
)


def main(argv: typing.Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scenario":
        from repro.scenario.cli import main as scenario_main

        return scenario_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="roothammer-experiments",
        description=(
            "Reproduce the evaluation of 'A Fast Rejuvenation Technique "
            "for Server Consolidation with Virtual Machines' (DSN 2007)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids (FIG4, FIG5, SEC52, FIG6, SEC53, FIG7, FIG8, "
        "SEC56, FIG9, FIG2); an optional leading 'run' token is accepted, "
        "and 'scenario ...' dispatches to the scenario-layer CLI",
    )
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full sweep sizes (slower)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the cell sweep (default: all CPUs)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of reusing cached payloads",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete all cached cell payloads and exit",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        help="also write each result as CSV and JSON into DIR",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Perfetto trace (spans + metric counters) per "
        "simulation; forces --jobs 1 and --no-cache and enables metrics, "
        "since capture needs every cell to run in-process",
    )
    args = parser.parse_args(argv)

    if args.list:
        for key in experiment_ids():
            print(f"{key:6s} {describe(key)}")
        return 0

    from repro.experiments.parallel import run_all_parallel
    from repro.jobs import SweepStats, clear_cache

    if args.clear_cache:
        print(f"removed {clear_cache()} cached payload(s)")
        return 0

    ids = list(args.experiments)
    if ids and ids[0].lower() == "run":  # `cli run --all --jobs N` quickstart
        ids = ids[1:]
    targets = experiment_ids() if args.all else [e.upper() for e in ids]
    if not targets:
        parser.error("give experiment ids, --all, or --list")

    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    use_cache = not args.no_cache
    capture: typing.Any = contextlib.nullcontext([])
    if args.trace_out:
        from repro.analysis.obs import capture_simulators

        jobs = 1  # subprocess cells would escape the capture hook
        use_cache = False  # cached cells build no simulator to capture
        capture = capture_simulators()
    stats = SweepStats()
    # perf_counter, not time.time: wall time jumps under NTP (simlint SL001).
    started = time.perf_counter()
    try:
        with capture as captured:
            results = run_all_parallel(
                full=args.full,
                jobs=jobs,
                use_cache=use_cache,
                experiments=targets,
                stats=stats,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    if args.trace_out:
        from repro.analysis.obs import (
            perfetto_events,
            span_records,
            write_perfetto,
        )

        target = pathlib.Path(args.trace_out)
        for index, sim in enumerate(captured):
            path = (
                target
                if len(captured) == 1
                else target.with_name(
                    f"{target.stem}-{index:02d}{target.suffix or '.json'}"
                )
            )
            events = perfetto_events(
                span_records(sim.trace), sim.metrics.series_snapshot()
            )
            print(f"  wrote {write_perfetto(path, events)}")

    failures = 0
    for key in targets:
        result = results[key]
        print(result.render())
        print()
        if args.export:
            from repro.analysis.export import write_result

            for path in write_result(result, args.export):
                print(f"  wrote {path}")
        if not result.shape_reproduced:
            failures += 1
    print(
        f"[{len(targets)} experiment(s) in {elapsed:.1f}s wall clock; "
        f"{stats.total_cells} cells, {stats.cache_hits} cached, "
        f"{stats.executed} executed, jobs={jobs}]"
    )
    if failures:
        print(f"{failures} experiment(s) deviated from the paper's shape",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
