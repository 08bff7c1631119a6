"""Wall-clock performance report and regression gate.

Writes ``BENCH_PERF.json`` at the repo root (committed, so every change
to it shows up in review) and checks fresh measurements against it::

    PYTHONPATH=src python benchmarks/perf_report.py --write --jobs 4
    PYTHONPATH=src python benchmarks/perf_report.py --check --mode quick

``--check`` fails (exit 1) when any guarded number regresses by more
than the tolerance against the committed baseline — wall clocks slower,
or kernel throughputs lower, by more than the allowed ratio (default
1.30, i.e. 30 %).  Kernel throughputs are guarded per scheduler backend
(the ``kernel.backends`` matrix) and fleet wall clocks per hosts × mode
cell (the ``fleet.matrix``, schema 5).  Three gates are *relative within
the fresh run* and therefore hardware-independent and tolerance-free:
the batched scheduler must beat the reference (the binary-heap test
oracle, ``tests/simkernel/heap_oracle.py``) on events/sec by at least
``BATCHED_MIN_SPEEDUP``, the fluid workload mode must beat exact
mode's wall clock by at least ``FLUID_MIN_SPEEDUP`` on the largest
fleet size both modes run, and the disabled-telemetry event-loop tax
(``kernel.telemetry.overhead_ratio``, schema 5) must stay under
``TELEMETRY_MAX_OVERHEAD``.  Override the
regression ratio with ``--tolerance 1.5`` or the
``REPRO_PERF_TOLERANCE`` environment variable when checking on hardware
slower than the baseline machine; rewrite the baseline itself with
``make perf-write`` on quiet hardware.  ``--mode quick`` restricts the
measurement to the kernel micro-benchmarks plus a handful of sub-second
experiments so CI pays seconds, not a full sweep; ``--smoke``
is a legacy alias for ``--mode quick``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time
import typing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_PERF.json"

# Allow `python benchmarks/perf_report.py` from the repo root: the script
# dir (benchmarks/) is sys.path[0], the package root is not.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

SMOKE_IDS = ("FIG2", "FIG4", "FIG5", "SEC53", "EXT-GRANULARITY")
"""Sub-second experiments: enough to catch a hot-path regression without
CI paying for the full sweep."""

REGRESSION_SLACK = 1.30
"""Default tolerance: a guarded number may move 30 % in the bad direction
before --check fails.  Overridable per run (--tolerance /
REPRO_PERF_TOLERANCE) because wall clocks are hardware-relative."""

BATCHED_MIN_SPEEDUP = 1.5
"""The batched scheduler must beat the heap oracle on events/sec by at least
this factor *within one measurement run*.  Same-run relative, so no
hardware tolerance applies — both backends saw the same machine."""

FLUID_MIN_SPEEDUP = 10.0
"""The fluid workload mode must beat exact mode's wall clock by at least
this factor on the largest fleet size both modes run (schema 4,
``fleet.fluid_speedup``).  Same-run relative, like the backend gate."""

TELEMETRY_MAX_OVERHEAD = 1.5
"""Ceiling on the disabled-telemetry event-loop tax (schema 5,
``kernel.telemetry.overhead_ratio``): a ticker fleet making disabled
metric/span calls every tick must stay within this factor of the plain
fleet's events/sec.  Same-run relative — both loops ran seconds apart on
the same machine — so no hardware tolerance applies.  The measured ratio
sits near 1.3 (two no-op registry lookups per ~1 µs tick); the ceiling
catches the real failure mode, a "disabled" path that starts allocating
or recording."""


def default_tolerance() -> float:
    """The tolerance ratio from ``REPRO_PERF_TOLERANCE``, else the default.

    Raises :class:`ValueError` for unparsable or nonsensical (< 1.0)
    values rather than silently gating CI on garbage.
    """
    raw = os.environ.get("REPRO_PERF_TOLERANCE")
    if raw is None:
        return REGRESSION_SLACK
    try:
        tolerance = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_PERF_TOLERANCE={raw!r} is not a number"
        ) from None
    if tolerance < 1.0:
        raise ValueError(
            f"REPRO_PERF_TOLERANCE={raw} is below 1.0; the tolerance is a "
            "ratio (1.30 allows 30% regression)"
        )
    return tolerance


def measure_experiments(ids: typing.Sequence[str]) -> dict[str, float]:
    """Serial wall clock per experiment id (quick mode)."""
    from repro.experiments import run_experiment

    timings: dict[str, float] = {}
    for key in ids:
        started = time.perf_counter()
        run_experiment(key)
        timings[key] = round(time.perf_counter() - started, 3)
    return timings


def measure_run_all(jobs: int) -> dict[str, typing.Any]:
    """Serial, cold-parallel and cached-parallel full-sweep wall clocks.

    The parallel runs use a throwaway cache directory: "cold" measures a
    first run that also populates the cache, "cached" the pure-replay
    re-run — the two ends every real invocation falls between.
    """
    from repro.experiments import run_all
    from repro.experiments.parallel import run_all_parallel

    started = time.perf_counter()
    run_all()
    serial_s = time.perf_counter() - started

    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    old_cache = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = tmp
    try:
        started = time.perf_counter()
        run_all_parallel(jobs=jobs, use_cache=True)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        run_all_parallel(jobs=jobs, use_cache=True)
        cached_s = time.perf_counter() - started
    finally:
        if old_cache is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "jobs": jobs,
        "serial_s": round(serial_s, 2),
        "parallel_cold_s": round(cold_s, 2),
        "parallel_cached_s": round(cached_s, 2),
    }


def measure(smoke: bool, jobs: int) -> dict[str, typing.Any]:
    from benchmarks.bench_fleet import measure as measure_fleet
    from benchmarks.bench_kernel import measure as measure_kernel
    from repro.experiments import experiment_ids

    report: dict[str, typing.Any] = {
        "schema": 5,
        "mode": "quick" if smoke else "full",
        "kernel": measure_kernel(),
        "fleet": measure_fleet(full=not smoke, jobs=jobs),
        "experiments_s": measure_experiments(
            SMOKE_IDS if smoke else experiment_ids()
        ),
    }
    if not smoke:
        report["run_all"] = measure_run_all(jobs)
    return report


def check(
    fresh: dict[str, typing.Any],
    baseline: dict[str, typing.Any],
    tolerance: float = REGRESSION_SLACK,
) -> int:
    """Compare a fresh measurement to the committed baseline; returns the
    number of beyond-tolerance regressions (and prints each guarded
    comparison)."""
    failures = 0

    def guard(label: str, base: float, now: float, higher_is_better: bool) -> None:
        nonlocal failures
        if higher_is_better:
            bad = now * tolerance < base
        else:
            bad = now > base * tolerance
        mark = "FAIL" if bad else "ok"
        print(f"  [{mark}] {label}: baseline {base:g}, now {now:g}")
        if bad:
            failures += 1

    fresh_kernel = fresh["kernel"]
    for metric, base in baseline.get("kernel", {}).items():
        if metric == "backends":
            # Schema >= 3: per-backend throughput matrix.
            for name, cells in base.items():
                fresh_cells = fresh_kernel.get("backends", {}).get(name, {})
                for cell, cell_base in cells.items():
                    now = fresh_cells.get(cell)
                    if now is not None:
                        guard(
                            f"kernel [{name}] {cell}",
                            cell_base,
                            now,
                            higher_is_better=True,
                        )
            continue
        if metric in ("batched_speedup", "telemetry"):
            continue  # gated below against the fresh run, not the baseline
        now = fresh_kernel.get(metric)
        if now is not None:
            guard(f"kernel {metric}", base, now, higher_is_better=True)

    # Same-run relative gate, hardware-independent: the batched backend
    # must earn its keep against the reference measured seconds apart on
    # the same machine.  No tolerance — both sides saw identical noise.
    speedup = fresh_kernel.get("batched_speedup")
    if speedup is not None:
        bad = speedup < BATCHED_MIN_SPEEDUP
        mark = "FAIL" if bad else "ok"
        print(
            f"  [{mark}] kernel batched_speedup (same-run): "
            f"required >= {BATCHED_MIN_SPEEDUP}, now {speedup:g}"
        )
        if bad:
            failures += 1

    # Same-run relative, like the backend gate: instrumentation left in
    # actor code must stay near-free while telemetry is disabled.
    overhead = fresh_kernel.get("telemetry", {}).get("overhead_ratio")
    if overhead is not None:
        bad = overhead > TELEMETRY_MAX_OVERHEAD
        mark = "FAIL" if bad else "ok"
        print(
            f"  [{mark}] kernel telemetry overhead_ratio (same-run): "
            f"required <= {TELEMETRY_MAX_OVERHEAD}, now {overhead:g}"
        )
        if bad:
            failures += 1

    # Schema >= 4: the fleet hosts x mode wall-clock matrix, plus the
    # same-run fluid-vs-exact speedup gate (hardware-independent for the
    # same reason as the backend gate).
    fresh_fleet = fresh.get("fleet", {})
    for size, cells in baseline.get("fleet", {}).get("matrix", {}).items():
        fresh_cells = fresh_fleet.get("matrix", {}).get(size, {})
        for cell, cell_base in cells.items():
            if not cell.endswith("_s"):
                continue  # context fields (session counts), not walls
            now = fresh_cells.get(cell)
            if now is not None:
                guard(
                    f"fleet [{size} hosts] {cell}",
                    cell_base,
                    now,
                    higher_is_better=False,
                )
    fluid_speedup = fresh_fleet.get("fluid_speedup")
    if fluid_speedup is not None:
        bad = fluid_speedup < FLUID_MIN_SPEEDUP
        mark = "FAIL" if bad else "ok"
        print(
            f"  [{mark}] fleet fluid_speedup (same-run): "
            f"required >= {FLUID_MIN_SPEEDUP}, now {fluid_speedup:g}"
        )
        if bad:
            failures += 1

    for key, base in baseline.get("experiments_s", {}).items():
        now = fresh["experiments_s"].get(key)
        if now is not None:
            guard(f"{key} wall clock (s)", base, now, higher_is_better=False)
    return failures


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="measure and (over)write BENCH_PERF.json")
    parser.add_argument("--check", action="store_true",
                        help="measure and compare against BENCH_PERF.json")
    parser.add_argument("--mode", choices=("quick", "full"), default=None,
                        help="quick: kernel micro-benchmarks + fast "
                             "experiments only; full: everything incl. the "
                             "run_all sweep (default)")
    parser.add_argument("--smoke", action="store_true",
                        help="legacy alias for --mode quick")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the run_all timing")
    parser.add_argument("--tolerance", type=float, default=None,
                        metavar="RATIO",
                        help="allowed regression ratio for --check (default "
                             f"{REGRESSION_SLACK}, i.e. 30%%; or set "
                             "REPRO_PERF_TOLERANCE); raise it when checking "
                             "on slower hardware, or rebaseline with --write")
    args = parser.parse_args(argv)
    if not (args.write or args.check):
        parser.error("give --write and/or --check")
    try:
        tolerance = (
            args.tolerance if args.tolerance is not None else default_tolerance()
        )
    except ValueError as exc:
        parser.error(str(exc))
    if tolerance < 1.0:
        parser.error(f"--tolerance {tolerance} is below 1.0; it is a ratio "
                     "(1.30 allows 30% regression)")
    quick = args.smoke or args.mode == "quick"

    fresh = measure(smoke=quick, jobs=args.jobs)

    exit_code = 0
    if args.check:
        if not BENCH_PATH.exists():
            print(f"no baseline at {BENCH_PATH}; run with --write first",
                  file=sys.stderr)
            return 2
        baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        slack_pct = f"{tolerance - 1.0:.0%}"
        print(f"perf check vs {BENCH_PATH.name} (tolerance {slack_pct}):")
        failures = check(fresh, baseline, tolerance=tolerance)
        if failures:
            print(f"{failures} perf regression(s) beyond {slack_pct}",
                  file=sys.stderr)
            exit_code = 1
        else:
            print(f"no perf regressions beyond {slack_pct}")

    if args.write:
        # Keep baseline fields the fresh (possibly smoke-narrowed) run did
        # not re-measure, so a smoke --write cannot silently drop the
        # full-sweep numbers.
        merged = fresh
        if BENCH_PATH.exists():
            merged = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
            merged.update({
                k: v for k, v in fresh.items()
                if k not in ("experiments_s", "fleet")
            })
            merged.setdefault("experiments_s", {}).update(fresh["experiments_s"])
            # Merge fleet cells the same way: a quick --write must not
            # drop the full-mode 1000-host cell.
            fleet = merged.setdefault("fleet", {})
            fleet.setdefault("matrix", {}).update(fresh["fleet"]["matrix"])
            fleet["fluid_speedup"] = fresh["fleet"]["fluid_speedup"]
        tmp = BENCH_PATH.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, BENCH_PATH)
        print(f"wrote {BENCH_PATH}")

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
