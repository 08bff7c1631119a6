"""One repetition of one workload in a fresh process.

``run.py`` starts this file once per repetition, with the BLAS/OpenMP
pools pinned to one thread.  The worker sets up, prints
``PERFBENCH-READY`` with the set-up time, measured from ``--t0`` (a
``time.monotonic()`` reading the parent took just before starting this
process), then runs and checks one repetition and prints
``PERFBENCH-RESULT`` with its figures.

``--mode setup`` stops after set-up.  ``--mode run`` times the
repetition plainly.  ``--mode trace`` runs it under the span wrappers
and the profiler, then rebuilds the largest scenario under tracemalloc.

One repetition per process: repeated in one process, the same fleet
repetition drifted slower and spread three times wider than in fresh
processes, which the benchmark would report as noise.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import pstats
import resource
import sys
import time
import traceback
import typing
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT"
MAX_PROBLEMS = 20


def os_threads() -> int:
    """OS threads of this process (BLAS pools are native threads)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def emit(marker: str, payload: dict) -> None:
    print(f"{marker} {json.dumps(payload, allow_nan=False)}", flush=True)


class Rep(typing.NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outcome: typing.Any
    error: str


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_rep(workload: typing.Any, profile: typing.Any = None) -> Rep:
    """The timed call.  The peak resident set is read as it returns, so
    that the checks' own allocations stay out of it."""
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    outcome, error = None, ""
    if profile is not None:
        profile.enable()
    try:
        outcome = workload.run()
    except Exception:  # a failed run is a result: every op fails
        error = traceback.format_exc(limit=8)
    finally:
        if profile is not None:
            profile.disable()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return Rep(wall, cpu, peak_rss_mb(), outcome, error)


def _verdict(workload: typing.Any, rep: Rep) -> workloads.Verdict:
    """The repetition's checked operations; an exception fails them all."""
    if rep.error:
        attempted = workload.expected_ops()
        return workloads.Verdict(attempted, attempted, problems=[rep.error])
    return workload.check(rep.outcome)


def _result(rep: Rep, verdict: workloads.Verdict) -> dict:
    return {
        "wall_s": rep.wall_s,
        "cpu_s": rep.cpu_s,
        "peak_rss_mb": rep.peak_rss_mb,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "digest": verdict.digest,
        "problems": verdict.problems[:MAX_PROBLEMS],
    }


def run_once(workload: typing.Any) -> dict:
    """One plain repetition, checked."""
    rep = one_rep(workload)
    verdict = _verdict(workload, rep)
    workload.cleanup()
    return _result(rep, verdict)


def traced_once(workload: typing.Any, log: tracing.SpanLog, out: Path) -> dict:
    """One repetition under the span wrappers and the profiler, checked,
    then the live-memory pass; writes the spans and the profile."""
    largest = tracing.LargestBuild()
    restore = tracing.install_entry_points(log, largest)
    profile = cProfile.Profile(builtins=False)
    try:
        with log.span("benchmark.traced_rep"):
            rep = one_rep(workload, profile)
    finally:
        restore()
    verdict = _verdict(workload, rep)
    counts = workload.layer_counts(rep.outcome) if not rep.error else {}
    workload.cleanup()
    rep = rep._replace(outcome=None)

    layers = tracing.LayerMap(workloads.ROOT / "src", HERE)
    with log.span("benchmark.alloc_pass"):
        live_mb = tracing.live_memory_mb(largest.builder, layers)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    metrics = layer_metrics(stats, layers, log, counts)
    metrics["memory.live_mb"] = live_mb

    out.mkdir(parents=True, exist_ok=True)
    log.write(out / "spans.json")
    profile.dump_stats(str(out / "profile.pstats"))
    return {**_result(rep, verdict), "layers": metrics}


def layer_metrics(
    stats: dict, layers: tracing.LayerMap, log: tracing.SpanLog, counts: dict
) -> dict[str, float]:
    self_s, calls = tracing.attribute(stats, layers)
    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = float(round(calls.get(layer, 0.0)))
    metrics[f"{tracing.UNMAPPED}.self_s"] = self_s.get(tracing.UNMAPPED, 0.0)

    kernel = importlib.import_module("repro.simkernel.kernel")
    scheduled = tracing.call_count(stats, kernel.Simulator.call_at)
    cancelled = tracing.call_count(stats, kernel.TimerHandle.cancel)
    metrics["simkernel.timer_waste"] = cancelled / scheduled if scheduled else 0.0
    metrics["simkernel.sims"] = float(
        tracing.call_count(stats, kernel.Simulator.__init__)
    )
    for key, seconds in tracing.experiment_seconds(stats, layers).items():
        metrics[f"experiments.{key}.s"] = seconds

    builds = [s for s in log.spans if s["group"] == "scenario.build"]
    metrics["scenario.builds"] = float(len(builds))
    metrics["scenario.build_s"] = log.total("scenario.build")
    metrics["jobs.cells"] = float(counts.get("jobs.cells", 0.0))
    metrics["jobs.hit_ratio"] = float(counts.get("jobs.hit_ratio", 0.0))
    metrics["jobs.cache_mb"] = float(counts.get("jobs.cache_mb", 0.0))
    metrics["jobs.digest_s"] = log.total("jobs.digest") + log.total(
        "setup.code_version"
    )
    metrics["jobs.wait_s"] = _wait(log, "experiments.sweep", "jobs.run")
    metrics["fleet.merge_s"] = log.total("fleet.merge")
    for group in OBS_GROUPS:
        metrics[f"{group}_s"] = log.total(group, outer=OBS_GROUPS)
    metrics["obs.wait_s"] = _wait(log, *OBS_GROUPS)
    metrics["obs.bundle_mb"] = _written_mb(log, ":TelemetryBundle.write")
    metrics["analysis.export_s"] = log.total("analysis.export")
    metrics["analysis.trace_mb"] = _written_mb(log, "repro.analysis.obs:write_perfetto")
    return metrics


OBS_GROUPS = ("obs.capture", "obs.merge", "obs.export")


def _wait(log: tracing.SpanLog, *groups: str) -> float:
    """Wall minus CPU seconds inside the groups' outermost spans."""
    waited = sum(
        log.total(g, outer=groups) - log.total(g, cpu=True, outer=groups)
        for g in groups
    )
    return max(waited, 0.0)


def _written_mb(log: tracing.SpanLog, suffix: str) -> float:
    return sum(
        s.get("bytes", 0) for s in log.spans if s["name"].endswith(suffix)
    ) / 2**20


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    run_id = f"{args.workload}-seed{args.seed}"
    log = tracing.SpanLog(run_id)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, log)
    with log.span("benchmark.setup"):
        workload.setup()
    setup_s = time.monotonic() - args.t0
    emit(READY, {"setup_s": setup_s, "threads": os_threads()})
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = run_once(workload)
    else:
        out = workloads.ROOT / ".bench_build" / "perfbench" / "trace" / run_id
        result = traced_once(workload, log, out)
    result["setup_s"] = setup_s
    emit(RESULT, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
