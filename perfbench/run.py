"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` and prints, as the last line of
standard output, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``), each metric with its unit.  The
lines before it are a readable copy of the same figures plus
diagnostics.  See ``perfbench/NOTES.md`` for what each workload and
metric is for.

Each run byte-compiles the sources (the build) and times a fixed
pure-Python loop (``host.calib_s``).  It then starts one worker process
per repetition until the timed calls add up to ``--seconds`` (see
``repetitions`` for when it stops early), tops the set-up samples up to
``SETUP_SAMPLES`` with workers that only set up, and times the loop
again.  A traced run starts one plain worker as its reference and one
traced worker, side by side.  Every worker runs the workload in one
process (``jobs=1``) with the BLAS and OpenMP pools pinned to one
thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from worker import MAX_PROBLEMS, READY, RESULT
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
"""``setup_s`` is the median set-up time of this many worker processes:
the repetitions' own, topped up by workers that only set up."""
DEADLINE_S = 170.0
"""A run stops its worker and fails once this much wall clock has passed,
so that it ends inside the 180 s a run may take."""
MAX_REPS = 20
"""Plain repetitions per run at most, however short each one is."""
CALIBRATION_LOOPS = 3_000_000
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def calibrate() -> float:
    """CPU seconds for a fixed pure-Python loop: a host-speed probe."""
    start = time.process_time()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i & 7
    return time.process_time() - start


def worker_env() -> dict[str, str]:
    """The workers' environment: sources on the path, pools pinned, the
    simulator's own knobs (``REPRO_*``) cleared, string hashing fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    return env


def build() -> None:
    """Byte-compile the program and the benchmark (a no-op when current)."""
    for required in (ROOT / "src" / "repro" / "__init__.py", HERE / "worker.py"):
        if not required.is_file():
            raise BenchmarkError(f"{required.relative_to(ROOT)} is missing")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", HERE.name],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=300,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"byte-compiling failed:\n{done.stdout[-2000:]}")


def start(args: argparse.Namespace, mode: str, workdir: Path) -> subprocess.Popen:
    """Start one worker in its own scratch directory."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--workdir", str(workdir),
        "--t0", repr(time.monotonic()),
    ]
    return subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )


def finish(proc: subprocess.Popen, mode: str, deadline: float) -> dict:
    """Wait for a worker and return its marker payloads."""
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
    found: dict = {}
    for line in stdout.splitlines():
        marker, _, payload = line.partition(" ")
        if marker in (READY, RESULT):
            found[marker] = json.loads(payload)
    if proc.returncode != 0 or READY not in found:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}")
    if mode != "setup" and RESULT not in found:
        raise BenchmarkError(f"{mode} worker printed no result")
    return found


def launch(args: argparse.Namespace, mode: str, workdir: Path, deadline: float) -> dict:
    """Run one worker to its end."""
    return finish(start(args, mode, workdir), mode, deadline)


def side_by_side(args: argparse.Namespace, workdir: Path, deadline: float) -> list[dict]:
    """A traced run's plain reference and its traced worker, at the same
    time on the two cores.  One after the other, the traced paper-sweep
    run took 110-125 s, too near the deadline; its figures are layer
    shares and call counts, which no bound gates."""
    modes = ("run", "trace")
    procs: list[subprocess.Popen] = []
    try:
        for mode in modes:
            procs.append(start(args, mode, workdir / mode))
        return [finish(proc, mode, deadline) for proc, mode in zip(procs, modes)]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def repetitions(args: argparse.Namespace, workdir: Path, deadline: float) -> list[dict]:
    """Plain repetitions, one worker each, until the timed calls add up to
    ``--seconds``.  Set-up and checks are outside that budget.

    It stops early after ``MAX_REPS`` repetitions, after a repetition
    that failed every operation (a raised exception: the run's result
    then reports every operation failed), and before a repetition that
    would likely not end before ``deadline`` -- one and a half times the
    longest worker so far."""
    found: list[dict] = []
    measured = longest = 0.0
    while True:
        started = time.monotonic()
        found.append(launch(args, "run", workdir, deadline))
        longest = max(longest, time.monotonic() - started)
        result = found[-1][RESULT]
        measured += result["wall_s"]
        if (
            measured >= args.seconds
            or len(found) >= MAX_REPS
            or result["failed"] >= result["attempted"]
            or time.monotonic() + 1.5 * longest > deadline
        ):
            return found


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over repetitions.  A repetition whose
    output digest differs from the first one's fails every operation."""
    attempted = failed = 0
    problems: list[str] = []
    first = results[0]["digest"]
    for result in results:
        attempted += result["attempted"]
        if result["digest"] != first:
            failed += result["attempted"]
            problems.append(
                f"output digest {result['digest'][:12]} differs from the "
                f"first repetition's {first[:12]}"
            )
        else:
            failed += result["failed"]
        problems.extend(result["problems"])
    return attempted, failed, problems


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    """(result line, diagnostics) for one run."""
    deadline = time.monotonic() + DEADLINE_S
    build()
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    calib_before = calibrate()
    try:
        if args.trace:
            found = side_by_side(args, workdir, deadline)
        else:
            found = repetitions(args, workdir, deadline)
        ready = [f[READY] for f in found]
        while not args.trace and len(ready) < SETUP_SAMPLES:
            ready.append(launch(args, "setup", workdir, deadline)[READY])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_after = calibrate()
    results = [f[RESULT] for f in found]
    attempted, failed, problems = tally(results)

    if args.trace:
        reference, traced = results
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["cpu_s"] / reference["cpu_s"]
        layers["host.calib_s"] = (calib_before + calib_after) / 2
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit, _better in tracing.metric_names()
        }
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "cpu_s": statistics.median(r["cpu_s"] for r in results),
            "setup_s": statistics.median(r["setup_s"] for r in ready),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    line = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    diagnostics = {
        "host.calib_s": {"before": calib_before, "after": calib_after},
        "reps": len(results),
        "wall_s": [r["wall_s"] for r in results],
        "cpu_s": [r["cpu_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "setup_s": [r["setup_s"] for r in ready],
        "threads": [r["threads"] for r in ready],
        "digest": results[0]["digest"],
        "problems": problems[:MAX_PROBLEMS],
    }
    return line, diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, diagnostics = measure(args)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    for name, metric in line["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{line['attempted']} op(s), {line['failed']} failed; "
          + json.dumps(diagnostics, allow_nan=False))
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
