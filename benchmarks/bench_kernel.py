"""Simulation-kernel micro-benchmarks: event, timer, trace and query throughput.

Standalone (prints JSON)::

    PYTHONPATH=src python benchmarks/bench_kernel.py

The numbers deliberately exercise the kernel's hottest paths:

* **events/sec per backend** — a fleet of timeout-yielding processes
  (~10k pending entries, the shape the paper's consolidation
  experiments drive), measuring scheduling, event-state and
  process-resumption machinery end to end, on the batched scheduler
  (``batched``, the inlined run loop) and on the binary-heap test oracle
  (``reference``, ``tests/simkernel/heap_oracle.py`` on the hooked loop);
* **timer churn ops/sec per backend** — the fluid-sharing pattern:
  every near-term completion cancels and re-arms a far-horizon
  watchdog timer via ``Simulator.rearm_timer``, exercising lazy
  deletion, compaction and (on the batched scheduler) far-tier bulk
  absorption;
* **records/sec** — ``Tracer.record`` with no subscribers, the
  always-on instrumentation cost every simulated action pays;
* **select rows/sec** — windowed prefix+field queries over a populated
  columnar trace, the read side every analysis pays;
* **bucketize times/sec** — the vectorized timeline binning that turns
  completion streams into the paper's rate series.

All are also what ``benchmarks/perf_report.py`` records in
``BENCH_PERF.json`` (per-backend matrix under ``kernel.backends``) and
what the CI perf smoke guards against regressions — including the
same-run requirement that the batched scheduler beat the oracle on
events/sec by the advertised factor.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

# The oracle lives in tests/; make the repo root importable when this
# file runs as a script (benchmarks/ is sys.path[0] then).
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

#: Backends measured by the per-backend benchmarks, reference first so
#: relative numbers read naturally in the report.
BACKEND_NAMES = ("reference", "batched")


def _simulator(backend: str):
    """A simulator on the named cell's backend: ``"reference"`` injects
    the heap oracle, ``"batched"`` is the default scheduler."""
    from repro.simkernel import Simulator

    if backend == "reference":
        from tests.simkernel.heap_oracle import ReferenceBackend

        return Simulator(backend=ReferenceBackend())
    return Simulator()


def bench_event_throughput(
    n: int = 300_000, procs: int = 10_000, backend: str = "batched"
) -> float:
    """Events processed per second by a fleet of timeout-yielding processes.

    ``procs`` generator processes each tick ``n // procs`` times, so the
    backend holds ~``procs`` pending entries throughout — the fleet-scale
    shape (thousands of VMs with in-flight work) where backend structure
    dominates.  Single-digit pending sets are interpreter-bound and
    barely distinguish backends.
    """
    sim = _simulator(backend)

    def ticker(sim, ticks):
        timeout = sim.timeout
        for _ in range(ticks):
            yield timeout(1.0)

    ticks = n // procs
    for _ in range(procs):
        sim.spawn(ticker(sim, ticks))
    total = procs * ticks
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return total / elapsed


def _noop() -> None:
    """Callback for churn timers that must never do work when they fire."""


def bench_timer_churn(
    pools: int = 1_000, per: int = 200, backend: str = "batched"
) -> float:
    """Timer cancel/re-arm operations per second, fluid-sharing shaped.

    ``pools`` processes each tick ``per`` times; every tick re-arms a
    far-horizon watchdog timer (cancel + schedule in one
    :meth:`~repro.simkernel.kernel.Simulator.rearm_timer` call), exactly
    the churn a fluid-sharing pool generates on every membership change.
    The watchdogs never fire — the run ends with every one of them
    lazily dead, which is what makes compaction and far-tier handling
    the measured cost.
    """
    sim = _simulator(backend)

    def pool(slot):
        handle = None
        deadline = 50.0 + slot
        for step in range(per):
            handle = sim.rearm_timer(handle, deadline + step, _noop)
            yield sim.timeout(0.01)
        handle.cancel()

    for i in range(pools):
        sim.spawn(pool(i))
    total = pools * per
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return total / elapsed


def bench_trace_throughput(n: int = 1_000_000) -> float:
    """Trace records per second with no subscribers attached."""
    from repro.simkernel import Simulator

    sim = Simulator()
    record = sim.trace.record
    started = time.perf_counter()
    for i in range(n):
        record("bench.tick", value=i)
    elapsed = time.perf_counter() - started
    return n / elapsed


def bench_select_throughput(n: int = 400_000, queries: int = 40) -> float:
    """Matched records materialized per second by windowed selects.

    Fills the trace with ``n`` records over eight kinds (several sealed
    chunks plus an active tail), then runs prefix+window+field queries —
    the exact shape the downtime and timeline analyses use.
    """
    from repro.simkernel import Simulator

    sim = Simulator()
    record = sim.trace.record
    for i in range(n):
        sim._now = i * 0.001
        record(f"svc.k{i % 8}", value=i, domain="vm%d" % (i % 3))
    since, until = n * 0.001 * 0.2, n * 0.001 * 0.8
    matched = 0
    started = time.perf_counter()
    for q in range(queries):
        rows = sim.trace.select(
            "svc.k%d" % (q % 8), since=since, until=until, domain="vm1"
        )
        matched += len(rows)
    elapsed = time.perf_counter() - started
    return matched / elapsed


def bench_bucketize_throughput(n: int = 1_000_000, repeats: int = 5) -> float:
    """Completion timestamps binned per second by ``bucketize``."""
    from repro.analysis.timeline import bucketize

    times = [i * 0.01 for i in range(n)]
    started = time.perf_counter()
    for _ in range(repeats):
        bucketize(times, 5.0)
    elapsed = time.perf_counter() - started
    return n * repeats / elapsed


def bench_telemetry_overhead(
    n: int = 200_000, procs: int = 2_000, repeats: int = 3
) -> dict[str, float]:
    """Disabled-telemetry tax on the event loop, same-run relative.

    Runs the ticker-fleet event bench twice on a **metrics-disabled**
    simulator: plain, and with the calls a fully instrumented actor
    makes on every tick — a counter lookup + ``inc`` and a gauge lookup
    + ``set`` through the disabled registry (both resolve to the shared
    NULL instrument), plus a span-stack ``current`` query (the audit
    join key the executor reads).  The observability promise is that
    instrumentation left in actor code costs ~nothing when telemetry is
    off; ``overhead_ratio`` (plain / instrumented events per sec,
    best-of-``repeats`` each) is what the perf gate bounds.
    """
    from repro.simkernel import Simulator

    def run(instrumented: bool) -> float:
        sim = Simulator(metrics=False)
        metrics = sim.metrics
        spans = sim.spans

        def ticker(ticks):
            timeout = sim.timeout
            if not instrumented:
                for _ in range(ticks):
                    yield timeout(1.0)
                return
            for _ in range(ticks):
                metrics.counter("nic.tx_bytes", nic="bench.nic").inc(1.0)
                metrics.gauge("cpu.runnable", cpu="bench.cpu").set(1.0)
                spans.current("bench")
                yield timeout(1.0)

        ticks = n // procs
        for _ in range(procs):
            sim.spawn(ticker(ticks))
        total = procs * ticks
        started = time.perf_counter()
        sim.run()
        return total / (time.perf_counter() - started)

    plain = 0.0
    instrumented = 0.0
    for _ in range(repeats):  # alternate so drift hits both evenly
        plain = max(plain, run(False))
        instrumented = max(instrumented, run(True))
    return {
        "plain_events_per_sec": round(plain),
        "instrumented_events_per_sec": round(instrumented),
        "overhead_ratio": round(plain / instrumented, 3),
    }


def measure_backends(repeats: int = 3) -> dict[str, dict[str, float]]:
    """Per-backend throughput matrix, best-of-``repeats`` per cell.

    Backends alternate inside each repeat (rather than finishing one
    backend before starting the other) so thermal or scheduler drift
    hits both evenly — the relative gate compares cells from this one
    run.
    """
    matrix: dict[str, dict[str, float]] = {
        name: {"events_per_sec": 0.0, "timer_churn_ops_per_sec": 0.0}
        for name in BACKEND_NAMES
    }
    for _ in range(repeats):
        for name in BACKEND_NAMES:
            cells = matrix[name]
            cells["events_per_sec"] = max(
                cells["events_per_sec"], bench_event_throughput(backend=name)
            )
            cells["timer_churn_ops_per_sec"] = max(
                cells["timer_churn_ops_per_sec"], bench_timer_churn(backend=name)
            )
    return matrix


def measure(repeats: int = 3) -> dict[str, object]:
    """Kernel benchmark report: per-backend matrix + shared-path numbers.

    Best-of-``repeats`` everywhere (max filters out scheduler noise,
    which only ever slows a run down).  ``backends`` holds the
    per-backend throughput matrix; ``batched_speedup`` is the same-run
    events/sec ratio the perf gate enforces.
    """
    backends = measure_backends(repeats)
    report: dict[str, object] = {
        "backends": {
            name: {k: round(v) for k, v in cells.items()}
            for name, cells in backends.items()
        },
        "batched_speedup": round(
            backends["batched"]["events_per_sec"]
            / backends["reference"]["events_per_sec"],
            2,
        ),
        "trace_records_per_sec": round(
            max(bench_trace_throughput() for _ in range(repeats))
        ),
        "trace_select_rows_per_sec": round(
            max(bench_select_throughput() for _ in range(repeats))
        ),
        "bucketize_times_per_sec": round(
            max(bench_bucketize_throughput() for _ in range(repeats))
        ),
        "telemetry": bench_telemetry_overhead(repeats=repeats),
    }
    return report


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
