"""Observability exports: Perfetto traces, Prometheus text, critical paths.

Three consumers of the span/metric layer, and the writer they share,
live here:

* :func:`perfetto_trace` — converts a simulation's ``span.*`` records and
  metric sample series into Chrome trace-event JSON (the format Perfetto
  and ``chrome://tracing`` load): one thread track per span actor, one
  counter track per metric label set.
* :func:`prometheus_snapshot` / :func:`parse_prometheus` — a
  Prometheus-style text exposition of a
  :class:`~repro.simkernel.metrics.MetricsRegistry` (and its parser, so
  round-trip tests and downstream scrapers need no third-party client).
* :func:`reboot_critical_path` — walks a ``reboot`` span tree back into
  the per-phase breakdown of Figure 7 and :func:`reconcile` asserts that
  the span view and the strategy's
  :class:`~repro.core.strategies.RebootReport` agree — the two are
  recorded by the same ``_PhaseClock`` instants, so any drift means an
  instrumentation bug.
* :func:`write_strict_json` / :func:`write_atomic` — the one writer every
  telemetry artifact goes through: encode the whole document first, then
  atomically replace the target.

``python -m repro.analysis.obs`` runs a small deterministic scenario and
verifies all three against each other (the ``make obs-check`` gate),
optionally writing the Perfetto JSON and Prometheus text artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import sys
import typing

from repro.errors import AnalysisError
from repro.simkernel import kernel as _kernel
from repro.simkernel.metrics import METRIC_SCHEMA, Histogram, MetricsRegistry

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.strategies import RebootReport
    from repro.simkernel.kernel import Simulator
    from repro.simkernel.tracing import Tracer

_US = 1e6
"""Chrome trace-event timestamps are microseconds; the clock is seconds."""


# ---------------------------------------------------------------------------
# span-tree reconstruction
# ---------------------------------------------------------------------------

class SpanNode:
    """One span reconstructed from its ``span.begin``/``span.end`` records."""

    __slots__ = ("id", "parent_id", "name", "actor", "detail", "start", "end",
                 "children")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        actor: str,
        detail: str,
        start: float,
    ) -> None:
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.actor = actor
        self.detail = detail
        self.start = start
        self.end: float | None = None
        self.children: list[SpanNode] = []

    @property
    def closed(self) -> bool:
        """True once the matching ``span.end`` was recorded."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds from begin to end; raises on a still-open span."""
        if self.end is None:
            raise AnalysisError(
                f"span {self.name!r} (id {self.id}) is still open"
            )
        return self.end - self.start

    def walk(self) -> typing.Iterator["SpanNode"]:
        """This node and every descendant, depth-first in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanNode(id={self.id}, name={self.name!r}, actor={self.actor!r},"
            f" detail={self.detail!r}, start={self.start!r}, end={self.end!r})"
        )


@dataclasses.dataclass
class SpanTree:
    """All spans of one trace: id index plus forest roots."""

    nodes: dict[int, SpanNode]
    roots: list[SpanNode]

    def find(
        self, name: str, actor: str | None = None
    ) -> list[SpanNode]:
        """All spans with the given registered name (and actor), in start
        order."""
        return [
            node
            for node in sorted(self.nodes.values(), key=lambda n: n.id)
            if node.name == name and (actor is None or node.actor == actor)
        ]


def build_span_tree(trace: "Tracer") -> SpanTree:
    """Reconstruct the span forest from ``span.begin``/``span.end`` records.

    Children are ordered by begin time (ids are allocated in begin order,
    so sorting by id is the same thing and needs no float comparisons).
    """
    nodes: dict[int, SpanNode] = {}
    roots: list[SpanNode] = []
    for record in trace.select("span."):
        if record.kind == "span.begin":
            node = SpanNode(
                record["span"],
                record["parent"],
                record["name"],
                record["actor"],
                record["detail"],
                record.time,
            )
            nodes[node.id] = node
            parent = nodes.get(node.parent_id)
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        else:  # span.end
            span_id = record["span"]
            node = nodes.get(span_id)
            if node is None:
                raise AnalysisError(f"span.end for unknown span id {span_id}")
            if node.end is not None:
                raise AnalysisError(f"span id {span_id} ended twice")
            node.end = record.time
    return SpanTree(nodes, roots)


# ---------------------------------------------------------------------------
# Perfetto / Chrome trace-event export
# ---------------------------------------------------------------------------

def perfetto_trace(
    trace: "Tracer", metrics: MetricsRegistry | None = None
) -> dict[str, typing.Any]:
    """Chrome trace-event JSON for a simulation's spans and metrics.

    Spans become ``"X"`` complete events on one thread track per actor
    (pid 1); counter/gauge sample series become ``"C"`` counter events
    (pid 2).  A span still open at export time is emitted with its
    duration truncated at the last ``span.begin``/``span.end`` time and
    flagged ``args.open``.  The result is strict JSON (no NaN/Infinity)
    and loads directly in https://ui.perfetto.dev.
    """
    tree = build_span_tree(trace)
    events: list[dict[str, typing.Any]] = [
        {
            "ph": "M", "pid": 1, "name": "process_name",
            "args": {"name": "repro-sim spans"},
        },
    ]
    actors = sorted({node.actor for node in tree.nodes.values()})
    tids = {actor: tid for tid, actor in enumerate(actors, start=1)}
    for actor, tid in tids.items():
        events.append(
            {
                "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                "args": {"name": actor},
            }
        )
    horizon = max(
        (n.end if n.end is not None else n.start for n in tree.nodes.values()),
        default=0.0,
    )
    for node in sorted(tree.nodes.values(), key=lambda n: n.id):
        end = node.end if node.end is not None else horizon
        args: dict[str, typing.Any] = {
            "span": node.id,
            "parent": node.parent_id,
            "detail": node.detail,
        }
        if node.end is None:
            args["open"] = True
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids[node.actor],
                "ts": node.start * _US,
                "dur": (end - node.start) * _US,
                "name": f"{node.name}:{node.detail}" if node.detail else node.name,
                "args": args,
            }
        )
    if metrics is not None and metrics.enabled:
        events.append(
            {
                "ph": "M", "pid": 2, "name": "process_name",
                "args": {"name": "repro-sim metrics"},
            }
        )
        for instrument in metrics.instruments():
            if isinstance(instrument, Histogram):
                continue  # no time series; exposed via Prometheus text
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(instrument.labels.items())
            )
            track = (
                f"{instrument.name}{{{label_text}}}"
                if label_text
                else instrument.name
            )
            for t, v in zip(
                instrument.series_times, instrument.series_values
            ):
                events.append(
                    {
                        "ph": "C", "pid": 2, "ts": t * _US,
                        "name": track, "args": {"value": v},
                    }
                )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_perfetto(
    path: "str | pathlib.Path",
    trace: "Tracer",
    metrics: MetricsRegistry | None = None,
) -> pathlib.Path:
    """Serialize :func:`perfetto_trace` to ``path`` (strict JSON)."""
    return write_strict_json(path, perfetto_trace(trace, metrics))


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def write_atomic(path: "str | pathlib.Path", text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temp file beside the target that then replaces it
    (the result cache's idiom), so a failed write leaves any previous
    artifact byte-identical and no temp file behind.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_strict_json(
    path: "str | pathlib.Path", document: typing.Any
) -> pathlib.Path:
    """The one writer of every strict-JSON telemetry artifact.

    The whole document is encoded in one ``json.dumps`` call, which runs
    CPython's C encoder; ``json.dump`` to a handle always takes the
    pure-Python ``iterencode`` path instead (same bytes, about 3x
    slower on a fleet-sized Perfetto trace).  Encoding happens before
    anything is opened, so a value strict JSON cannot hold (NaN,
    infinities) raises :class:`AnalysisError` naming ``path`` and leaves
    any existing file untouched; the write itself is :func:`write_atomic`.
    """
    try:
        text = json.dumps(document, allow_nan=False)
    except ValueError as exc:
        raise AnalysisError(f"{path}: not strict JSON: {exc}") from exc
    return write_atomic(path, text)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """``disk.queue_depth`` -> ``repro_disk_queue_depth``."""
    return "repro_" + name.replace(".", "_")


def _prom_labels(labels: typing.Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            k, str(v).replace("\\", r"\\").replace('"', r"\"")
        )
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _merge_labels(
    labels: typing.Mapping[str, str], extra: typing.Mapping[str, str]
) -> dict[str, str]:
    merged = dict(labels)
    merged.update(extra)
    return merged


def render_prometheus(
    snapshot: typing.Mapping[str, list[dict[str, typing.Any]]]
) -> str:
    """Prometheus text exposition of a registry *snapshot* (the plain-data
    form that travels inside a ScenarioReport).

    Counters get the conventional ``_total`` suffix; histograms expand to
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` with cumulative buckets.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        spec = METRIC_SCHEMA.get(name)
        if spec is None:
            raise AnalysisError(f"snapshot holds unregistered metric {name!r}")
        base = _prom_name(name)
        sample_name = base + ("_total" if spec.kind == "counter" else "")
        lines.append(f"# HELP {base} {spec.help}")
        lines.append(f"# TYPE {base} {spec.kind}")
        for entry in snapshot[name]:
            labels = entry["labels"]
            if spec.kind == "histogram":
                for le, count in entry["buckets"]:
                    le_text = le if le == "+Inf" else repr(float(le))
                    lines.append(
                        f"{base}_bucket"
                        f"{_prom_labels(_merge_labels(labels, {'le': le_text}))}"
                        f" {count}"
                    )
                lines.append(f"{base}_sum{_prom_labels(labels)} {entry['sum']!r}")
                lines.append(f"{base}_count{_prom_labels(labels)} {entry['count']}")
            else:
                lines.append(
                    f"{sample_name}{_prom_labels(labels)} {entry['value']!r}"
                )
    return "\n".join(lines) + "\n"


def prometheus_snapshot(metrics: MetricsRegistry) -> str:
    """Prometheus text exposition of a live registry."""
    return render_prometheus(metrics.snapshot())


def parse_prometheus(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse a text exposition back into ``(name, labels) -> value``.

    Supports exactly what :func:`render_prometheus` emits (one sample per
    line, ``#`` comments); round-trip tests diff this against the
    snapshot the text came from.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise AnalysisError(f"malformed sample on line {lineno}: {line!r}")
        labels: list[tuple[str, str]] = []
        if name_part.endswith("}"):
            name, _, label_text = name_part.partition("{")
            for item in label_text[:-1].split(","):
                key, _, raw = item.partition("=")
                if not raw.startswith('"') or not raw.endswith('"'):
                    raise AnalysisError(
                        f"malformed label on line {lineno}: {item!r}"
                    )
                labels.append(
                    (key, raw[1:-1].replace(r"\"", '"').replace(r"\\", "\\"))
                )
        else:
            name = name_part
        out[(name, tuple(labels))] = float(value_part)
    return out


# ---------------------------------------------------------------------------
# downtime critical path
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CriticalPathEntry:
    """One ``reboot.phase`` child span on a reboot's critical path."""

    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class CriticalPath:
    """A reboot span resolved into its ordered phase intervals.

    The strategies run their phases back-to-back in one process, so the
    phase chain *is* the critical path of the rejuvenation: ``total``
    should equal ``phase_sum`` up to float association error, and any
    larger ``gap`` is time the instrumentation failed to attribute.
    """

    span: SpanNode
    entries: list[CriticalPathEntry]

    @property
    def strategy(self) -> str:
        """The reboot strategy (the root span's detail)."""
        return self.span.detail

    @property
    def total(self) -> float:
        """End-to-end reboot duration measured by the root span."""
        return self.span.duration

    @property
    def phase_sum(self) -> float:
        """Sum of the phase durations (the Figure 7 breakdown total)."""
        return sum(entry.duration for entry in self.entries)

    @property
    def gap(self) -> float:
        """Reboot time not attributed to any phase."""
        return self.total - self.phase_sum

    def entry(self, phase: str) -> CriticalPathEntry:
        """The named phase; raises :class:`AnalysisError` if absent."""
        for candidate in self.entries:
            if candidate.phase == phase:
                return candidate
        raise AnalysisError(f"critical path has no phase {phase!r}")


def reboot_critical_path(
    trace: "Tracer",
    host: str | None = None,
    occurrence: int = 0,
) -> CriticalPath:
    """The ``occurrence``-th completed reboot's phase breakdown, from spans.

    ``host`` filters by the rebooting host's actor name when several hosts
    reboot in one simulation (cluster scenarios).
    """
    tree = build_span_tree(trace)
    reboots = [n for n in tree.find("reboot", actor=host) if n.closed]
    if occurrence >= len(reboots):
        raise AnalysisError(
            f"trace holds {len(reboots)} completed reboot span(s)"
            + (f" for host {host!r}" if host else "")
            + f"; occurrence {occurrence} requested"
        )
    span = reboots[occurrence]
    entries = [
        CriticalPathEntry(child.detail, child.start, child.end)
        for child in span.children
        if child.name == "reboot.phase" and child.closed
    ]
    return CriticalPath(span, entries)


def reconcile(
    path: CriticalPath, report: "RebootReport", tolerance: float = 1e-6
) -> float:
    """Check a span critical path against the strategy's own report.

    Both are stamped by the same ``_PhaseClock`` instants, so phase names
    must match in order and every boundary must agree to ``tolerance``
    (sums of float intervals do not telescope exactly).  Returns the
    maximum absolute deviation found; raises :class:`AnalysisError` on a
    structural mismatch or a deviation beyond ``tolerance``.
    """
    if path.strategy != report.strategy.value:
        raise AnalysisError(
            f"span strategy {path.strategy!r} != report "
            f"{report.strategy.value!r}"
        )
    span_phases = [entry.phase for entry in path.entries]
    report_phases = [phase.name for phase in report.phases]
    if span_phases != report_phases:
        raise AnalysisError(
            f"phase mismatch: spans {span_phases} vs report {report_phases}"
        )
    deviations = [
        abs(path.span.start - report.started),
        abs(path.span.end - report.finished),  # type: ignore[operator]
        abs(path.total - report.total),
        abs(path.phase_sum - sum(p.duration for p in report.phases)),
        abs(path.gap),
    ]
    for entry, phase in zip(path.entries, report.phases):
        deviations.append(abs(entry.start - phase.start))
        deviations.append(abs(entry.end - phase.end))
        deviations.append(abs(entry.duration - phase.duration))
    worst = max(deviations)
    if worst > tolerance:
        raise AnalysisError(
            f"span tree and reboot report disagree by {worst:.3g} s "
            f"(tolerance {tolerance:.3g} s)"
        )
    return worst


# ---------------------------------------------------------------------------
# simulator capture (for CLIs that build their stacks deep inside runners)
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def capture_simulators() -> typing.Iterator[list["Simulator"]]:
    """Collect every :class:`Simulator` constructed inside the block.

    The experiment runners build their simulators deep inside testbed
    helpers; ``--trace-out`` needs a handle on them afterwards.  The
    kernel calls construction-time observers, so the captured list is
    populated in construction order.
    """
    captured: list["Simulator"] = []
    handle = captured.append
    _kernel._observers.append(handle)
    try:
        yield captured
    finally:
        _kernel._observers.remove(handle)


# ---------------------------------------------------------------------------
# self-check CLI (the `make obs-check` gate)
# ---------------------------------------------------------------------------

def _self_check(
    trace_out: str | None, prom_out: str | None, vms: int
) -> list[str]:
    """Run a small instrumented scenario and cross-check every exporter.

    Returns a list of failure messages (empty = pass).
    """
    from repro.experiments.common import build_testbed
    from repro.units import kib
    from repro.workloads.httperf import Httperf

    failures: list[str] = []
    previous = os.environ.get("REPRO_METRICS")
    os.environ["REPRO_METRICS"] = "1"  # the builder owns Simulator creation
    try:
        controller = build_testbed(vms, services=("apache",))
    finally:
        if previous is None:
            del os.environ["REPRO_METRICS"]
        else:
            os.environ["REPRO_METRICS"] = previous
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

    # 1. every span must be closed (balanced begin/end)
    open_spans = sim.spans.open_spans()
    if open_spans:
        failures.append(f"unbalanced spans left open: {open_spans}")

    # 2. the span critical path must reconcile with the reboot report
    try:
        path = reboot_critical_path(sim.trace)
        worst = reconcile(path, report)
        print(
            f"critical path: {len(path.entries)} phases, "
            f"total {path.total:.3f} s, worst deviation {worst:.2e} s"
        )
    except AnalysisError as exc:
        failures.append(f"critical-path reconciliation failed: {exc}")

    # 3. the Perfetto export must be strict JSON with both track types
    document = perfetto_trace(sim.trace, sim.metrics)
    try:
        encoded = json.dumps(document, allow_nan=False)
    except ValueError as exc:
        failures.append(f"Perfetto export is not strict JSON: {exc}")
    else:
        spans = sum(1 for e in document["traceEvents"] if e["ph"] == "X")
        counters = sum(1 for e in document["traceEvents"] if e["ph"] == "C")
        print(
            f"perfetto: {spans} span events, {counters} counter events, "
            f"{len(encoded)} bytes"
        )
        if not spans:
            failures.append("Perfetto export contains no span events")
        if not counters:
            failures.append("Perfetto export contains no counter events")

    # 4. the Prometheus text must parse back to the snapshot's values
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
        spec = METRIC_SCHEMA[name]
        sample = _prom_name(name) + ("_total" if spec.kind == "counter" else "")
        key = (sample, tuple(sorted(entry["labels"].items())))
        if parsed.get(key) != entry["value"]:
            failures.append(
                f"Prometheus round-trip lost {sample}: "
                f"{parsed.get(key)} != {entry['value']}"
            )
    print(
        f"prometheus: {len(parsed)} samples, "
        f"{len(plain)} counter/gauge values verified"
    )

    if trace_out:
        print(f"wrote {write_perfetto(trace_out, sim.trace, sim.metrics)}")
    if prom_out:
        print(f"wrote {write_atomic(prom_out, text)}")
    return failures


def main(argv: typing.Sequence[str] | None = None) -> int:
    """``python -m repro.analysis.obs`` — the observability self-check."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Run a small instrumented rejuvenation scenario and verify the "
            "span/metric exporters against each other."
        ),
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the Perfetto trace JSON here (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--prom-out", metavar="PATH", default=None,
        help="write the Prometheus text snapshot here",
    )
    parser.add_argument(
        "--vms", type=int, default=3,
        help="testbed size for the self-check scenario (default 3)",
    )
    args = parser.parse_args(argv)
    failures = _self_check(args.trace_out, args.prom_out, args.vms)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("obs-check:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
