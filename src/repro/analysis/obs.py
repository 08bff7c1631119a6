"""Observability primitives: span records, exporters, critical paths.

* :func:`span_records` — the one span representation: a trace's
  ``span.begin``/``span.end`` records joined into plain dicts, the form
  fleet shards ship in their telemetry blobs, so every query here
  answers from a live trace and from a bundle shard alike.
* :func:`perfetto_events` — the one Chrome trace-event builder (the
  format Perfetto and ``chrome://tracing`` load) over span records and a
  metrics ``series_snapshot``.  It yields each event's JSON text, not a
  dict: a counter track's prefix and name are encoded once and its
  samples formatted with ``repr``, which is where a fleet trace's bytes
  are.  :func:`perfetto_json` joins the texts into the document;
  :func:`perfetto_trace` (a live simulator) and :mod:`repro.obs.bundle`
  (fleet shards) parse that text where a caller wants the dict form.
* :func:`render_prometheus` / :func:`parse_prometheus` — Prometheus text
  exposition and its parser, so round-trip tests and downstream
  scrapers need no third-party client.
* :func:`reboot_critical_path` / :func:`reconcile` — a ``reboot`` span's
  Figure 7 phase breakdown, checked against the strategy's own
  :class:`~repro.core.strategies.RebootReport`; both are stamped by the
  same ``_PhaseClock`` instants, so any drift is an instrumentation bug.
* :func:`write_strict_json` / :func:`write_trace_events` /
  :func:`write_atomic` — the writers of every telemetry artifact: a
  dict document or the trace-event texts is encoded whole before
  anything is opened, then written atomically; :func:`write_perfetto` is
  the trace writer's name for per-simulation trace files.

``python -m repro.obs check`` cross-checks them all (``make obs-check``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import re
import typing
from json.encoder import encode_basestring_ascii

from repro.errors import AnalysisError
from repro.simkernel import kernel as _kernel
from repro.simkernel.metrics import METRIC_SCHEMA, MetricsRegistry

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.strategies import RebootReport
    from repro.simkernel.kernel import Simulator
    from repro.simkernel.tracing import Tracer

_US = 1e6
"""Chrome trace-event timestamps are microseconds; the clock is seconds."""


# ---------------------------------------------------------------------------
# span records
# ---------------------------------------------------------------------------

def span_records(trace: "Tracer") -> list[dict[str, typing.Any]]:
    """Every span of a trace as a plain dict, in begin order.

    Each record is ``{"span", "parent", "name", "actor", "detail",
    "start", "end"}``, with ``end: None`` for a span still open.  Ids are
    allocated in begin order, so list order is id order; a span's
    children are the later records whose ``parent`` is its id.  A
    ``span.end`` for an unknown id, or a second one for the same id,
    raises :class:`AnalysisError`.
    """
    spans: list[dict[str, typing.Any]] = []
    by_id: dict[int, dict[str, typing.Any]] = {}
    for record in trace.select("span."):
        if record.kind == "span.begin":
            span = {
                "span": record["span"],
                "parent": record["parent"],
                "name": record["name"],
                "actor": record["actor"],
                "detail": record["detail"],
                "start": record.time,
                "end": None,
            }
            by_id[span["span"]] = span
            spans.append(span)
            continue
        span_id = record["span"]
        span = by_id.get(span_id)
        if span is None:
            raise AnalysisError(f"span.end for unknown span id {span_id}")
        if span["end"] is not None:
            raise AnalysisError(f"span id {span_id} ended twice")
        span["end"] = record.time
    return spans


# ---------------------------------------------------------------------------
# Perfetto / Chrome trace-event export
# ---------------------------------------------------------------------------

_STRICT = json.JSONEncoder(allow_nan=False).encode
"""``json.dumps(value, allow_nan=False)``, without building an encoder
per call."""

_EXACT = frozenset({float, int})
"""The number types whose ``repr`` is their JSON text: not ``bool``,
whose JSON is ``true``/``false``, nor float subclasses such as
``numpy.float64``, whose ``repr`` names the type."""

_NONFINITE = frozenset({"nan", "inf", "-inf"})
"""The ``repr`` of every float strict JSON cannot hold."""


def perfetto_events(
    spans: typing.Sequence[dict[str, typing.Any]],
    series: typing.Mapping[str, list[dict[str, typing.Any]]],
    pid: int = 1,
    process: str = "repro-sim",
    shard: int | None = None,
) -> typing.Iterator[str]:
    """The JSON text of each Chrome trace event for one simulation's
    :func:`span_records` and metric ``series`` (a
    ``MetricsRegistry.series_snapshot``), in document order.

    Spans become ``"X"`` events on process ``pid``, one thread track per
    actor; counter/gauge series become ``"C"`` events on ``pid + 1``,
    which appears only when ``series`` holds a metric.  An open span is
    truncated at the latest span instant and flagged ``args.open``;
    ``shard``, when given, joins every span's args.
    :func:`perfetto_json` joins the texts into a document that loads
    directly in https://ui.perfetto.dev.

    Each text is what ``json.dumps(event, allow_nan=False)`` gives for
    the event as a dict.  Span and metadata events are encoded that way,
    one at a time.  Counter samples, nearly every event of a fleet
    trace, are formatted per track (:func:`_counter_track`), and a
    track's events come as one text, joined by ``", "`` as the document
    joins events.  The generator is lazy: a NaN or an infinity raises
    ``ValueError``, and a value JSON cannot hold (``numpy.int64``)
    ``TypeError``, when the track that holds it is reached.
    """
    yield _STRICT(
        {
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": f"{process} spans"},
        }
    )
    actors = sorted({span["actor"] for span in spans})
    tids = {actor: tid for tid, actor in enumerate(actors, start=1)}
    for actor, tid in tids.items():
        yield _STRICT(
            {
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": actor},
            }
        )
    horizon = max(
        (
            span["end"] if span["end"] is not None else span["start"]
            for span in spans
        ),
        default=0.0,
    )
    for span in spans:
        end = span["end"] if span["end"] is not None else horizon
        args: dict[str, typing.Any] = {
            "span": span["span"],
            "parent": span["parent"],
            "detail": span["detail"],
        }
        if shard is not None:
            args["shard"] = shard
        if span["end"] is None:
            args["open"] = True
        yield _STRICT(
            {
                "ph": "X",
                "pid": pid,
                "tid": tids[span["actor"]],
                "ts": span["start"] * _US,
                "dur": (end - span["start"]) * _US,
                "name": (
                    f"{span['name']}:{span['detail']}"
                    if span["detail"]
                    else span["name"]
                ),
                "args": args,
            }
        )
    if not series:
        return
    metric_pid = pid + 1
    yield _STRICT(
        {
            "ph": "M", "pid": metric_pid, "name": "process_name",
            "args": {"name": f"{process} metrics"},
        }
    )
    for metric_name in sorted(series):
        for entry in series[metric_name]:
            if "times" not in entry:
                continue  # histograms keep no series
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(entry["labels"].items())
            )
            track = (
                f"{metric_name}{{{label_text}}}" if label_text else metric_name
            )
            text = _counter_track(
                metric_pid, track, entry["times"], entry["values"]
            )
            if text:
                yield text


def _counter_track(
    pid: int,
    track: str,
    times: typing.Sequence[typing.Any],
    values: typing.Sequence[typing.Any],
) -> str:
    """One counter track's ``"C"`` events, one per ``(time, value)``, as
    one text joined by ``", "`` (empty for a track with no samples).

    The text around the two numbers is encoded once per track.  When
    every time and value is exactly a ``float`` or an ``int``, and every
    float (each time ×1e6 included) is finite, ``repr`` is each number's
    JSON text.  Otherwise every sample goes through the strict encoder,
    one number at a time and in document order: ``True`` writes
    ``true``, ``numpy.float64(1.0)`` writes ``1.0``, and a NaN raises.
    """
    head = f'{{"ph": "C", "pid": {_STRICT(pid)}, "ts": '
    middle = f', "name": {encode_basestring_ascii(track)}, "args": {{"value": '
    samples: typing.Iterable[str] | None = None
    if _EXACT.issuperset(map(type, times)) and _EXACT.issuperset(
        map(type, values)
    ):
        stamps = list(map(repr, map(_US.__mul__, times)))
        texts = list(map(repr, values))
        if _NONFINITE.isdisjoint(stamps) and _NONFINITE.isdisjoint(texts):
            samples = map(middle.join, zip(stamps, texts))
    if samples is None:
        samples = (
            f"{_STRICT(t * _US)}{middle}{_STRICT(v)}"
            for t, v in zip(times, values)
        )
    text = ("}}, " + head).join(samples)
    return f"{head}{text}}}}}" if text else ""


def perfetto_json(events: typing.Iterable[str]) -> str:
    """The trace document around :func:`perfetto_events` texts: what
    ``json.dumps(..., allow_nan=False)`` gives for the document as a
    dict, ``{"displayTimeUnit": "ms", "traceEvents": [...]}``."""
    return (
        '{"displayTimeUnit": "ms", "traceEvents": ['
        + ", ".join(events)
        + "]}"
    )


def perfetto_trace(
    trace: "Tracer", metrics: MetricsRegistry | None = None
) -> dict[str, typing.Any]:
    """A live simulator's trace and (when given and enabled) metrics
    registry as a Perfetto document: the parse of the text that
    :func:`perfetto_events` gives for them."""
    series = (
        metrics.series_snapshot()
        if metrics is not None and metrics.enabled
        else {}
    )
    return json.loads(
        perfetto_json(perfetto_events(span_records(trace), series))
    )


def write_perfetto(
    path: "str | pathlib.Path", events: typing.Iterable[str]
) -> pathlib.Path:
    """Write one simulation's :func:`perfetto_events` to ``path``: every
    ``--trace-out`` file, per-shard ones included, and the self-check's
    ``trace.json``.  The merged fleet document goes through
    :func:`write_trace_events` directly, so the bytes written under this
    name are per-simulation traces only."""
    return write_trace_events(path, events)


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
    """The one writer of every strict-JSON telemetry artifact except the
    Perfetto traces (:func:`write_trace_events`).

    The whole document is encoded in one call of CPython's C encoder;
    ``json.dump`` to a handle always takes the pure-Python
    ``iterencode`` path instead (same bytes, 2.6x slower on
    fleet-observed's seed-0 bundle).  Encoding happens before anything is opened, so
    a value strict JSON cannot hold (NaN, infinities) raises
    :class:`AnalysisError` naming ``path`` and leaves any existing file
    untouched; the write itself is :func:`write_atomic`.
    """
    return _write_encoded(path, _STRICT, document)


def write_trace_events(
    path: "str | pathlib.Path", events: typing.Iterable[str]
) -> pathlib.Path:
    """The one writer of Perfetto trace files: :func:`perfetto_json` of
    ``events`` to ``path``, under :func:`write_strict_json`'s contract.

    The events are joined (and, being lazy, built) before anything is
    opened, so a NaN or an infinity raises :class:`AnalysisError` naming
    ``path`` and leaves any existing file untouched.
    """
    return _write_encoded(path, perfetto_json, events)


def _write_encoded(
    path: "str | pathlib.Path",
    encode: typing.Callable[[typing.Any], str],
    data: typing.Any,
) -> pathlib.Path:
    """:func:`write_atomic` of ``encode(data)``; the ``ValueError`` that
    strict encoding raises on NaN or an infinity becomes an
    :class:`AnalysisError` naming ``path``."""
    try:
        text = encode(data)
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
    """``{k="v",...}`` with ``\\``, ``"`` and line feeds escaped, as the
    text format requires."""
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            k,
            str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"),
        )
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


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
                        f"{_prom_labels({**labels, 'le': le_text})}"
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


_SAMPLE_NAME = re.compile(r"[^\s{]+")
_LABEL = re.compile(r'([^\s{}=,"]+)="((?:[^"\\]|\\[\\"n])*)"(?:,|(?=\}))')
_ESCAPE = re.compile(r'\\[\\"n]')
_UNESCAPED = {r"\\": "\\", r"\"": '"', r"\n": "\n"}


def parse_prometheus(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse a text exposition back into ``(name, labels) -> value``.

    Supports exactly what :func:`render_prometheus` emits (one sample per
    ``\\n``-terminated line, ``#`` comments).  Label values are read in
    one left-to-right pass, so commas, braces and the escaped ``\\``,
    ``"`` and line feed inside them round-trip.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name = _SAMPLE_NAME.match(line)
        if name is None:
            raise AnalysisError(f"malformed sample on line {lineno}: {line!r}")
        pos = name.end()
        labels: list[tuple[str, str]] = []
        if line.startswith("{", pos):
            pos += 1
            while not line.startswith("}", pos):
                label = _LABEL.match(line, pos)
                if label is None:
                    raise AnalysisError(
                        f"malformed label on line {lineno}: {line[pos:]!r}"
                    )
                raw = label[2]
                labels.append(
                    (label[1], _ESCAPE.sub(lambda m: _UNESCAPED[m[0]], raw))
                )
                pos = label.end()
            pos += 1
        try:
            value = float(line[pos:])
        except ValueError:
            raise AnalysisError(
                f"malformed sample on line {lineno}: {line!r}"
            ) from None
        out[(name.group(), tuple(labels))] = value
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
    ``span`` is the closed ``reboot`` span record (:func:`span_records`).
    """

    span: dict[str, typing.Any]
    entries: list[CriticalPathEntry]

    @property
    def strategy(self) -> str:
        """The reboot strategy (the root span's detail)."""
        return self.span["detail"]

    @property
    def total(self) -> float:
        """End-to-end reboot duration measured by the root span."""
        return self.span["end"] - self.span["start"]

    @property
    def phase_sum(self) -> float:
        """Sum of the phase durations (the Figure 7 breakdown total)."""
        return sum(entry.duration for entry in self.entries)

    @property
    def gap(self) -> float:
        """Reboot time not attributed to any phase."""
        return self.total - self.phase_sum


def reboot_critical_path(
    spans: typing.Sequence[dict[str, typing.Any]],
    host: str | None = None,
    occurrence: int = 0,
) -> CriticalPath:
    """The ``occurrence``-th completed reboot's phase breakdown.

    ``spans`` are span records — :func:`span_records` of a live trace,
    or a fleet bundle shard's ``spans``.  ``host`` filters by the
    rebooting host's actor name when several hosts reboot in one
    simulation (cluster scenarios and fleet shards).
    """
    reboots = [
        span
        for span in spans
        if span["name"] == "reboot"
        and span["end"] is not None
        and (host is None or span["actor"] == host)
    ]
    if occurrence >= len(reboots):
        raise AnalysisError(
            f"trace holds {len(reboots)} completed reboot span(s)"
            + (f" for host {host!r}" if host else "")
            + f"; occurrence {occurrence} requested"
        )
    span = reboots[occurrence]
    entries = [
        CriticalPathEntry(child["detail"], child["start"], child["end"])
        for child in spans
        if child["parent"] == span["span"]
        and child["name"] == "reboot.phase"
        and child["end"] is not None
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
        abs(path.span["start"] - report.started),
        abs(path.span["end"] - report.finished),  # type: ignore[operator]
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
            f"reboot spans and reboot report disagree by {worst:.3g} s "
            f"(tolerance {tolerance:.3g} s)"
        )
    return worst


# ---------------------------------------------------------------------------
# simulator capture (for CLIs that build their stacks deep inside runners)
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def capture_simulators() -> typing.Iterator[list["Simulator"]]:
    """Collect every :class:`Simulator` constructed inside the block,
    with metrics collection on.

    The experiment and scenario runners build their simulators deep
    inside testbed helpers; ``--trace-out`` needs a handle on them
    afterwards, and their metric series for the counter tracks.  The
    kernel calls construction-time observers, so the captured list is
    populated in construction order; ``REPRO_METRICS`` reads ``1`` for
    the block and is restored after it.
    """
    captured: list["Simulator"] = []
    handle = captured.append
    previous = os.environ.get("REPRO_METRICS")
    os.environ["REPRO_METRICS"] = "1"
    _kernel._observers.append(handle)
    try:
        yield captured
    finally:
        _kernel._observers.remove(handle)
        if previous is None:
            del os.environ["REPRO_METRICS"]
        else:
            os.environ["REPRO_METRICS"] = previous
