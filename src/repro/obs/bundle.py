"""Per-shard telemetry blobs and the fleet-wide merged bundle.

A fleet run executes its shards in worker processes; the simulators die
with the workers, so anything observability needs must travel home as
plain data through the cell protocol.  :func:`capture_shard` snapshots
one shard simulator into a :class:`ShardTelemetry` blob — its span
records, the decision/availability trace records, full metric sample
series, and the control plane's audit + trigger log — and
:meth:`TelemetryBundle.merge` folds the ordered blobs into one
fleet-wide bundle with host→shard provenance.

The bundle is the *single source* for every fleet-scale export:

* :meth:`ShardTelemetry.perfetto_events` — one shard's own trace, the
  events its live simulator would export (``fleet run --trace-out``);
* :meth:`TelemetryBundle.perfetto_events` — one merged Chrome
  trace-event document, one process group per shard, loadable directly
  in https://ui.perfetto.dev;
* :meth:`TelemetryBundle.to_prometheus` — one text exposition page whose
  samples carry a ``shard`` label on top of the instrument labels;
* :func:`repro.obs.timeline.decision_timelines` — causal chains per
  control-plane decision, reconstructed from the bundle alone.

Both Perfetto builders yield each trace event's JSON text, which
:meth:`TelemetryBundle.write_perfetto` and the fleet CLI write as it is;
``to_perfetto()`` parses the same text for readers that want dicts.

Everything is strict-JSON plain data and built in deterministic order,
so serial, sharded-parallel and cache-replayed fleet runs produce
bit-identical bundles (the same discipline the fleet report itself is
pinned to).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

from repro.analysis.obs import (
    perfetto_events,
    perfetto_json,
    render_prometheus,
    span_records,
    write_atomic,
    write_strict_json,
    write_trace_events,
)
from repro.errors import AnalysisError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator

RECORD_PREFIXES = ("service.", "control.decision")
"""Trace-record kinds a shard blob carries: the availability signal
(service up/down transitions) and the control plane's decisions."""


@dataclasses.dataclass
class ShardTelemetry:
    """One shard's observability state, as plain data.

    ``spans`` are the shard's :func:`~repro.analysis.obs.span_records`
    (``end: None`` for a span still open at capture).  ``records``
    are flattened trace records ``{"time", "kind", **fields}`` for the
    :data:`RECORD_PREFIXES` kinds.  ``metrics`` is a
    :meth:`~repro.simkernel.metrics.MetricsRegistry.series_snapshot`.
    ``audit``/``triggers`` are the shard control loop's decision audit
    and trigger log (empty without a policy).
    """

    shard: int
    hosts: list[str]
    spans: list[dict]
    records: list[dict]
    metrics: dict[str, list[dict]]
    audit: list[dict]
    triggers: list[dict]

    def to_dict(self) -> dict:
        """The blob as a plain dict that shares no mutable container
        with it.

        Copied by shape, not by the generic dataclass deep copy, which
        runs ``copy.deepcopy`` on every float of every metric series:
        series lists are ``list()`` copies, span dicts ``dict()`` copies
        (their values are scalars), and only records, audit and
        triggers are copied recursively.
        """
        return {
            "shard": self.shard,
            "hosts": list(self.hosts),
            "spans": [dict(span) for span in self.spans],
            "records": _plain_copy(self.records),
            "metrics": {
                name: [_copy_series(entry) for entry in entries]
                for name, entries in self.metrics.items()
            },
            "audit": _plain_copy(self.audit),
            "triggers": _plain_copy(self.triggers),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardTelemetry":
        try:
            return cls(**data)
        except TypeError as exc:
            raise AnalysisError(f"malformed shard telemetry: {exc}") from None

    def perfetto_events(self) -> typing.Iterator[str]:
        """This shard's own trace-event texts: byte for byte what
        :func:`~repro.analysis.obs.perfetto_events` gives for the shard's
        live simulator, rebuilt from the blob."""
        return perfetto_events(self.spans, self.metrics)

    def to_perfetto(self) -> dict:
        """This shard's own Perfetto document, parsed from the text of
        :meth:`perfetto_events`."""
        return json.loads(perfetto_json(self.perfetto_events()))


def _plain_copy(value: typing.Any) -> typing.Any:
    """Recursive copy of JSON-shaped plain data: every dict and list is
    new, everything else (scalars) is shared."""
    if isinstance(value, dict):
        return {key: _plain_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain_copy(item) for item in value]
    return value


def _copy_series(entry: dict) -> dict:
    """Copy one :meth:`MetricsRegistry.series_snapshot` entry by shape."""
    out = dict(entry)
    out["labels"] = dict(entry["labels"])
    if "times" in entry:
        out["times"] = list(entry["times"])
        out["values"] = list(entry["values"])
    if "buckets" in entry:
        out["buckets"] = _plain_copy(entry["buckets"])
    return out


def capture_shard(
    sim: "Simulator",
    shard: int,
    hosts: typing.Sequence[str],
    audit: typing.Sequence[dict] = (),
    triggers: typing.Sequence[dict] = (),
) -> ShardTelemetry:
    """Snapshot one shard simulator into a plain-data telemetry blob."""
    flat: list[tuple[int, dict]] = []
    for prefix in RECORD_PREFIXES:
        for record in sim.trace.select(prefix):
            flat.append(
                (
                    record.sequence,
                    {"time": record.time, "kind": record.kind, **record.fields},
                )
            )
    flat.sort(key=lambda item: item[0])
    return ShardTelemetry(
        shard=shard,
        hosts=list(hosts),
        spans=span_records(sim.trace),
        records=[record for _, record in flat],
        metrics=sim.metrics.series_snapshot() if sim.metrics.enabled else {},
        audit=list(audit),
        triggers=list(triggers),
    )


@dataclasses.dataclass
class TelemetryBundle:
    """The fleet-wide merge of every shard's telemetry blob."""

    fleet: str
    shards: list[ShardTelemetry]

    @classmethod
    def merge(
        cls, fleet: str, blobs: typing.Sequence[dict]
    ) -> "TelemetryBundle":
        """Fold ordered per-shard blob dicts (the cell payload form) into
        one bundle.  Order must be shard order — the fleet runner passes
        payloads already ordered, which keeps merged documents (and the
        bit-identity gate over them) deterministic."""
        shards = [ShardTelemetry.from_dict(blob) for blob in blobs]
        for position, shard in enumerate(shards):
            if shard.shard != position:
                raise AnalysisError(
                    f"telemetry blobs out of order: position {position} "
                    f"holds shard {shard.shard}"
                )
        return cls(fleet=fleet, shards=shards)

    # -- provenance ---------------------------------------------------------------

    def host_shard(self) -> dict[str, int]:
        """Host name -> owning shard index (the provenance map)."""
        out: dict[str, int] = {}
        for shard in self.shards:
            for host in shard.hosts:
                if host in out:
                    raise AnalysisError(
                        f"host {host!r} appears in shards {out[host]} "
                        f"and {shard.shard}"
                    )
                out[host] = shard.shard
        return out

    # -- (de)serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """The bundle as plain data: fleet name, host→shard provenance
        and every shard's :meth:`ShardTelemetry.to_dict`."""
        return {
            "fleet": self.fleet,
            "hosts": self.host_shard(),
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryBundle":
        if not isinstance(data, dict):
            raise AnalysisError(
                "malformed telemetry bundle: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        try:
            fleet = data["fleet"]
            blobs = data["shards"]
        except KeyError as exc:
            raise AnalysisError(
                f"malformed telemetry bundle: missing {exc}"
            ) from None
        return cls.merge(fleet, blobs)

    def write(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Serialize the bundle to strict JSON at ``path``."""
        return write_strict_json(path, self.to_dict())

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "TelemetryBundle":
        """Load a bundle previously serialized with :meth:`write`.

        Every failure — unreadable path, bytes that are not UTF-8 JSON, a
        document that is not a bundle — raises :class:`AnalysisError`
        naming ``path``.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise AnalysisError(f"{path}: no such telemetry bundle") from None
        except OSError as exc:
            raise AnalysisError(
                f"{path}: cannot read telemetry bundle: {exc.strerror or exc}"
            ) from None
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise AnalysisError(f"{path}: not UTF-8 JSON: {exc}") from None
        try:
            return cls.from_dict(data)
        except AnalysisError as exc:
            raise AnalysisError(f"{path}: {exc}") from None

    # -- merged Perfetto document -------------------------------------------------

    def perfetto_events(self) -> typing.Iterator[str]:
        """The trace-event texts of one merged Chrome trace-event
        document for the whole fleet.

        Each shard contributes two process groups: ``shardN spans``
        (pid ``2N+1``; one thread track per span actor) and ``shardN
        metrics`` (pid ``2N+2``; one counter track per instrument label
        set), and every span's args carry its ``shard``.  Track names
        already carry host labels, so the per-shard process split is
        pure provenance — sorting by pid in the Perfetto UI groups every
        host's activity under its owning shard.
        """
        for shard in self.shards:
            yield from perfetto_events(
                shard.spans,
                shard.metrics,
                pid=2 * shard.shard + 1,
                process=f"shard{shard.shard}",
                shard=shard.shard,
            )

    def to_perfetto(self) -> dict:
        """The merged Perfetto document, parsed from the text of
        :meth:`perfetto_events`."""
        return json.loads(perfetto_json(self.perfetto_events()))

    def write_perfetto(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Write the merged document's text to ``path`` (strict JSON,
        atomically; :func:`~repro.analysis.obs.write_trace_events`)."""
        return write_trace_events(path, self.perfetto_events())

    # -- merged Prometheus page ---------------------------------------------------

    def merged_snapshot(self) -> dict[str, list[dict]]:
        """A fleet-wide value snapshot: every shard's instruments with a
        ``shard`` provenance label merged into their label sets.

        The shape matches :meth:`MetricsRegistry.snapshot`, so the
        existing :func:`repro.analysis.obs.render_prometheus` renders it
        unchanged — one page for the whole fleet.
        """
        out: dict[str, list[dict]] = {}
        for shard in self.shards:
            for metric_name in shard.metrics:
                for entry in shard.metrics[metric_name]:
                    merged: dict[str, typing.Any] = {
                        "labels": {
                            **entry["labels"],
                            "shard": str(shard.shard),
                        }
                    }
                    for key in ("value", "count", "sum", "buckets"):
                        if key in entry:
                            merged[key] = entry[key]
                    out.setdefault(metric_name, []).append(merged)
        return out

    def to_prometheus(self) -> str:
        """The merged fleet Prometheus text exposition."""
        return render_prometheus(self.merged_snapshot())

    def write_prometheus(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Write :meth:`to_prometheus` to ``path``."""
        return write_atomic(path, self.to_prometheus())

    # -- SLO inputs ---------------------------------------------------------------

    def sli_rows(self) -> list[dict]:
        """Per-workload SLI rows recovered from the ``fleet.*`` gauges.

        ``run_fleet_shard`` publishes each measured row's downtime and
        availability as gauges labelled ``(host, vm, kind)``; reading
        them back here is what lets the SLO engine (and the obs-check
        zero-deviation gate) run from the merged telemetry alone.
        """
        rows: dict[tuple, dict] = {}
        for shard in self.shards:
            for metric_name, field in (
                ("fleet.downtime_seconds", "downtime_s"),
                ("fleet.availability", "availability"),
            ):
                for entry in shard.metrics.get(metric_name, ()):
                    key = tuple(sorted(entry["labels"].items()))
                    row = rows.setdefault(
                        key, {**entry["labels"], "shard": shard.shard}
                    )
                    row[field] = entry["value"]
        return [rows[key] for key in sorted(rows)]

    def all_records(self) -> list[dict]:
        """Every shard's trace records with shard provenance attached."""
        out: list[dict] = []
        for shard in self.shards:
            for record in shard.records:
                out.append({**record, "shard": shard.shard})
        return out
