"""The dict-building Perfetto exporter: the test oracle for the text builder.

:func:`perfetto_document` is ``repro.analysis.obs.perfetto_document`` and
:func:`bundle_document` is ``TelemetryBundle.to_perfetto`` as they were
before the exporter emitted each trace event's JSON text directly: every
event is a dict (two, with its ``args``), and the document is the dict
that ``json.dumps(document, allow_nan=False)`` turns into the file.

``test_perfetto_text.py`` draws random spans and metric series and
requires every Perfetto writer to write exactly that encoding, and to
fail where it fails.
"""

from __future__ import annotations

import typing

_US = 1e6
"""Chrome trace-event timestamps are microseconds; the clock is seconds."""


def perfetto_document(
    spans: typing.Sequence[dict[str, typing.Any]],
    series: typing.Mapping[str, list[dict[str, typing.Any]]],
    pid: int = 1,
    process: str = "repro-sim",
    shard: int | None = None,
) -> dict[str, typing.Any]:
    """Chrome trace-event JSON for one simulation's :func:`span_records`
    and metric ``series`` (a ``MetricsRegistry.series_snapshot``).

    Spans become ``"X"`` events on process ``pid``, one thread track per
    actor; counter/gauge series become ``"C"`` events on ``pid + 1``,
    which appears only when ``series`` holds a metric.  An open span is
    truncated at the latest span instant and flagged ``args.open``;
    ``shard``, when given, joins every span's args.  Loads directly in
    https://ui.perfetto.dev.
    """
    events: list[dict[str, typing.Any]] = [
        {
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": f"{process} spans"},
        },
    ]
    actors = sorted({span["actor"] for span in spans})
    tids = {actor: tid for tid, actor in enumerate(actors, start=1)}
    for actor, tid in tids.items():
        events.append(
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
        events.append(
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
    if series:
        metric_pid = pid + 1
        events.append(
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
                    f"{metric_name}{{{label_text}}}"
                    if label_text
                    else metric_name
                )
                for t, v in zip(entry["times"], entry["values"]):
                    events.append(
                        {
                            "ph": "C", "pid": metric_pid, "ts": t * _US,
                            "name": track, "args": {"value": v},
                        }
                    )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def bundle_document(self: typing.Any) -> dict:
    """One merged Chrome trace-event document for the whole fleet.

    Each shard contributes two process groups: ``shardN spans``
    (pid ``2N+1``; one thread track per span actor) and ``shardN
    metrics`` (pid ``2N+2``; one counter track per instrument label
    set), and every span's args carry its ``shard``.  Track names
    already carry host labels, so the per-shard process split is
    pure provenance — sorting by pid in the Perfetto UI groups every
    host's activity under its owning shard.
    """
    events: list[dict] = []
    for shard in self.shards:
        events += perfetto_document(
            shard.spans,
            shard.metrics,
            pid=2 * shard.shard + 1,
            process=f"shard{shard.shard}",
            shard=shard.shard,
        )["traceEvents"]
    return {"displayTimeUnit": "ms", "traceEvents": events}
