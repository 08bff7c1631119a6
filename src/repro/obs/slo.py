"""Declarative SLOs evaluated over telemetry: targets, burn rates, verdicts.

An :class:`SLOSpec` states what the paper's availability story promises
in machine-checkable form — an availability target, a downtime budget,
a latency quantile bound — and :func:`evaluate_slo` turns measured
telemetry (per-workload SLI rows, service outage intervals, the merged
request-latency histogram) into a plain-data **SLO report**: one verdict
per objective plus a windowed **burn-rate series** in the SRE sense
(error budget consumed per window, normalized so ``burn == 1.0`` means
"exactly on budget").

The spec is TOML-shaped and attaches to scenario and fleet specs as an
``[slo]`` table (see :class:`repro.scenario.spec.ScenarioSpec` /
:class:`repro.fleet.spec.FleetSpec`); attaching one implies metrics
collection for the run, exactly like ``[policy]``.  Evaluation consumes
only plain data, so the same engine runs over a live simulator's
telemetry (scenario runner) and over a merged cross-shard
:class:`~repro.obs.bundle.TelemetryBundle` (fleet runner) — the fleet
path never needs the simulators back.

Verdicts are strict: an objective whose input data is missing (latency
target without a latency histogram, say) **fails** with ``measured:
None`` rather than passing vacuously — a silently unmeasurable SLO is an
instrumentation bug, not a healthy fleet.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import Table, require
from repro.errors import AnalysisError


@dataclasses.dataclass(frozen=True)
class SLOSpec(Table):
    """One service-level objective set (the ``[slo]`` TOML table).

    At least one objective must be stated:

    ``availability``
        Mean measured availability across SLI rows must reach this target
        (a ratio in ``(0, 1]``).
    ``downtime_budget_s``
        Total measured downtime summed across SLI rows must not exceed
        this many seconds.
    ``latency_target_s`` / ``latency_quantile``
        The ``latency_quantile``-th quantile of the request-latency
        histogram must not exceed ``latency_target_s`` seconds.

    ``window_s`` sets the burn-rate tile width; the burn series always
    accompanies the verdicts when an availability or downtime objective
    is stated.
    """

    TABLE = "slo"
    availability: float | None = None
    downtime_budget_s: float | None = None
    latency_target_s: float | None = None
    latency_quantile: float = 0.99
    window_s: float = 60.0

    def __post_init__(self) -> None:
        require(
            self.availability is not None
            or self.downtime_budget_s is not None
            or self.latency_target_s is not None,
            "slo",
            "needs at least one objective (availability, "
            "downtime_budget_s, or latency_target_s)",
        )
        if self.availability is not None:
            require(
                0 < self.availability <= 1,
                "slo.availability",
                f"must be a ratio in (0, 1], got {self.availability}",
            )
        if self.downtime_budget_s is not None:
            require(
                self.downtime_budget_s >= 0,
                "slo.downtime_budget_s",
                f"must be >= 0, got {self.downtime_budget_s}",
            )
        if self.latency_target_s is not None:
            require(
                self.latency_target_s > 0,
                "slo.latency_target_s",
                f"must be positive, got {self.latency_target_s}",
            )
        require(
            0 < self.latency_quantile < 1,
            "slo.latency_quantile",
            f"must be in (0, 1), got {self.latency_quantile}",
        )
        require(
            self.window_s > 0,
            "slo.window_s",
            f"must be positive, got {self.window_s}",
        )


# ---------------------------------------------------------------------------
# telemetry -> SLI inputs
# ---------------------------------------------------------------------------

def outage_intervals(
    records: typing.Sequence[dict],
    start: float,
    end: float,
) -> list[dict]:
    """Service outage intervals from ``service.down``/``service.up``
    records, clipped to ``[start, end]``.

    Records are the plain-dict form a telemetry blob carries
    (``{"time": ..., "kind": "service.down", "service": ..., "domain":
    ...}``).  A service still down at ``end`` is clipped there — the
    window boundary is the measurement horizon, not a recovery.
    """
    open_since: dict[tuple[str, str], float] = {}
    intervals: list[dict] = []

    def close(key: tuple[str, str], at: float) -> None:
        down = open_since.pop(key)
        lo, hi = max(down, start), min(at, end)
        if hi > lo:
            intervals.append(
                {"domain": key[0], "service": key[1], "start": lo, "end": hi}
            )

    for record in records:
        kind = record.get("kind")
        if kind not in ("service.down", "service.up"):
            continue
        key = (str(record.get("domain", "")), str(record.get("service", "")))
        if kind == "service.down":
            open_since.setdefault(key, float(record["time"]))
        elif key in open_since:
            close(key, float(record["time"]))
    for key in sorted(open_since):
        close(key, end)
    intervals.sort(key=lambda i: (i["start"], i["domain"], i["service"]))
    return intervals


def merge_latency_histogram(
    entries: typing.Sequence[dict],
) -> dict | None:
    """Fold snapshot histogram entries (possibly from many label sets and
    shards) into one ``{"count", "sum", "buckets"}`` histogram.

    Entries must share bucket bounds (they do: bounds come from the
    closed METRIC_SCHEMA).  Returns ``None`` for an empty entry list.
    """
    merged: dict | None = None
    for entry in entries:
        if merged is None:
            merged = {
                "count": entry["count"],
                "sum": entry["sum"],
                "buckets": [list(pair) for pair in entry["buckets"]],
            }
            continue
        if len(entry["buckets"]) != len(merged["buckets"]):
            raise AnalysisError(
                "latency histograms have mismatched bucket counts"
            )
        merged["count"] += entry["count"]
        merged["sum"] += entry["sum"]
        for pair, (le, n) in zip(merged["buckets"], entry["buckets"]):
            if pair[0] != le:
                raise AnalysisError(
                    f"latency histogram bound mismatch: {pair[0]!r} vs {le!r}"
                )
            pair[1] += n
    return merged


def histogram_quantile(histogram: dict, quantile: float) -> float | None:
    """The ``quantile``-th value of a cumulative-bucket histogram.

    Prometheus ``histogram_quantile`` semantics: linear interpolation
    inside the bucket the rank lands in, 0 as the first bucket's lower
    bound, and the last *finite* bound when the rank lands in +Inf.
    ``None`` for an empty histogram.
    """
    count = histogram["count"]
    if count <= 0:
        return None
    rank = quantile * count
    lower = 0.0
    for le, cumulative in histogram["buckets"]:
        if le == "+Inf":
            return lower  # beyond the last finite bound: report that bound
        bound = float(le)
        if cumulative >= rank:
            # previous cumulative: cumulative of the bucket below
            below = 0
            for le2, c2 in histogram["buckets"]:
                if le2 == le:
                    break
                below = c2
            in_bucket = cumulative - below
            if in_bucket <= 0:
                return bound
            return lower + (bound - lower) * (rank - below) / in_bucket
        lower = bound
    return lower  # pragma: no cover - "+Inf" bucket is always present


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def burn_rate_series(
    spec: SLOSpec,
    outages: typing.Sequence[dict],
    start: float,
    end: float,
    units: int,
) -> list[dict]:
    """Error-budget burn per ``window_s`` tile over ``[start, end]``.

    ``units`` is the number of independently-measured services (SLI
    rows): the budget per tile is ``tile_length * units * budget_fraction``
    where the budget fraction comes from the availability target (or,
    with only a downtime budget stated, from spreading that budget evenly
    over the evaluation span).  ``burn`` is outage-seconds over budget —
    ``1.0`` means exactly on budget — or ``None`` where the budget is 0
    (a 100% availability target burns infinitely on any outage; strict
    JSON has no Infinity).
    """
    if end <= start:
        raise AnalysisError(f"empty SLO window [{start}, {end}]")
    units = max(units, 1)
    if spec.availability is not None:
        budget_fraction = 1.0 - spec.availability
    elif spec.downtime_budget_s is not None:
        budget_fraction = spec.downtime_budget_s / ((end - start) * units)
    else:
        return []
    tiles: list[dict] = []
    cursor = start
    while cursor < end:
        tile_end = min(cursor + spec.window_s, end)
        downtime = 0.0
        for outage in outages:
            lo = max(outage["start"], cursor)
            hi = min(outage["end"], tile_end)
            if hi > lo:
                downtime += hi - lo
        budget = (tile_end - cursor) * units * budget_fraction
        tiles.append(
            {
                "start": cursor,
                "end": tile_end,
                "downtime_s": downtime,
                "budget_s": budget,
                "burn": downtime / budget if budget > 0 else None,
            }
        )
        cursor = tile_end
    return tiles


def evaluate_slo(
    spec: SLOSpec,
    *,
    start: float,
    end: float,
    rows: typing.Sequence[dict],
    outages: typing.Sequence[dict] = (),
    latency: dict | None = None,
) -> dict:
    """Evaluate one SLO spec into a plain-data report.

    ``rows`` are SLI rows: dicts carrying ``availability`` and/or a
    downtime field (``downtime_s`` or ``total_downtime_s``) per measured
    workload.  ``outages`` are :func:`outage_intervals`; ``latency`` is a
    merged histogram (:func:`merge_latency_histogram`).  The report is
    JSON-safe and travels inside scenario/fleet reports.
    """
    objectives: list[dict] = []

    if spec.availability is not None:
        values = [
            float(row["availability"])
            for row in rows
            if row.get("availability") is not None
        ]
        measured = sum(values) / len(values) if values else None
        objectives.append(
            {
                "kind": "availability",
                "target": spec.availability,
                "measured": measured,
                "passed": measured is not None
                and measured >= spec.availability,
            }
        )

    if spec.downtime_budget_s is not None:
        values = [
            float(row["downtime_s"] if "downtime_s" in row
                  else row["total_downtime_s"])
            for row in rows
            if "downtime_s" in row or "total_downtime_s" in row
        ]
        measured = sum(values) if values else None
        objectives.append(
            {
                "kind": "downtime",
                "target": spec.downtime_budget_s,
                "measured": measured,
                "passed": measured is not None
                and measured <= spec.downtime_budget_s,
            }
        )

    if spec.latency_target_s is not None:
        measured = (
            histogram_quantile(latency, spec.latency_quantile)
            if latency is not None
            else None
        )
        objectives.append(
            {
                "kind": "latency",
                "quantile": spec.latency_quantile,
                "target": spec.latency_target_s,
                "measured": measured,
                "passed": measured is not None
                and measured <= spec.latency_target_s,
            }
        )

    return {
        "start": start,
        "end": end,
        "objectives": objectives,
        "burn": burn_rate_series(spec, outages, start, end, len(rows)),
        "passed": all(objective["passed"] for objective in objectives),
    }


def render_slo(report: dict) -> str:
    """A human-readable block for one SLO report."""
    verdict = "PASS" if report["passed"] else "FAIL"
    lines = [
        f"slo {verdict} over [{report['start']:.1f}s, {report['end']:.1f}s]"
    ]
    for objective in report["objectives"]:
        measured = objective["measured"]
        shown = "unmeasured" if measured is None else f"{measured:.6g}"
        kind = objective["kind"]
        if kind == "latency":
            kind = f"latency p{objective['quantile'] * 100:g}"
        lines.append(
            f"  {kind}: measured {shown} vs target "
            f"{objective['target']:.6g} -> "
            f"{'ok' if objective['passed'] else 'VIOLATED'}"
        )
    burns = [t["burn"] for t in report["burn"] if t["burn"] is not None]
    if burns:
        lines.append(
            f"  burn rate: peak {max(burns):.3g}, "
            f"mean {sum(burns) / len(burns):.3g} over "
            f"{len(report['burn'])} window(s)"
        )
    return "\n".join(lines)
