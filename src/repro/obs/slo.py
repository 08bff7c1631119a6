"""Declarative SLOs evaluated over telemetry: targets, burn rates, verdicts.

An :class:`SLOSpec` states what the paper's availability story promises
in machine-checkable form — an availability target and a downtime
budget — and :func:`evaluate_slo` turns measured telemetry (per-workload
SLI rows and service outage intervals) into a plain-data **SLO report**:
one verdict per objective plus a windowed **burn-rate series** in the
SRE sense (error budget consumed per window, normalized so ``burn ==
1.0`` means "exactly on budget").

The spec is TOML-shaped and attaches to fleet specs as an ``[slo]``
table (see :class:`repro.fleet.spec.FleetSpec`); attaching one implies
telemetry collection for the run.  Evaluation consumes only plain data:
the fleet runner evaluates it over the merged cross-shard
:class:`~repro.obs.bundle.TelemetryBundle`, and never needs the
simulators back.

Verdicts are strict: an objective whose input data is missing (an
availability target over rows that carry no availability, say)
**fails** with ``measured: None`` rather than passing vacuously — a
silently unmeasurable SLO is an instrumentation bug, not a healthy
fleet.
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

    ``window_s`` sets the burn-rate tile width; the burn series always
    accompanies the verdicts.
    """

    TABLE = "slo"
    availability: float | None = None
    downtime_budget_s: float | None = None
    window_s: float = 60.0

    def __post_init__(self) -> None:
        require(
            self.availability is not None or self.downtime_budget_s is not None,
            "slo",
            "needs at least one objective (availability or downtime_budget_s)",
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
    over the evaluation span; the spec states one or the other).
    ``burn`` is outage-seconds over budget — ``1.0`` means exactly on
    budget — or ``None`` where the budget is 0 (a 100% availability
    target burns infinitely on any outage; strict JSON has no Infinity).
    """
    if end <= start:
        raise AnalysisError(f"empty SLO window [{start}, {end}]")
    units = max(units, 1)
    if spec.availability is not None:
        budget_fraction = 1.0 - spec.availability
    else:
        budget_fraction = spec.downtime_budget_s / ((end - start) * units)
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
) -> dict:
    """Evaluate one SLO spec into a plain-data report.

    ``rows`` are SLI rows: dicts carrying ``availability`` and/or a
    downtime field (``downtime_s`` or ``total_downtime_s``) per measured
    workload.  ``outages`` are :func:`outage_intervals`.  The report is
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
        lines.append(
            f"  {objective['kind']}: measured {shown} vs target "
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
