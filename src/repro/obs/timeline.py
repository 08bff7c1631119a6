"""Decision timelines: the causal chain behind every control-plane action.

A ``control.decision`` audit record says *what* the control plane did;
this module reconstructs *why* and *what happened next*, using only a
merged :class:`~repro.obs.bundle.TelemetryBundle` — no simulator, no
report.  Each decision is reconciled with its surrounding telemetry into
one :class:`DecisionTimeline`:

``trigger``
    the detector firing that put the target host on the planner's radar
    (the latest matching entry in the shard's trigger log at or before
    the decision);
``cycle`` / ``action``
    the ``control.cycle`` and ``control.action`` spans the decision was
    recorded inside — joined through the ``span`` field the executor
    stamps on every audit entry (deferred decisions land in the cycle
    span only: the planner never opened an action for them);
``mechanisms``
    the mechanism spans that ran inside the action interval (``reboot``
    for rejuvenation, ``migration.vm`` for live migration);
``consequences``
    the service outage intervals overlapping the action — the downtime
    the decision cost, which the SLO engine prices.

The chain is deterministic because every join key is deterministic: span
ids are allocation-ordered, the trigger log is sorted, and audit order
is execution order.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import AnalysisError
from repro.obs.bundle import ShardTelemetry, TelemetryBundle
from repro.obs.slo import outage_intervals

TRIGGER_DETECTORS: dict[str, frozenset[str]] = {
    "migrate": frozenset({"overload", "underload", "net", "disk"}),
    "rejuvenate-warm": frozenset({"aging"}),
    "rejuvenate-cold": frozenset({"aging"}),
    "no-op": frozenset(),
}
"""Which detector kinds can motivate each action kind: migrations answer
pressure signals (CPU load, NIC rate, disk busy), rejuvenations answer
the aging detector, and a no-op answers nothing."""

MECHANISM_SPANS = frozenset({"reboot", "migration.vm"})
"""Span names that are *mechanisms* — the simulation activity an applied
control action consists of."""


@dataclasses.dataclass
class DecisionTimeline:
    """One decision's reconstructed causal chain, as plain data.

    ``decision`` is the audit entry itself; ``trigger`` the originating
    detector firing (``None`` for unsolicited decisions such as no-ops);
    ``cycle``/``action`` the resolved span intervals (``action`` is
    ``None`` for deferred decisions); ``mechanisms`` the mechanism spans
    inside the action; ``consequences`` the outage intervals overlapping
    it.
    """

    shard: int
    decision: dict
    trigger: dict | None
    cycle: dict | None
    action: dict | None
    mechanisms: list[dict]
    consequences: list[dict]

    def to_dict(self) -> dict:
        """The timeline as plain data (``explain --json`` emits these)."""
        return dataclasses.asdict(self)

    def render(self) -> str:
        """A human-readable causal chain, one hop per line."""
        d = self.decision
        head = f"{d['action']} {d['target']}"
        if d.get("vm"):
            head += f" vm={d['vm']}"
        if d.get("source"):
            head += f" from={d['source']}"
        lines = [
            f"[shard {self.shard}] t={d['time']:.1f}s cycle {d['cycle']}: "
            f"{head} -> {d['outcome']}"
        ]
        if d.get("reason"):
            lines.append(f"  reason: {d['reason']}")
        if self.trigger is not None:
            t = self.trigger
            lines.append(
                f"  trigger: {t['detector']} on {t['host']} at "
                f"t={t['time']:.1f}s (value {t['value']:.6g})"
            )
        else:
            lines.append("  trigger: none recorded")
        if self.action is not None:
            end = self.action["end"]
            shown = f"{end:.1f}s" if end is not None else "open"
            lines.append(
                f"  action span #{self.action['span']} "
                f"[{self.action['start']:.1f}s, {shown}] "
                f"in cycle span #{self.action['parent']}"
            )
        elif self.cycle is not None:
            lines.append(
                f"  deferred inside cycle span #{self.cycle['span']} "
                f"at t={self.cycle['start']:.1f}s"
            )
        for span in self.mechanisms:
            lines.append(
                f"  mechanism: {span['name']} ({span['actor']}"
                f"{', ' + span['detail'] if span['detail'] else ''}) "
                f"[{span['start']:.1f}s, {span['end']:.1f}s]"
            )
        for outage in self.consequences:
            lines.append(
                f"  downtime: {outage['service']}@{outage['domain']} "
                f"[{outage['start']:.1f}s, {outage['end']:.1f}s] = "
                f"{outage['end'] - outage['start']:.2f}s"
            )
        if not self.consequences and self.action is not None:
            lines.append("  downtime: none")
        return "\n".join(lines)


def _shard_timelines(shard: ShardTelemetry) -> list[DecisionTimeline]:
    spans_by_id = {span["span"]: span for span in shard.spans}
    out: list[DecisionTimeline] = []
    for entry in shard.audit:
        span_id = entry.get("span")
        node = spans_by_id.get(span_id)
        if node is None:
            raise AnalysisError(
                f"shard {shard.shard}: audit entry at t={entry.get('time')} "
                f"references unknown span {span_id!r}"
            )
        if node["name"] == "control.action":
            action: dict | None = node
            cycle = spans_by_id.get(node["parent"])
        elif node["name"] == "control.cycle":
            action = None  # deferred: recorded straight into the cycle
            cycle = node
        else:
            raise AnalysisError(
                f"shard {shard.shard}: audit span {span_id} is a "
                f"{node['name']!r} span, expected control.action/cycle"
            )
        wanted = TRIGGER_DETECTORS.get(entry["action"], frozenset())
        hosts = {entry.get("target"), entry.get("source")} - {None, ""}
        trigger = None
        for candidate in shard.triggers:
            if candidate["time"] > entry["time"]:
                break  # trigger log is time-sorted
            if candidate["detector"] in wanted and candidate["host"] in hosts:
                trigger = candidate
        mechanisms: list[dict] = []
        consequences: list[dict] = []
        if action is not None and action["end"] is not None:
            lo, hi = action["start"], action["end"]
            actors = hosts | ({entry.get("vm")} - {None, ""})
            mechanisms = [
                span
                for span in shard.spans
                if span["name"] in MECHANISM_SPANS
                and span["actor"] in actors
                and span["start"] >= lo
                and span["end"] is not None
                and span["end"] <= hi
            ]
            consequences = outage_intervals(shard.records, lo, hi)
        out.append(
            DecisionTimeline(
                shard=shard.shard,
                decision=entry,
                trigger=trigger,
                cycle=cycle,
                action=action,
                mechanisms=mechanisms,
                consequences=consequences,
            )
        )
    return out


def decision_timelines(bundle: TelemetryBundle) -> list[DecisionTimeline]:
    """Every decision's causal chain across the fleet, in shard order
    (and execution order within each shard — audit order)."""
    out: list[DecisionTimeline] = []
    for shard in bundle.shards:
        out.extend(_shard_timelines(shard))
    return out


def render_timelines(timelines: typing.Sequence[DecisionTimeline]) -> str:
    """All chains as one report block (empty string for no decisions)."""
    return "\n".join(timeline.render() for timeline in timelines)
