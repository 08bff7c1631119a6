"""Fleet-scale observability: merged telemetry, SLOs, decision timelines.

The scenario/fleet tiers *collect* telemetry (metric series, causal
spans, control audits); this package is where it becomes *legible* at
fleet scale:

* :mod:`repro.obs.bundle` — per-shard telemetry blobs captured in fleet
  workers and merged into one :class:`TelemetryBundle` with host→shard
  provenance, exportable as a single Perfetto document and a single
  Prometheus page for the whole fleet;
* :mod:`repro.obs.slo` — declarative service-level objectives (the
  ``[slo]`` TOML table) evaluated into burn-rate series and pass/fail
  reports;
* :mod:`repro.obs.timeline` — every control-plane decision reconciled
  with its surrounding telemetry into a causal chain: detector trigger →
  plan → action spans → downtime consequence;
* ``python -m repro.obs`` — the CLI over all three (``explain`` a bundle,
  ``check`` the whole pipeline end-to-end).
"""

from repro.obs.bundle import ShardTelemetry, TelemetryBundle, capture_shard
from repro.obs.slo import (
    SLOSpec,
    burn_rate_series,
    evaluate_slo,
    outage_intervals,
    render_slo,
)
from repro.obs.timeline import (
    DecisionTimeline,
    decision_timelines,
    render_timelines,
)

__all__ = [
    "DecisionTimeline",
    "SLOSpec",
    "ShardTelemetry",
    "TelemetryBundle",
    "burn_rate_series",
    "capture_shard",
    "decision_timelines",
    "evaluate_slo",
    "outage_intervals",
    "render_slo",
    "render_timelines",
]
