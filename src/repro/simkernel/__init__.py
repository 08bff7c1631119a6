"""A deterministic discrete-event simulation kernel.

This subpackage is self-contained (no dependencies on the rest of
``repro`` beyond the error types) and provides:

* :class:`~repro.simkernel.kernel.Simulator` — clock, run loop, primitive
  factories;
* :class:`~repro.simkernel.backends.BatchedBackend` — the scheduler: a
  monotone run plus near/far timer heaps, the only production backend
  (``tests/simkernel/heap_oracle.py`` keeps the binary-heap oracle it is
  diffed against);
* :class:`~repro.simkernel.events.Event`, timeouts, all-of/any-of conditions;
* :class:`~repro.simkernel.process.Process` — generator-based activities
  (ended by return, raise or :meth:`~repro.simkernel.process.Process.kill`);
* :class:`~repro.simkernel.resources.Resource` — queued contention points;
* :class:`~repro.simkernel.sharing.SharedPool` — fluid processor sharing;
* :class:`~repro.simkernel.tracing.Tracer` — an append-only log of typed
  trace records;
* :class:`~repro.simkernel.rng.RandomStreams` — named seeded RNG streams;
* :class:`~repro.simkernel.sanitizer.DeterminismSanitizer` — opt-in runtime
  determinism checks (``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``);
* :class:`~repro.simkernel.spans.SpanTracker` — nestable causal spans over
  the tracer (``sim.spans``), the substrate for the Perfetto exporter and
  the downtime critical-path analyzer;
* :class:`~repro.simkernel.metrics.MetricsRegistry` — counters, gauges and
  histograms (``sim.metrics``; opt-in via ``Simulator(metrics=True)`` /
  ``REPRO_METRICS=1``, no-op otherwise).
"""

from repro.simkernel.backends import BatchedBackend
from repro.simkernel.events import AllOf, AnyOf, Event, Timeout
from repro.simkernel.kernel import Simulator, TimerHandle
from repro.simkernel.metrics import (
    METRIC_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.simkernel.process import Process
from repro.simkernel.resources import Request, Resource
from repro.simkernel.rng import RandomStreams
from repro.simkernel.sanitizer import (
    DeterminismSanitizer,
    DeterminismWarning,
    SanitizerReport,
)
from repro.simkernel.sharing import SharedPool
from repro.simkernel.spans import SPAN_NAMES, Span, SpanTracker
from repro.simkernel.tracing import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "BatchedBackend",
    "Counter",
    "DeterminismSanitizer",
    "DeterminismWarning",
    "Event",
    "Gauge",
    "Histogram",
    "METRIC_SCHEMA",
    "MetricsRegistry",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SPAN_NAMES",
    "SanitizerReport",
    "SharedPool",
    "Simulator",
    "Span",
    "SpanTracker",
    "TimerHandle",
    "TraceRecord",
    "Tracer",
    "Timeout",
]
