"""Software aging and rejuvenation: detectors, policies, availability.

§2 motivates rejuvenation with concrete Xen defects.  The fault knobs
that inject them are :class:`repro.config.AgingFaults` (the VMM and
xenstore below this package consult them); this package watches their
effect (:class:`AgingMonitor`), schedules rejuvenation (time- and
threshold-based policies, §3.2), and computes service availability from
measured downtimes (§5.3).

The policy/detector classes depend on :mod:`repro.core` (they drive a
host), so those heavier exports are loaded lazily: importing the
availability model does not pull in the whole host stack.
"""

from repro.aging.availability import (
    RejuvenationPlan,
    format_availability,
    paper_plans,
)

__all__ = [
    "AgingMonitor",
    "CrashWatchdog",
    "HeapExhaustionCrasher",
    "RejuvenationPlan",
    "ResourceSample",
    "ScheduledEvent",
    "ThresholdRejuvenator",
    "TimeBasedRejuvenator",
    "format_availability",
    "paper_plans",
]

_LAZY = {
    "AgingMonitor": ("repro.aging.detectors", "AgingMonitor"),
    "CrashWatchdog": ("repro.aging.watchdog", "CrashWatchdog"),
    "HeapExhaustionCrasher": ("repro.aging.watchdog", "HeapExhaustionCrasher"),
    "ResourceSample": ("repro.aging.detectors", "ResourceSample"),
    "ScheduledEvent": ("repro.aging.policy", "ScheduledEvent"),
    "ThresholdRejuvenator": ("repro.aging.policy", "ThresholdRejuvenator"),
    "TimeBasedRejuvenator": ("repro.aging.policy", "TimeBasedRejuvenator"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attribute = _LAZY[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module 'repro.aging' has no attribute {name!r}")
