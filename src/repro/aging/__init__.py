"""Software aging and rejuvenation: detectors, crashes, availability.

§2 motivates rejuvenation with concrete Xen defects.  The fault knobs
that inject them are :class:`repro.config.AgingFaults` (the VMM and
xenstore below this package consult them); this package watches their
effect (:class:`AgingMonitor`), lets an exhausted heap crash the VMM and
a watchdog recover it, and computes service availability from measured
downtimes (§5.3).  Rejuvenation policies live in :mod:`repro.control`.

The detector and watchdog classes depend on :mod:`repro.core` (they
drive a host), so those heavier exports are loaded lazily: importing the
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
    "format_availability",
    "paper_plans",
]

_LAZY = {
    "AgingMonitor": ("repro.aging.detectors", "AgingMonitor"),
    "CrashWatchdog": ("repro.aging.watchdog", "CrashWatchdog"),
    "HeapExhaustionCrasher": ("repro.aging.watchdog", "HeapExhaustionCrasher"),
    "ResourceSample": ("repro.aging.detectors", "ResourceSample"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attribute = _LAZY[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module 'repro.aging' has no attribute {name!r}")
