"""Software aging and rejuvenation: crashes, recovery, availability.

§2 motivates rejuvenation with concrete Xen defects.  The fault knobs
that inject them are :class:`repro.config.AgingFaults` (the VMM and
xenstore below this package consult them).  :mod:`repro.aging.watchdog`
lets an exhausted heap crash the VMM and a watchdog recover it, and this
package computes service availability from measured downtimes (§5.3).
Aging is watched through the control plane's heap signal and detectors
(:func:`repro.control.heap_utilization_signal`), and rejuvenation
policies live in :mod:`repro.control` too.

The watchdog drives a host, so it is imported from
:mod:`repro.aging.watchdog` directly: importing the availability model
does not pull in the whole host stack.
"""

from repro.aging.availability import (
    RejuvenationPlan,
    format_availability,
    paper_plans,
)

__all__ = [
    "RejuvenationPlan",
    "format_availability",
    "paper_plans",
]
