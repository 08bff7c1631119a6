"""The hypervisor substrate: a Xen-3.0.0-alike VMM.

Domain lifecycle, event channels, grant tables, xenstore, the hypercall
dispatcher and disk-based save/restore.  The warm-VM-reboot mechanisms
subclass :class:`Hypervisor` in :mod:`repro.core`, which also registers
the hypercalls they issue (``xexec`` and ``suspend``).
"""

from repro.vmm.devices import DeviceSet, VirtualDevice
from repro.vmm.domain import Domain, DomainState
from repro.vmm.event_channels import EventChannel, EventChannelTable
from repro.vmm.grant_tables import GrantEntry, GrantTable
from repro.vmm.hypervisor import DOM0_NAME, Hypervisor, VmmState
from repro.vmm.xenstore import Xenstore

__all__ = [
    "DOM0_NAME",
    "DeviceSet",
    "Domain",
    "DomainState",
    "EventChannel",
    "EventChannelTable",
    "GrantEntry",
    "GrantTable",
    "Hypervisor",
    "VirtualDevice",
    "VmmState",
    "Xenstore",
]
