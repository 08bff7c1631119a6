"""The reboot-surviving save area for suspended domains.

On-memory suspend (§4.2) saves, per domain, three things that must outlive
the VMM instance: the P2M-mapping table, the 16 KB execution state
(registers, event-channel status, shared info), and the domain
configuration (devices, memory size).  All of it lives in ordinary machine
RAM at a well-known location, so:

* a **quick reload** hands the area to the next VMM instance intact;
* a **hardware reset** destroys it along with all other DRAM content.

:class:`PreservedStore` models that area.  The physical-machine model
wipes it in ``hardware_reset()`` and keeps it in ``quick_reload()`` —
the distinction the whole technique rests on.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import MemoryError_
from repro.memory.p2m import P2MSnapshot
from repro.units import KiB


@dataclasses.dataclass
class SuspendImage:
    """Everything preserved for one suspended domain."""

    domain_name: str
    p2m_snapshot: P2MSnapshot
    """Frozen copy of the domain's P2M table at suspend time."""

    execution_state: dict[str, typing.Any]
    """CPU registers, event-channel state, shared-info snapshot (§4.2)."""

    configuration: dict[str, typing.Any]
    """Domain configuration: memory size, devices, services."""

    state_bytes: int = 16 * KiB
    """Footprint of the execution-state save area (16 KB per §4.2)."""

    @property
    def preserved_bytes(self) -> int:
        """Total bytes this image pins in the preserved area."""
        return self.state_bytes + self.p2m_snapshot.table_bytes


class PreservedStore:
    """The machine-RAM area surviving quick reload but not hardware reset."""

    def __init__(self) -> None:
        self._images: dict[str, SuspendImage] = {}

    def __len__(self) -> int:
        return len(self._images)

    def __contains__(self, domain_name: str) -> bool:
        return domain_name in self._images

    @property
    def domain_names(self) -> list[str]:
        return list(self._images)

    @property
    def preserved_bytes(self) -> int:
        return sum(image.preserved_bytes for image in self._images.values())

    def save(self, image: SuspendImage) -> None:
        """Preserve one domain's image (one image per domain)."""
        if image.domain_name in self._images:
            raise MemoryError_(
                f"domain {image.domain_name!r} already has a preserved image"
            )
        self._images[image.domain_name] = image

    def load(self, domain_name: str) -> SuspendImage:
        """Fetch a preserved image; raises if the domain has none."""
        try:
            return self._images[domain_name]
        except KeyError:
            raise MemoryError_(
                f"no preserved image for domain {domain_name!r}"
            ) from None

    def discard(self, domain_name: str) -> None:
        """Drop a preserved image (idempotent; used after resume)."""
        self._images.pop(domain_name, None)

    def images(self) -> list[SuspendImage]:
        """All preserved images, in save order."""
        return list(self._images.values())

    def wipe(self) -> None:
        """What a hardware reset does to the save area."""
        self._images.clear()
