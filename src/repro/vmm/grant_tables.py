"""Grant tables: Xen's inter-domain page-sharing mechanism.

Device I/O in a split-driver world works over shared rings: a frontend
domain *grants* the backend (dom0) access to specific pages of its own
memory.  The VMM tracks grants so it can enforce isolation — and so a
suspend can verify the domain quiesced its I/O: a domain must *revoke*
all grants in its suspend handler (devices detach), and the resume
handler re-establishes them.

The model tracks grant references at page granularity with in-use
("mapped by the grantee") accounting, because the dangerous case in the
real system is exactly a suspend racing an in-flight mapping.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.errors import VMMError


@dataclasses.dataclass
class GrantEntry:
    """One granted page."""

    reference: int
    granter: str
    grantee: str
    pfn: int
    writable: bool
    mapped: bool = False
    """True while the grantee has the page mapped (I/O in flight)."""


class GrantTable:
    """All grant entries managed by one hypervisor instance."""

    def __init__(self) -> None:
        self._entries: dict[int, GrantEntry] = {}
        self._references = itertools.count(1)
        self.grants_issued = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- granter side ------------------------------------------------------------

    def grant(
        self, granter: str, grantee: str, pfn: int, writable: bool = True
    ) -> GrantEntry:
        """Share one of ``granter``'s pages with ``grantee``."""
        if pfn < 0:
            raise VMMError(f"negative PFN {pfn}")
        if granter == grantee:
            raise VMMError("a domain cannot grant to itself")
        entry = GrantEntry(next(self._references), granter, grantee, pfn, writable)
        self._entries[entry.reference] = entry
        self.grants_issued += 1
        return entry

    def revoke(self, reference: int) -> None:
        """End a grant.  Refuses while the grantee still has it mapped —
        the real-world rule that forces devices to detach before suspend."""
        entry = self._lookup(reference)
        if entry.mapped:
            raise VMMError(
                f"grant {reference} of {entry.granter!r} is still mapped "
                f"by {entry.grantee!r}"
            )
        del self._entries[reference]

    # -- grantee side --------------------------------------------------------------

    def map_grant(self, reference: int, grantee: str) -> GrantEntry:
        """The grantee maps the shared page (I/O begins)."""
        entry = self._lookup(reference)
        if entry.grantee != grantee:
            raise VMMError(
                f"grant {reference} belongs to {entry.grantee!r}, "
                f"not {grantee!r}"
            )
        if entry.mapped:
            raise VMMError(f"grant {reference} is already mapped")
        entry.mapped = True
        return entry

    def unmap_grant(self, reference: int) -> None:
        """The grantee releases the shared page (I/O done)."""
        entry = self._lookup(reference)
        if not entry.mapped:
            raise VMMError(f"grant {reference} is not mapped")
        entry.mapped = False

    # -- queries ---------------------------------------------------------------------

    def _lookup(self, reference: int) -> GrantEntry:
        try:
            return self._entries[reference]
        except KeyError:
            raise VMMError(f"no grant with reference {reference}") from None

    def entries_of(self, granter: str) -> list[GrantEntry]:
        """All active grants issued by one domain."""
        return [e for e in self._entries.values() if e.granter == granter]

    def mapped_count(self, granter: str) -> int:
        """How many of a domain's grants are currently mapped (in-flight
        I/O that must drain before suspend)."""
        return sum(1 for e in self.entries_of(granter) if e.mapped)

    def require_quiesced(self, granter: str) -> None:
        """Raise unless the domain has revoked every grant — the suspend
        precondition (§4.2: the handler detaches all devices first)."""
        remaining = self.entries_of(granter)
        if remaining:
            raise VMMError(
                f"domain {granter!r} still holds {len(remaining)} grant(s); "
                "devices must detach before suspend"
            )

    def purge(self, granter: str) -> int:
        """Forcibly drop every grant of a dying domain (domain destroy):
        mapped or not, the pages are going away.  Returns entries dropped."""
        victims = [e.reference for e in self.entries_of(granter)]
        for reference in victims:
            del self._entries[reference]
        return len(victims)
