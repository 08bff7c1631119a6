"""First-fit extent allocator for machine frames with owner tracking.

The allocator underpins both normal domain construction and the
warm-VM-reboot trick: after a quick reload the *new* VMM instance replays
the preserved P2M tables and re-reserves exactly the extents that belonged
to suspended domains (:meth:`FrameAllocator.reserve_exact`) **before**
general allocation resumes, so nothing can claim — and nothing scrubs —
a preserved memory image.

Invariants (property-tested):

* free extents are disjoint, sorted, and coalesced (no two adjacent);
* allocated extents are disjoint from each other and from free space;
* ``free_pages + allocated_pages == total_pages`` at all times;
* only the recorded owner may free an extent.
"""

from __future__ import annotations

import bisect

from repro.errors import FrameOwnershipError, OutOfMemoryError, MemoryError_
from repro.memory.frames import Extent, MachineMemory


class FrameAllocator:
    """Owns the free/allocated bookkeeping of one machine's frames."""

    def __init__(self, memory: MachineMemory) -> None:
        self.memory = memory
        self._free: list[Extent] = [Extent(0, memory.total_pages)]
        # start MFN -> (owner, extent)
        self._allocated: dict[int, tuple[str, Extent]] = {}

    # -- inspection ------------------------------------------------------------

    @property
    def total_pages(self) -> int:
        return self.memory.total_pages

    @property
    def free_pages(self) -> int:
        return sum(e.npages for e in self._free)

    @property
    def allocated_pages(self) -> int:
        return sum(e.npages for _, e in self._allocated.values())

    def free_extents(self) -> list[Extent]:
        """A snapshot of the free list (sorted, coalesced)."""
        return list(self._free)

    def owned_by(self, owner: str) -> list[Extent]:
        """All extents currently charged to ``owner``, sorted by start."""
        return sorted(
            extent
            for holder, extent in self._allocated.values()
            if holder == owner
        )

    def owner_of(self, mfn: int) -> str | None:
        """The owner of the extent containing ``mfn``, or None if free."""
        for holder, extent in self._allocated.values():
            if extent.contains(mfn):
                return holder
        return None

    def pages_of(self, owner: str) -> int:
        """Total pages currently charged to ``owner``."""
        return sum(e.npages for e in self.owned_by(owner))

    # -- allocation -------------------------------------------------------------

    def allocate(self, npages: int, owner: str) -> Extent:
        """First-fit allocation of a contiguous extent.

        Raises :class:`OutOfMemoryError` if no single free extent is large
        enough (machine memory fragmentation is real; callers that can take
        scattered memory should use :meth:`allocate_scattered`).
        """
        if npages <= 0:
            raise MemoryError_(f"allocation must be > 0 pages, got {npages}")
        for index, extent in enumerate(self._free):
            if extent.npages >= npages:
                taken = Extent(extent.start, npages)
                remainder_pages = extent.npages - npages
                if remainder_pages:
                    self._free[index] = Extent(taken.end, remainder_pages)
                else:
                    del self._free[index]
                self._allocated[taken.start] = (owner, taken)
                return taken
        raise OutOfMemoryError(
            f"no contiguous extent of {npages} pages "
            f"(largest free: {max((e.npages for e in self._free), default=0)})"
        )

    def allocate_scattered(self, npages: int, owner: str) -> list[Extent]:
        """Allocate ``npages`` total, possibly as several extents."""
        if npages <= 0:
            raise MemoryError_(f"allocation must be > 0 pages, got {npages}")
        if npages > self.free_pages:
            raise OutOfMemoryError(
                f"need {npages} pages, only {self.free_pages} free"
            )
        granted: list[Extent] = []
        remaining = npages
        while remaining > 0:
            extent = self._free[0]
            take = min(extent.npages, remaining)
            granted.append(self.allocate(take, owner))
            remaining -= take
        return granted

    def reserve_exact(self, extent: Extent, owner: str) -> None:
        """Claim a specific extent out of free space (quick-reload replay).

        Fails if any page of the extent is already allocated — which would
        mean the new VMM instance clobbered a preserved image, exactly the
        corruption §3.1 says quick reload must prevent.
        """
        for index, free in enumerate(self._free):
            if free.start <= extent.start and extent.end <= free.end:
                # Split the free extent into (before, taken, after).
                replacement: list[Extent] = []
                if free.start < extent.start:
                    replacement.append(Extent(free.start, extent.start - free.start))
                if extent.end < free.end:
                    replacement.append(Extent(extent.end, free.end - extent.end))
                self._free[index : index + 1] = replacement
                self._allocated[extent.start] = (owner, extent)
                return
        raise FrameOwnershipError(
            f"cannot reserve {extent} for {owner!r}: not entirely free"
        )

    def free(self, extent: Extent, owner: str, scrub: bool = True) -> None:
        """Release a frame range previously allocated/reserved by ``owner``.

        The range may be any sub-range of — or even span several adjacent —
        allocated extents, as long as every page is owned by ``owner``
        (an extent :meth:`P2MTable.unmap_range` returns may cut through
        an allocation).  Partial frees split the surviving portions back
        into the allocated set.

        ``scrub=True`` (the default, matching Xen's scrub-on-free) clears
        content sentinels so freed memory cannot leak another domain's data.
        """
        overlapping = [
            (start, holder, alloc)
            for start, (holder, alloc) in self._allocated.items()
            if alloc.overlaps(extent)
        ]
        overlapping.sort(key=lambda item: item[2].start)
        covered = 0
        for _, holder, alloc in overlapping:
            if holder != owner:
                raise FrameOwnershipError(
                    f"{extent} includes pages of {holder!r}, not {owner!r}"
                )
            low = max(alloc.start, extent.start)
            high = min(alloc.end, extent.end)
            covered += high - low
        if covered != extent.npages:
            raise FrameOwnershipError(f"{extent} is not an allocated extent")
        for start, _, alloc in overlapping:
            del self._allocated[start]
            if alloc.start < extent.start:
                before = Extent(alloc.start, extent.start - alloc.start)
                self._allocated[before.start] = (owner, before)
            if extent.end < alloc.end:
                after = Extent(extent.end, alloc.end - extent.end)
                self._allocated[after.start] = (owner, after)
        if scrub:
            self.memory.scrub(extent)
        self._insert_free(extent)

    def free_all(self, owner: str, scrub: bool = True) -> int:
        """Release everything owned by ``owner``; returns pages freed."""
        extents = self.owned_by(owner)
        for extent in extents:
            self.free(extent, owner, scrub=scrub)
        return sum(e.npages for e in extents)

    # -- internals ---------------------------------------------------------------

    def _insert_free(self, extent: Extent) -> None:
        """Insert into the sorted free list, coalescing with neighbours."""
        index = bisect.bisect_left(self._free, extent)
        start, end = extent.start, extent.end
        # Merge with predecessor?
        if index > 0 and self._free[index - 1].end == start:
            start = self._free[index - 1].start
            index -= 1
            del self._free[index]
        # Merge with successor?
        if index < len(self._free) and self._free[index].start == end:
            end = self._free[index].end
            del self._free[index]
        self._free.insert(index, Extent(start, end - start))

    def check_invariants(self) -> None:
        """Raise :class:`MemoryError_` if bookkeeping is inconsistent."""
        regions = sorted(
            [("free", e) for e in self._free]
            + [("alloc", e) for _, e in self._allocated.values()],
            key=lambda pair: pair[1].start,
        )
        previous_end = 0
        previous_kind = None
        for kind, extent in regions:
            if extent.start < previous_end:
                raise MemoryError_(f"overlap at {extent}")
            if (
                kind == "free"
                and previous_kind == "free"
                and extent.start == previous_end
            ):
                raise MemoryError_(f"uncoalesced free extents at {extent}")
            previous_end = extent.end
            previous_kind = kind
        if self.free_pages + self.allocated_pages != self.total_pages:
            raise MemoryError_(
                f"page conservation violated: {self.free_pages} free + "
                f"{self.allocated_pages} allocated != {self.total_pages}"
            )
