"""P2M mapping tables: pseudo-physical to machine frame translation.

Per §4.1, the VMM keeps a *P2M-mapping table* per domain recording, for
every pseudo-physical frame number (PFN), which machine frame (MFN) backs
it.  The table is what lets a rebooted VMM re-adopt a suspended domain's
memory: entries are preserved across the quick reload and replayed into
the frame allocator before anything else can allocate.

The paper's table holds 8 bytes per 4 KiB page = **2 MiB per GiB** of
pseudo-physical memory; ``table_bytes`` reports that modelled footprint.
The simulator holds the same mapping as *runs*: a PFN-sorted list of
``(pfn, mfn, npages)`` tuples, each backing ``npages`` consecutive PFNs
with consecutive MFNs.  A new run merges into a neighbour whose PFN and
MFN ranges it continues, so the list is canonical and a domain built
from a handful of machine extents is a handful of runs, however large.
"""

from __future__ import annotations

import bisect
import dataclasses
import operator
import typing

from repro.errors import P2MError
from repro.memory.frames import Extent
from repro.units import PAGE_SIZE

ENTRY_BYTES = 8
"""Modelled size of one P2M entry (one per 4 KiB PFN: 2 MiB per GiB)."""

_Run = tuple[int, int, int]
_pfn_of = operator.itemgetter(0)


@dataclasses.dataclass(frozen=True)
class P2MSnapshot:
    """A frozen copy of one domain's P2M table (what suspend preserves)."""

    pages: int
    """Pseudo-physical size of the domain, in pages."""

    runs: tuple[_Run, ...]
    """``(pfn, mfn, npages)`` mapped runs, PFN-ascending."""

    @property
    def table_bytes(self) -> int:
        """Modelled footprint of the preserved table (2 MiB per GiB)."""
        return self.pages * ENTRY_BYTES


class P2MTable:
    """One domain's PFN → MFN mapping."""

    def __init__(self, domain_name: str, pseudo_physical_pages: int) -> None:
        if pseudo_physical_pages <= 0:
            raise P2MError(
                f"domain {domain_name!r} needs > 0 pages, "
                f"got {pseudo_physical_pages}"
            )
        self.domain_name = domain_name
        self._pages = pseudo_physical_pages
        self._runs: list[_Run] = []
        self._mapped = 0

    # -- sizing -----------------------------------------------------------------

    @property
    def pseudo_physical_pages(self) -> int:
        return self._pages

    @property
    def table_bytes(self) -> int:
        """Modelled footprint of the table (8 B per PFN: 2 MiB per GiB)."""
        return self._pages * ENTRY_BYTES

    @property
    def mapped_pages(self) -> int:
        return self._mapped

    # -- mapping -----------------------------------------------------------------

    def map_extent(self, pfn_start: int, extent: Extent) -> None:
        """Map ``extent.npages`` consecutive PFNs starting at ``pfn_start``."""
        pfn_end = pfn_start + extent.npages
        if pfn_start < 0 or pfn_end > self._pages:
            raise P2MError(
                f"PFN range [{pfn_start}, {pfn_end}) outside domain "
                f"{self.domain_name!r} (size {self._pages})"
            )
        runs = self._runs
        i = bisect.bisect_left(runs, pfn_start, key=_pfn_of)
        if (i and _end(runs[i - 1]) > pfn_start) or (
            i < len(runs) and runs[i][0] < pfn_end
        ):
            raise P2MError(
                f"PFN range [{pfn_start}, {pfn_end}) already mapped in "
                f"{self.domain_name!r}"
            )
        run = (pfn_start, extent.start, extent.npages)
        if i < len(runs) and _continues(run, runs[i]):
            run = (pfn_start, extent.start, extent.npages + runs.pop(i)[2])
        if i and _continues(runs[i - 1], run):
            pfn, mfn, npages = runs[i - 1]
            runs[i - 1] = (pfn, mfn, npages + run[2])
        else:
            runs.insert(i, run)
        self._mapped += extent.npages

    def unmap_range(self, pfn_start: int, npages: int) -> list[Extent]:
        """Unmap a PFN range, returning the machine extents released
        (maximal and sorted by MFN)."""
        if npages < 0:
            raise P2MError(f"cannot unmap {npages} pages")
        pfn_end = pfn_start + npages
        if pfn_start < 0 or pfn_end > self._pages:
            raise P2MError(f"PFN range [{pfn_start}, {pfn_end}) out of range")
        if npages == 0:
            return []
        runs = self._runs
        first = i = max(bisect.bisect_right(runs, pfn_start, key=_pfn_of) - 1, 0)
        released: list[tuple[int, int]] = []
        covered = pfn_start
        # Consecutive runs must tile the window with no PFN gap.
        while covered < pfn_end:
            if i == len(runs) or not runs[i][0] <= covered < _end(runs[i]):
                raise P2MError(
                    f"PFN range [{pfn_start}, {pfn_end}) not fully mapped"
                )
            pfn, mfn, _ = runs[i]
            upto = min(_end(runs[i]), pfn_end)
            released.append((mfn + covered - pfn, upto - covered))
            covered = upto
            i += 1
        head, tail = runs[first], runs[i - 1]
        kept = []
        if head[0] < pfn_start:
            kept.append((head[0], head[1], pfn_start - head[0]))
        if pfn_end < _end(tail):
            kept.append(
                (pfn_end, tail[1] + pfn_end - tail[0], _end(tail) - pfn_end)
            )
        runs[first:i] = kept
        self._mapped -= npages
        return _coalesce(released)

    def mfn_of(self, pfn: int) -> int:
        """Translate one PFN; raises if unmapped."""
        if not 0 <= pfn < self._pages:
            raise P2MError(f"PFN {pfn} out of range")
        run = self._run_at(pfn)
        if run is None:
            raise P2MError(f"PFN {pfn} unmapped in {self.domain_name!r}")
        return run[1] + pfn - run[0]

    def is_mapped(self, pfn: int) -> bool:
        """True if ``pfn`` is in range and currently backed by an MFN."""
        return 0 <= pfn < self._pages and self._run_at(pfn) is not None

    def _run_at(self, pfn: int) -> _Run | None:
        i = bisect.bisect_right(self._runs, pfn, key=_pfn_of)
        if i and pfn < _end(self._runs[i - 1]):
            return self._runs[i - 1]
        return None

    def machine_extents(self) -> list[Extent]:
        """All machine extents backing this domain, coalesced and sorted.

        This is what quick reload replays into the allocator after reboot.
        """
        return _coalesce([(mfn, npages) for _, mfn, npages in self._runs])

    def machine_pages(self) -> int:
        """Total machine pages currently backing this domain."""
        return self._mapped

    def check_bijective(self) -> None:
        """Every mapped PFN must name a distinct MFN (no aliasing)."""
        by_mfn = sorted((mfn, npages) for _, mfn, npages in self._runs)
        for (mfn, npages), (next_mfn, _) in zip(by_mfn, by_mfn[1:]):
            if next_mfn < mfn + npages:
                raise P2MError(f"aliased MFNs in {self.domain_name!r}")

    def mfn_to_pfn(self, mfns: typing.Iterable[int]) -> dict[int, int]:
        """Reverse-translate machine frames to the PFNs they back here.

        MFNs not mapped by this domain are silently absent from the result,
        which is ordered by ascending PFN.  Each MFN is one binary search
        over the runs sorted by MFN, so looking up a sparse handful of
        frames never walks the domain page by page — the save path calls
        this once per domain save.
        """
        by_mfn = sorted((mfn, pfn, npages) for pfn, mfn, npages in self._runs)
        starts = [mfn for mfn, _, _ in by_mfn]
        found: list[tuple[int, int]] = []
        for mfn in mfns:
            i = bisect.bisect_right(starts, mfn) - 1
            if i >= 0:
                run_mfn, run_pfn, npages = by_mfn[i]
                if mfn < run_mfn + npages:
                    found.append((run_pfn + mfn - run_mfn, mfn))
        found.sort()
        return {mfn: pfn for pfn, mfn in found}

    def snapshot(self) -> P2MSnapshot:
        """A frozen copy of the table (for save/restore paths)."""
        return P2MSnapshot(self._pages, tuple(self._runs))

    @classmethod
    def from_snapshot(cls, domain_name: str, snapshot: P2MSnapshot) -> "P2MTable":
        """Rebuild a live table from a :meth:`snapshot`."""
        table = cls(domain_name, snapshot.pages)
        table._runs = list(snapshot.runs)
        table._mapped = sum(npages for _, _, npages in snapshot.runs)
        return table


def _end(run: _Run) -> int:
    """One past the run's last PFN."""
    return run[0] + run[2]


def _continues(run: _Run, successor: _Run) -> bool:
    """True if ``successor`` extends ``run`` in both PFN and MFN space."""
    pfn, mfn, npages = run
    return pfn + npages == successor[0] and mfn + npages == successor[1]


def _coalesce(pieces: list[tuple[int, int]]) -> list[Extent]:
    """Maximal machine extents covering ``(mfn, npages)`` pieces, by MFN."""
    merged: list[list[int]] = []
    for mfn, npages in sorted(pieces):
        if merged and merged[-1][0] + merged[-1][1] == mfn:
            merged[-1][1] += npages
        else:
            merged.append([mfn, npages])
    return [Extent(mfn, npages) for mfn, npages in merged]


def table_bytes_for(memory_bytes: int) -> int:
    """P2M footprint for a domain of ``memory_bytes`` pseudo-physical RAM."""
    return (memory_bytes // PAGE_SIZE) * ENTRY_BYTES
