"""The per-page P2M table: the test oracle for the run-list table.

This is the numpy table :class:`~repro.memory.p2m.P2MTable` used before
it became a PFN-sorted list of ``(pfn, mfn, npages)`` runs: one ``int64``
entry per PFN, ``-1`` where unmapped.  It answers every query by
scanning that array, so the differential property in ``test_p2m.py``
diffs the run-list table against it call for call, errors included.

Two differences are known and kept out of the comparison:

* ``unmap_range`` with a negative ``npages`` slices ``[start:start+n]``
  and unmaps part of the table here, where the run-list table raises;
* when MFNs alias (only a corrupted table does), sorting the array
  splits a duplicated MFN into separate extents.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.errors import P2MError
from repro.memory.frames import Extent

UNMAPPED = np.int64(-1)


class ReferenceP2MTable:
    """One domain's PFN → MFN mapping, one array entry per PFN."""

    def __init__(self, domain_name: str, pseudo_physical_pages: int) -> None:
        if pseudo_physical_pages <= 0:
            raise P2MError(
                f"domain {domain_name!r} needs > 0 pages, "
                f"got {pseudo_physical_pages}"
            )
        self.domain_name = domain_name
        self._table = np.full(pseudo_physical_pages, UNMAPPED, dtype=np.int64)

    @property
    def pseudo_physical_pages(self) -> int:
        return int(self._table.size)

    @property
    def table_bytes(self) -> int:
        return int(self._table.nbytes)

    @property
    def mapped_pages(self) -> int:
        return int(np.count_nonzero(self._table != UNMAPPED))

    def map_extent(self, pfn_start: int, extent: Extent) -> None:
        pfn_end = pfn_start + extent.npages
        if pfn_start < 0 or pfn_end > self._table.size:
            raise P2MError(
                f"PFN range [{pfn_start}, {pfn_end}) outside domain "
                f"{self.domain_name!r} (size {self._table.size})"
            )
        window = self._table[pfn_start:pfn_end]
        if np.any(window != UNMAPPED):
            raise P2MError(
                f"PFN range [{pfn_start}, {pfn_end}) already mapped in "
                f"{self.domain_name!r}"
            )
        window[:] = np.arange(extent.start, extent.end, dtype=np.int64)

    def unmap_range(self, pfn_start: int, npages: int) -> list[Extent]:
        pfn_end = pfn_start + npages
        if pfn_start < 0 or pfn_end > self._table.size:
            raise P2MError(f"PFN range [{pfn_start}, {pfn_end}) out of range")
        window = self._table[pfn_start:pfn_end]
        if np.any(window == UNMAPPED):
            raise P2MError(
                f"PFN range [{pfn_start}, {pfn_end}) not fully mapped"
            )
        extents = _runs_to_extents(np.asarray(window))
        window[:] = UNMAPPED
        return extents

    def mfn_of(self, pfn: int) -> int:
        if not 0 <= pfn < self._table.size:
            raise P2MError(f"PFN {pfn} out of range")
        mfn = int(self._table[pfn])
        if mfn < 0:
            raise P2MError(f"PFN {pfn} unmapped in {self.domain_name!r}")
        return mfn

    def is_mapped(self, pfn: int) -> bool:
        return 0 <= pfn < self._table.size and int(self._table[pfn]) >= 0

    def machine_extents(self) -> list[Extent]:
        mapped = np.sort(self._table[self._table != UNMAPPED])
        return _runs_to_extents(mapped, presorted=True)

    def machine_pages(self) -> int:
        return self.mapped_pages

    def check_bijective(self) -> None:
        mapped = self._table[self._table != UNMAPPED]
        if mapped.size != np.unique(mapped).size:
            raise P2MError(f"aliased MFNs in {self.domain_name!r}")

    def mfn_to_pfn(self, mfns: typing.Iterable[int]) -> dict[int, int]:
        table = self._table
        wanted = np.fromiter(mfns, dtype=np.int64)
        if wanted.size == 0:
            return {}
        mask = np.isin(table, wanted)
        pfns = np.nonzero(mask)[0]
        return {int(table[pfn]): int(pfn) for pfn in pfns}

    def snapshot(self) -> np.ndarray:
        copy = self._table.copy()
        copy.setflags(write=False)
        return copy

    @classmethod
    def from_snapshot(
        cls, domain_name: str, snapshot: np.ndarray
    ) -> "ReferenceP2MTable":
        table = cls(domain_name, int(snapshot.size))
        table._table = snapshot.copy()
        return table


def _runs_to_extents(mfns: np.ndarray, presorted: bool = False) -> list[Extent]:
    """Coalesce an array of MFNs into maximal contiguous extents."""
    if mfns.size == 0:
        return []
    ordered = mfns if presorted else np.sort(mfns)
    breaks = np.where(np.diff(ordered) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [ordered.size - 1]))
    return [
        Extent(int(ordered[s]), int(ordered[e] - ordered[s] + 1))
        for s, e in zip(starts, ends)
    ]
