"""Unit and property tests for P2M mapping tables."""

import dataclasses
import operator
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import P2MError
from repro.memory import Extent, P2MSnapshot, P2MTable, table_bytes_for
from repro.units import GiB, KiB, MiB, pages

from tests.memory.p2m_oracle import ReferenceP2MTable


class TestMapping:
    def test_map_and_translate(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 100))
        assert p2m.mfn_of(0) == 500
        assert p2m.mfn_of(99) == 599

    def test_unmapped_pfn_raises(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.mfn_of(0)

    def test_pfn_out_of_range(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.mfn_of(100)
        with pytest.raises(P2MError):
            p2m.map_extent(90, Extent(0, 20))

    def test_double_map_rejected(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        with pytest.raises(P2MError):
            p2m.map_extent(40, Extent(700, 20))

    def test_is_mapped(self):
        p2m = P2MTable("dom1", 10)
        p2m.map_extent(2, Extent(100, 3))
        assert not p2m.is_mapped(1)
        assert p2m.is_mapped(2) and p2m.is_mapped(4)
        assert not p2m.is_mapped(5)
        assert not p2m.is_mapped(99)

    def test_zero_size_table_rejected(self):
        with pytest.raises(P2MError):
            P2MTable("dom1", 0)


class TestUnmap:
    def test_unmap_returns_machine_extents(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        p2m.map_extent(50, Extent(900, 50))
        released = p2m.unmap_range(40, 20)
        assert released == [Extent(540, 10), Extent(900, 10)]
        assert not p2m.is_mapped(45)

    def test_unmap_unmapped_rejected(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.unmap_range(0, 10)

    def test_unmap_out_of_range(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.unmap_range(95, 10)

    def test_negative_npages_rejected(self):
        p2m = P2MTable("dom1", 10)
        p2m.map_extent(0, Extent(100, 10))
        with pytest.raises(P2MError):
            p2m.unmap_range(0, -1)
        assert p2m.mapped_pages == 10
        assert p2m.machine_extents() == [Extent(100, 10)]

    def test_zero_npages_releases_nothing(self):
        p2m = P2MTable("dom1", 10)
        p2m.map_extent(0, Extent(100, 10))
        assert p2m.unmap_range(3, 0) == []
        assert p2m.mapped_pages == 10


class TestMachineExtents:
    def test_coalesces_contiguous(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        p2m.map_extent(50, Extent(550, 50))  # contiguous machine memory
        assert p2m.machine_extents() == [Extent(500, 100)]

    def test_reports_disjoint_runs(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        p2m.map_extent(50, Extent(900, 50))
        assert p2m.machine_extents() == [Extent(500, 50), Extent(900, 50)]

    def test_empty_table(self):
        assert P2MTable("dom1", 10).machine_extents() == []


class TestFootprint:
    def test_2mib_per_gib(self):
        """The paper's stated table size: 2 MB per 1 GB of memory (§4.1)."""
        p2m = P2MTable("dom1", pages(1 * GiB))
        assert p2m.table_bytes == 2 * MiB
        assert table_bytes_for(1 * GiB) == 2 * MiB

    def test_footprint_scales(self):
        assert table_bytes_for(11 * GiB) == 22 * MiB

    def test_modelled_footprint_is_not_allocated(self):
        """An 11 GiB table reports the paper's 22 MiB while the host holds
        a few runs through map, snapshot, restore and replay."""
        npages = pages(11 * GiB)
        half = npages // 2
        tracemalloc.start()
        try:
            p2m = P2MTable("big", npages)
            p2m.map_extent(0, Extent(4 * npages, half))
            p2m.map_extent(half, Extent(0, npages - half))
            restored = P2MTable.from_snapshot("big", p2m.snapshot())
            extents = restored.machine_extents()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert extents == [Extent(0, npages - half), Extent(4 * npages, half)]
        assert restored.table_bytes == 22 * MiB
        assert peak < 64 * KiB


class TestSnapshot:
    def test_roundtrip(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(10, Extent(500, 30))
        snap = p2m.snapshot()
        restored = P2MTable.from_snapshot("dom1", snap)
        assert restored.mfn_of(10) == 500
        assert restored.machine_extents() == p2m.machine_extents()

    def test_snapshot_is_frozen_copy(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 10))
        snap = p2m.snapshot()
        p2m.unmap_range(0, 10)
        assert snap.runs == ((0, 500, 10),)  # unaffected by later mutation
        assert P2MTable.from_snapshot("dom1", snap).mfn_of(0) == 500
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.runs = ()

    def test_bijectivity_check(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 10))
        p2m.check_bijective()
        # Insert a run aliasing MFN 505 to simulate a VMM bug.
        corrupted = P2MSnapshot(100, p2m.snapshot().runs + ((20, 505, 1),))
        with pytest.raises(P2MError):
            P2MTable.from_snapshot("dom1", corrupted).check_bijective()


@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(
        st.integers(min_value=1, max_value=32), min_size=1, max_size=10
    )
)
def test_p2m_extent_replay_is_lossless(segments):
    """Property: mapping arbitrary disjoint machine extents and reading back
    machine_extents() conserves exactly the set of machine pages — the
    quick-reload replay path cannot lose or invent pages."""
    total = sum(segments)
    p2m = P2MTable("d", total)
    pfn = 0
    mfn = 0
    expected_pages = set()
    for i, seg in enumerate(segments):
        gap = 5  # leave machine gaps so extents stay disjoint
        extent = Extent(mfn, seg)
        p2m.map_extent(pfn, extent)
        expected_pages.update(range(extent.start, extent.end))
        pfn += seg
        mfn += seg + gap
    replayed = set()
    for extent in p2m.machine_extents():
        replayed.update(range(extent.start, extent.end))
    assert replayed == expected_pages
    p2m.check_bijective()


def _outcome(call, table):
    """``("ok", result)`` or ``("error", message)`` of one call."""
    try:
        result = call(table)
    except P2MError as exc:
        return "error", str(exc)
    if isinstance(result, dict):  # the key order is part of the contract
        result = list(result.items())
    return "ok", result


def _mapping(table):
    """PFN -> MFN (or None), page by page, through the query API."""
    return [
        table.mfn_of(pfn) if table.is_mapped(pfn) else None
        for pfn in range(table.pseudo_physical_pages)
    ]


def _round_trip(table):
    restored = type(table).from_snapshot("d", table.snapshot())
    return restored.mapped_pages, _mapping(restored), restored.machine_extents()


_CHECK_BIJECTIVE = operator.methodcaller("check_bijective")


@settings(max_examples=200, deadline=None)
@given(size=st.integers(min_value=1, max_value=40), data=st.data())
def test_runs_table_matches_per_page_oracle(size, data):
    """Property: random map/unmap/query sequences give the run-list table
    and the per-page oracle the same results and the same P2MErrors.
    While MFNs alias (only a corrupted table does), the oracle splits a
    duplicated MFN into separate extents, so only errors, the per-PFN
    mapping and check_bijective are compared then."""
    table, oracle = P2MTable("d", size), ReferenceP2MTable("d", size)
    pfns = st.integers(min_value=-2, max_value=size + 2)
    ops = st.sampled_from(
        ["map", "map", "map", "unmap", "unmap", "mfn_of", "is_mapped",
         "mfn_to_pfn", "round_trip"]
    )
    pfn_next = mfn_next = mfn_top = 0
    state, aliased = _mapping(oracle), False
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        op = data.draw(ops)
        mapped = [pfn for pfn, mfn in enumerate(state) if mfn is not None]
        pfn = data.draw(st.sampled_from(mapped) | pfns if mapped else pfns)
        if op == "map":
            start = data.draw(st.just(pfn_next) | pfns)
            npages = data.draw(st.integers(min_value=1, max_value=8))
            # Continue the last map, start past every MFN used, or (one
            # time in four) pick any MFN, which may alias.
            mfn = data.draw(st.sampled_from([mfn_next, mfn_top, mfn_top + 1, None]))
            if mfn is None:
                mfn = data.draw(st.integers(min_value=0, max_value=mfn_top + 1))
            call = operator.methodcaller("map_extent", start, Extent(mfn, npages))
        elif op == "unmap":
            npages = data.draw(
                st.integers(min_value=0, max_value=4)
                | st.integers(min_value=0, max_value=size + 2)
            )
            call = operator.methodcaller("unmap_range", pfn, npages)
        elif op == "mfn_to_pfn":
            mfns = data.draw(
                st.lists(st.integers(min_value=0, max_value=mfn_top + 2), max_size=8)
            )
            call = operator.methodcaller("mfn_to_pfn", mfns)
        elif op == "round_trip":
            call = _round_trip
        else:
            call = operator.methodcaller(op, pfn)
        got, want = _outcome(call, table), _outcome(call, oracle)
        if aliased:
            assert got[0] == want[0]
            if got[0] == "error":
                assert got == want
        else:
            assert got == want
        if op == "map" and got[0] == "ok":
            pfn_next, mfn_next = start + npages, mfn + npages
            mfn_top = max(mfn_top, mfn_next)
        state, bijective = _mapping(oracle), _outcome(_CHECK_BIJECTIVE, oracle)
        assert _mapping(table) == state
        assert _outcome(_CHECK_BIJECTIVE, table) == bijective
        assert table.mapped_pages == oracle.mapped_pages
        aliased = bijective[0] == "error"
        if not aliased:
            assert table.machine_extents() == oracle.machine_extents()
