"""Unit tests for the reboot-surviving preserved-image store."""

import pytest

from repro.errors import MemoryError_
from repro.memory import P2MSnapshot, PreservedStore, SuspendImage
from repro.units import KiB, MiB


def make_image(name="dom1", npages=256):
    return SuspendImage(
        domain_name=name,
        p2m_snapshot=P2MSnapshot(npages, ((0, 0, npages),)),
        execution_state={"pc": 0xdeadbeef, "event_channels": {1: "up"}},
        configuration={"memory_bytes": npages * 4096, "devices": ["vbd", "vif"]},
    )


class TestStore:
    def test_save_and_load(self):
        store = PreservedStore()
        image = make_image()
        store.save(image)
        assert "dom1" in store
        assert store.load("dom1") is image

    def test_duplicate_save_rejected(self):
        store = PreservedStore()
        store.save(make_image())
        with pytest.raises(MemoryError_):
            store.save(make_image())

    def test_load_missing_raises(self):
        with pytest.raises(MemoryError_):
            PreservedStore().load("ghost")

    def test_discard(self):
        store = PreservedStore()
        store.save(make_image())
        store.discard("dom1")
        assert "dom1" not in store
        store.discard("dom1")  # idempotent

    def test_domain_names_and_len(self):
        store = PreservedStore()
        store.save(make_image("a"))
        store.save(make_image("b"))
        assert len(store) == 2
        assert store.domain_names == ["a", "b"]

    def test_wipe_models_hardware_reset(self):
        store = PreservedStore()
        store.save(make_image("a"))
        store.save(make_image("b"))
        store.wipe()
        assert len(store) == 0


class TestFootprint:
    def test_state_area_is_16kib(self):
        """§4.2: the execution-state save area is 16 KB per domain."""
        assert make_image().state_bytes == 16 * KiB

    def test_preserved_bytes_includes_p2m(self):
        image = make_image(npages=262144)  # 1 GiB domain
        assert image.preserved_bytes == 16 * KiB + 2 * MiB

    def test_store_total(self):
        store = PreservedStore()
        store.save(make_image("a"))
        store.save(make_image("b"))
        assert store.preserved_bytes == 2 * make_image("c").preserved_bytes
