"""Unit tests for virtual devices and event channels."""

import pytest

from repro.errors import DomainError
from repro.vmm import DeviceSet, EventChannelTable


class TestDeviceSet:
    def test_default_none(self):
        devices = DeviceSet()
        assert devices.all() == []

    def test_add_and_get(self):
        devices = DeviceSet()
        vbd = devices.add("vbd")
        assert vbd.device_id == "vbd0"
        assert devices.get("vbd0") is vbd

    def test_indices_increment_per_kind(self):
        devices = DeviceSet()
        devices.add("vif")
        second = devices.add("vif")
        vbd = devices.add("vbd")
        assert second.device_id == "vif1"
        assert vbd.device_id == "vbd0"

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            DeviceSet().add("gpu")

    def test_get_missing_raises(self):
        with pytest.raises(DomainError):
            DeviceSet().get("vbd0")

    def test_detach_attach_cycle(self):
        devices = DeviceSet()
        devices.add("vbd")
        devices.add("vif")
        assert devices.detach_all() == 2
        assert devices.attached_count == 0
        assert devices.detach_all() == 0  # idempotent
        assert devices.attach_all() == 2
        assert devices.attached_count == 2

    def test_io_on_detached_raises(self):
        devices = DeviceSet()
        vbd = devices.add("vbd")
        devices.detach_all()
        with pytest.raises(DomainError):
            vbd.require_attached()

    def test_descriptor_stable(self):
        devices = DeviceSet()
        devices.add("vif")
        devices.add("vbd")
        assert devices.descriptor() == ["vbd0", "vif0"]


class TestEventChannels:
    def test_bind_assigns_ports(self):
        table = EventChannelTable()
        a = table.bind("dom1", "Domain-0", "console")
        b = table.bind("dom1", "Domain-0", "xenstore")
        assert a.port != b.port
        assert len(table) == 2

    def test_channels_of_matches_either_end(self):
        table = EventChannelTable()
        table.bind("dom1", "Domain-0", "console")
        table.bind("Domain-0", "dom2", "device")
        assert len(table.channels_of("Domain-0")) == 2
        assert len(table.channels_of("dom1")) == 1

    def test_close_domain(self):
        table = EventChannelTable()
        table.bind("dom1", "Domain-0", "console")
        table.bind("dom1", "Domain-0", "xenstore")
        table.bind("dom2", "Domain-0", "console")
        assert table.close_domain("dom1") == 2
        assert len(table) == 1

    def test_snapshot_restore_roundtrip(self):
        """The §4.2 path: channel state survives through the save area."""
        table = EventChannelTable()
        table.bind("dom1", "Domain-0", "console")
        snapshot = table.snapshot_domain("dom1")
        table.close_domain("dom1")

        new_table = EventChannelTable()
        assert new_table.restore_domain(snapshot) == 1
        restored = new_table.channels_of("dom1")[0]
        assert (restored.owner, restored.peer) == ("dom1", "Domain-0")
        assert restored.purpose == "console"
