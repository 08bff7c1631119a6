"""Unit tests for the xenstore daemon, including its aging defect."""

import pytest

from repro.config import AgingFaults
from repro.errors import XenstoreError
from repro.vmm import Xenstore


class TestOperations:
    def test_bad_paths_rejected(self):
        store = Xenstore()
        with pytest.raises(XenstoreError):
            store.write("relative/path", "x")
        with pytest.raises(XenstoreError):
            store.write("/trailing/", "x")

    def test_remove_subtree(self):
        store = Xenstore()
        store.write("/local/domain/1/name", "vm1")
        store.write("/local/domain/1/memory", "1024")
        store.write("/local/domain/10/name", "vm10")
        store.write("/local/domain/2/name", "vm2")
        assert store.remove("/local/domain/1") == 2  # not /local/domain/10
        assert store.remove("/local/domain/1") == 0
        assert store.remove("/local/domain") == 2

    def test_domain_registration_helpers(self):
        store = Xenstore()
        store.register_domain(1, "vm1", 1024)
        only_vm1 = store.live_bytes
        store.register_domain(2, "vm2", 2048)
        store.unregister_domain(2)
        assert store.live_bytes == only_vm1
        assert store.remove("/local/domain/1") == 3  # name, memory, state

    def test_zero_budget_rejected(self):
        with pytest.raises(XenstoreError):
            Xenstore(budget_bytes=0)


class TestAging:
    def test_healthy_store_does_not_leak(self):
        store = Xenstore()
        for i in range(100):
            store.write(f"/k{i}", "v")
        assert store.leaked_bytes == 0

    def test_leak_accumulates_per_transaction(self):
        """Changeset 8640: xenstored leaks on every transaction (§2)."""
        store = Xenstore(faults=AgingFaults(xenstore_leak_per_txn_bytes=100))
        store.write("/a", "1")
        store.remove("/a")
        assert store.leaked_bytes == 200
        assert store.transactions == 2

    def test_exhaustion_fails_operations(self):
        store = Xenstore(
            budget_bytes=1000,
            faults=AgingFaults(xenstore_leak_per_txn_bytes=400),
        )
        store.write("/a", "1")
        store.write("/b", "2")
        with pytest.raises(XenstoreError, match="out of memory"):
            store.write("/c", "3")
        assert store.exhausted

    def test_live_bytes_accounting(self):
        store = Xenstore()
        store.write("/ab", "xyz")
        assert store.live_bytes == 64 + 3 + 3


class TestAgingFaults:
    def test_healthy_profile(self):
        faults = AgingFaults.healthy()
        assert faults.leak_on_domain_destroy_bytes == 0
        assert faults.xenstore_leak_per_txn_bytes == 0

    def test_paper_bugs_profile(self):
        faults = AgingFaults.paper_bugs()
        assert faults.leak_on_domain_destroy_bytes > 0
        assert faults.leak_on_error_path_bytes > 0
        assert faults.xenstore_leak_per_txn_bytes > 0

    def test_negative_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            AgingFaults(leak_on_error_path_bytes=-1)
