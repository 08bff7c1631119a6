"""Unit tests for the xenstore daemon, including its aging defect."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import AgingFaults
from repro.errors import XenstoreError
from repro.simkernel import Simulator
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


def _full_sum(store):
    """The store's live bytes re-summed over every entry."""
    return sum(64 + len(path) + len(value) for path, value in store._tree.items())


_PATHS = st.sampled_from(
    ["/", "/a", "/a/b", "/a/bc", "/ab", "/local/domain/1",
     "/local/domain/1/name", "/local/domain/10/name"]
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _PATHS, st.text(max_size=8)),
        st.tuples(st.just("remove"), _PATHS, st.just("")),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(
    ops=_OPS,
    leak=st.sampled_from([0, 100]),
    budget=st.sampled_from([600, 4 * 1024 * 1024]),
)
def test_running_total_equals_the_full_sum(ops, leak, budget):
    """After every write, overwrite and subtree remove, the running live
    total is the full sum; the used-bytes gauge samples it before the
    operation changes the tree, as the re-summing store did."""
    sim = Simulator(metrics=True)
    store = Xenstore(
        budget_bytes=budget,
        faults=AgingFaults(xenstore_leak_per_txn_bytes=leak),
        metrics=sim.metrics,
    )
    gauge = sim.metrics.gauge("vmm.xenstore_used_bytes")
    for op, path, value in ops:
        before = _full_sum(store)
        try:
            if op == "write":
                store.write(path, value)
            else:
                store.remove(path)
        except XenstoreError:
            assert _full_sum(store) == before  # refused: the tree is as it was
        assert gauge.value == before + store.leaked_bytes
        assert store.live_bytes == _full_sum(store)
        assert store.used_bytes == store.live_bytes + store.leaked_bytes
        assert store.exhausted == (store.used_bytes >= budget)


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
