"""Unit tests for queued resources."""

import contextlib

import pytest

from repro.errors import SimulationError
from repro.simkernel import Resource, Simulator
from repro.simkernel.sanitizer import DeterminismWarning


@pytest.fixture()
def sim():
    return Simulator()


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_single_slot_serializes(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def user(sim, name, hold):
            with res.request() as req:
                yield req
                log.append((name, "in", sim.now))
                yield sim.timeout(hold)
                log.append((name, "out", sim.now))

        sim.spawn(user(sim, "a", 2.0))
        sim.spawn(user(sim, "b", 1.0))
        sim.run()
        assert log == [
            ("a", "in", 0.0),
            ("a", "out", 2.0),
            ("b", "in", 2.0),
            ("b", "out", 3.0),
        ]

    def test_capacity_two_allows_parallel(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def user(sim, name):
            with res.request() as req:
                yield req
                yield sim.timeout(1.0)
                done.append((name, sim.now))

        for name in "abc":
            sim.spawn(user(sim, name))
        sim.run()
        assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]

    def test_count_and_queued(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert res.count == 1
        assert res.queued == 1
        res.release(r1)
        assert r2.triggered

    def test_release_is_idempotent(self, sim):
        res = Resource(sim, capacity=1)
        r = res.request()
        res.release(r)
        res.release(r)
        assert res.count == 0

    def test_cancel_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r2.cancel()
        res.release(r1)
        assert not r2.triggered
        assert res.count == 0

    def test_priority_beats_fifo(self, sim):
        res = Resource(sim, capacity=1)
        granted = []
        holder = res.request()
        low = res.request(priority=5)
        high = res.request(priority=1)
        low.add_callback(lambda e: granted.append("low"))
        high.add_callback(lambda e: granted.append("high"))
        res.release(holder)
        # This run ends with the low-priority request still queued, which
        # a sanitized simulator (REPRO_SANITIZE=1) reports.
        with (
            contextlib.nullcontext()
            if sim.sanitizer is None
            else pytest.warns(DeterminismWarning, match="undrained-waiters")
        ):
            sim.run()
        assert granted == ["high"]
        res.release(high)
        sim.run()
        assert granted == ["high", "low"]

    def test_context_manager_releases_on_kill(self, sim):
        res = Resource(sim, capacity=1)

        def holder(sim):
            with res.request() as req:
                yield req
                yield sim.timeout(100)

        p = sim.spawn(holder(sim))

        def killer(sim):
            yield sim.timeout(1)
            assert res.count == 1
            p.kill()

        sim.spawn(killer(sim))
        sim.run()
        assert res.count == 0
