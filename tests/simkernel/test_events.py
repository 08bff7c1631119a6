"""Unit tests for the event primitives."""

import contextlib

import pytest

from repro.errors import SimulationError
from repro.simkernel import Simulator
from repro.simkernel.sanitizer import DeterminismWarning


@pytest.fixture()
def sim():
    return Simulator()


def double_trigger_reported(sim):
    """Under ``REPRO_SANITIZE=1`` the sanitizer also reports a double
    trigger: expect its warning then, and none otherwise."""
    if sim.sanitizer is None:
        return contextlib.nullcontext()
    return pytest.warns(DeterminismWarning, match="double-trigger")


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_ok_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event().succeed()
        with double_trigger_reported(sim), pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("x"))
        with double_trigger_reported(sim), pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")


class TestCallbacks:
    def test_callback_runs_on_processing(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("hello")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["hello"]

    def test_callback_on_already_processed_runs_immediately(self, sim):
        ev = sim.event().succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_remove_callback(self, sim):
        ev = sim.event()
        seen = []
        cb = lambda e: seen.append(1)
        ev.add_callback(cb)
        ev.remove_callback(cb)
        ev.succeed()
        sim.run()
        assert seen == []

    def test_unobserved_failure_raises_from_run(self, sim):
        ev = sim.event()
        ev.fail(ValueError("unobserved"))
        with pytest.raises(ValueError, match="unobserved"):
            sim.run()

    def test_defused_failure_does_not_raise(self, sim):
        ev = sim.event()
        ev.fail(ValueError("handled"))
        ev.defuse()
        sim.run()
        assert not ev.ok


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_timeout_value(self, sim):
        t = sim.timeout(1.0, value="tick")
        sim.run()
        assert t.value == "tick"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_zero_delay_fires_now(self, sim):
        t = sim.timeout(0)
        sim.run()
        assert t.processed and sim.now == 0.0

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for d in (3.0, 1.0, 2.0):
            sim.timeout(d).add_callback(lambda e, d=d: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_time_fifo(self, sim):
        order = []
        for i in range(5):
            sim.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        a, b = sim.timeout(1), sim.timeout(2)
        both = sim.all_of([a, b])
        sim.run(both)
        assert sim.now == 2

    def test_any_of_fires_on_first(self, sim):
        a, b = sim.timeout(1), sim.timeout(2)
        either = sim.any_of([a, b])
        sim.run(either)
        assert sim.now == 1

    def test_or_operator(self, sim):
        either = sim.timeout(1) | sim.timeout(3)
        sim.run(either)
        assert sim.now == 1

    def test_all_of_value_maps_events(self, sim):
        a = sim.timeout(1, value="a")
        b = sim.timeout(2, value="b")
        both = sim.all_of([a, b])
        sim.run(both)
        assert both.value == {a: "a", b: "b"}

    def test_all_of_empty_fires_immediately(self, sim):
        ev = sim.all_of([])
        assert ev.triggered

    def test_any_of_empty_fires_immediately(self, sim):
        ev = sim.any_of([])
        assert ev.triggered

    def test_all_of_already_fired_events(self, sim):
        a = sim.event().succeed(1)
        b = sim.event().succeed(2)
        sim.run()
        both = sim.all_of([a, b])
        assert both.triggered

    def test_condition_propagates_failure(self, sim):
        a = sim.timeout(1)
        b = sim.event()
        both = sim.all_of([a, b])
        b.fail(RuntimeError("child failed"))
        with pytest.raises(RuntimeError, match="child failed"):
            sim.run(both)
