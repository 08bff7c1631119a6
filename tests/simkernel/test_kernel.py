"""Unit tests for the Simulator run loop and timers."""

import pytest

from repro.errors import SimulationError
from repro.simkernel import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_run_until_number_advances_clock_exactly(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_run_until_event_returns_value(self):
        sim = Simulator()
        t = sim.timeout(2.0, value="x")
        assert sim.run(t) == "x"
        assert sim.now == 2.0

    def test_run_until_event_reraises_failure(self):
        sim = Simulator()
        ev = sim.event()
        sim.call_in(1, lambda: ev.fail(RuntimeError("later")))
        with pytest.raises(RuntimeError, match="later"):
            sim.run(ev)

    def test_run_until_unfired_event_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError, match="exhausted"):
            sim.run(ev)

    def test_peek_empty_is_inf(self):
        assert Simulator().peek() == float("inf")

    def test_step_empty_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_events_do_not_run_beyond_until(self):
        sim = Simulator()
        fired = []
        sim.timeout(10).add_callback(lambda e: fired.append(10))
        sim.run(until=5)
        assert fired == []
        sim.run(until=15)
        assert fired == [10]


class TestTimers:
    def test_call_in_runs_callback(self):
        sim = Simulator()
        out = []
        sim.call_in(3.0, lambda: out.append(sim.now))
        sim.run()
        assert out == [3.0]

    def test_cancel_prevents_callback(self):
        sim = Simulator()
        out = []
        handle = sim.call_in(3.0, lambda: out.append(1))
        handle.cancel()
        sim.run()
        assert out == []
        assert handle.cancelled

    def test_call_at_in_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_cancel_after_fire_is_safe(self):
        sim = Simulator()
        handle = sim.call_in(1.0, lambda: None)
        sim.run()
        handle.cancel()  # no error

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=5)
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.succeed_at(1.0)
        assert not ev.triggered


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()

            def proc(sim, name):
                for i in range(10):
                    yield sim.timeout(0.1 * ((i % 3) + 1))
                    sim.trace.record("tick", who=name, i=i)

            for name in ("a", "b", "c"):
                sim.spawn(proc(sim, name))
            sim.run()
            return [(r.time, r.kind, r.fields["who"], r.fields["i"]) for r in sim.trace]

        assert build() == build()
