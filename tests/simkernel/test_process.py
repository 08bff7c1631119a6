"""Unit tests for generator-based processes."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator()


class TestBasicProcesses:
    def test_process_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "result"

        p = sim.spawn(proc(sim))
        assert sim.run(p) == "result"
        assert sim.now == 1

    def test_process_is_alive_until_done(self, sim):
        def proc(sim):
            yield sim.timeout(5)

        p = sim.spawn(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_spawn_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_processes_wait_for_each_other(self, sim):
        def child(sim):
            yield sim.timeout(2)
            return 99

        def parent(sim):
            value = yield sim.spawn(child(sim))
            return value + 1

        p = sim.spawn(parent(sim))
        assert sim.run(p) == 100

    def test_yield_non_event_fails_process(self, sim):
        def proc(sim):
            yield "not an event"

        p = sim.spawn(proc(sim))
        p.defuse()
        sim.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_exception_in_process_propagates(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        sim.spawn(proc(sim))
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()

    def test_failed_event_throws_into_process(self, sim):
        def proc(sim):
            ev = sim.event()
            sim.call_in(1, lambda: ev.fail(ValueError("injected")))
            try:
                yield ev
            except ValueError as exc:
                return str(exc)

        p = sim.spawn(proc(sim))
        assert sim.run(p) == "injected"

    def test_waiting_on_already_processed_event(self, sim):
        ev = sim.event().succeed("early")
        sim.run()

        def proc(sim):
            value = yield ev
            return value

        p = sim.spawn(proc(sim))
        assert sim.run(p) == "early"

    def test_two_processes_interleave(self, sim):
        log = []

        def proc(sim, name, delay):
            for i in range(3):
                yield sim.timeout(delay)
                log.append((name, sim.now))

        sim.spawn(proc(sim, "a", 1.0))
        sim.spawn(proc(sim, "b", 1.5))
        sim.run()
        # At t=3.0 both fire; b's timeout was enqueued earlier (at t=1.5)
        # so FIFO processing runs b first.
        assert log == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]


class TestKill:
    def test_kill_terminates_process(self, sim):
        cleaned = []

        def stubborn(sim):
            try:
                yield sim.timeout(100)
            finally:
                cleaned.append(True)

        p = sim.spawn(stubborn(sim))
        sim.run(sim.timeout(1))
        p.kill()
        sim.run()
        assert cleaned == [True]
        assert not p.is_alive
        assert isinstance(p.value, ProcessKilled)

    def test_kill_dead_process_is_noop(self, sim):
        def quick(sim):
            yield sim.timeout(1)
            return "v"

        p = sim.spawn(quick(sim))
        sim.run()
        p.kill()
        assert p.value == "v"
