"""Tests for the opt-in runtime determinism sanitizer."""

import warnings

import pytest

from repro.errors import SimulationError
from repro.simkernel import DeterminismWarning, Simulator


class _Counter:
    """A shared receiver whose timer callbacks race if reordered."""

    def __init__(self):
        self.log = []

    def tick(self):
        self.log.append("tick")


def _arm_at(sim, target, time):
    """Process that arms a timer on ``target`` at absolute ``time``."""
    sim.call_at(time, target.tick)
    return
    yield  # pragma: no cover - makes this a generator


class TestOptIn:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert Simulator().sanitizer is None

    def test_enabled_by_argument(self):
        assert Simulator(sanitize=True).sanitizer is not None

    def test_enabled_by_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator().sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert Simulator().sanitizer is None

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(sanitize=False).sanitizer is None


class TestUnpinnedOrder:
    def test_racy_same_timestamp_schedule_is_reported(self):
        sim = Simulator(sanitize=True)
        counter = _Counter()
        sim.spawn(_arm_at(sim, counter, 5.0), name="armer-a")
        sim.spawn(_arm_at(sim, counter, 5.0), name="armer-b")
        with pytest.warns(DeterminismWarning, match="unpinned-order"):
            sim.run()
        codes = [r.code for r in sim.sanitizer.reports]
        assert codes == ["unpinned-order"]
        with pytest.raises(SimulationError, match="unpinned-order"):
            sim.sanitizer.assert_clean()

    def test_same_context_timers_are_pinned_by_program_order(self):
        sim = Simulator(sanitize=True)
        counter = _Counter()

        def armer(sim):
            sim.call_at(5.0, counter.tick)
            sim.call_at(5.0, counter.tick)
            return
            yield  # pragma: no cover

        sim.spawn(armer(sim), name="solo")
        sim.run()
        assert sim.sanitizer.reports == []

    def test_different_arming_times_are_causally_pinned(self):
        sim = Simulator(sanitize=True)
        counter = _Counter()
        sim.spawn(_arm_at(sim, counter, 5.0), name="early")

        def late(sim):
            yield sim.timeout(1.0)
            sim.call_at(5.0, counter.tick)

        sim.spawn(late(sim), name="late")
        sim.run()
        assert sim.sanitizer.reports == []

    def test_distinct_receivers_do_not_race(self):
        sim = Simulator(sanitize=True)
        sim.spawn(_arm_at(sim, _Counter(), 5.0), name="a")
        sim.spawn(_arm_at(sim, _Counter(), 5.0), name="b")
        sim.run()
        assert sim.sanitizer.reports == []

    def test_observation_does_not_perturb_order(self):
        def build(sanitize):
            sim = Simulator(sanitize=sanitize)
            counter = _Counter()
            log = counter.log
            sim.spawn(_arm_at(sim, counter, 5.0), name="a")
            sim.call_at(5.0, lambda: log.append("top"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeterminismWarning)
                sim.run()
            return log

        assert build(sanitize=True) == build(sanitize=False)

    @pytest.mark.parametrize("advance", ["step", "run-until-now"])
    def test_top_level_code_after_a_step_is_top_level(self, advance):
        # Both timers on the counter are armed at t=0 by top-level code,
        # one before and one after the t=0 entry runs, so program order
        # pins them.  A step() must hand control back the way run() does.
        sim = Simulator(sanitize=True)
        counter = _Counter()
        sim.call_at(5.0, counter.tick)
        sim.call_at(0.0, lambda: None)
        if advance == "step":
            sim.step()
        else:
            sim.run(until=0.0)
        sim.call_at(5.0, counter.tick)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeterminismWarning)
            sim.run()
        assert sim.sanitizer.reports == []
        assert counter.log == ["tick", "tick"]


class TestDoubleTrigger:
    def test_double_succeed_raises_and_reports(self):
        sim = Simulator(sanitize=True)
        event = sim.event("victim")
        event.succeed(1)
        with pytest.warns(DeterminismWarning, match="double-trigger"):
            with pytest.raises(SimulationError, match="already triggered"):
                event.succeed(2)
        (report,) = sim.sanitizer.reports
        assert report.code == "double-trigger"
        assert "victim" in report.message

    def test_fail_after_succeed_reports(self):
        sim = Simulator(sanitize=True)
        event = sim.event("victim")
        event.succeed()
        with pytest.warns(DeterminismWarning, match="double-trigger"):
            with pytest.raises(SimulationError):
                event.fail(RuntimeError("late"))
        assert sim.sanitizer.reports[0].code == "double-trigger"

    def test_without_sanitizer_still_raises(self):
        sim = Simulator(sanitize=False)
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError, match="already triggered"):
            event.succeed()


class TestEndOfRun:
    def test_unfinished_process_reported_on_exhaustion(self):
        sim = Simulator(sanitize=True)

        def stuck(sim):
            yield sim.event("never-fires")

        sim.spawn(stuck(sim), name="stuck")
        with pytest.warns(DeterminismWarning, match="unfinished-process"):
            sim.run()
        (report,) = sim.sanitizer.reports
        assert "stuck" in report.message

    def test_bounded_run_does_not_flag_live_processes(self):
        sim = Simulator(sanitize=True)

        def patient(sim):
            yield sim.timeout(100.0)

        sim.spawn(patient(sim), name="patient")
        sim.run(until=1.0)
        assert sim.sanitizer.reports == []

    def test_undrained_resource_waiters_reported(self):
        from repro.simkernel import Resource

        sim = Simulator(sanitize=True)
        resource = Resource(sim, capacity=1, name="disk")

        def hog(sim):
            req = resource.request()
            yield req

        def waiter(sim):
            yield resource.request()  # never granted: hog never releases

        sim.spawn(hog(sim), name="hog")
        sim.spawn(waiter(sim), name="waiter")
        with pytest.warns(DeterminismWarning):
            sim.run()
        codes = {r.code for r in sim.sanitizer.reports}
        assert "undrained-waiters" in codes


class TestObservationalPurity:
    @pytest.mark.parametrize("method", ["on-memory", "shutdown-boot"])
    def test_fig4_cell_is_sanitizer_clean_and_bit_identical(
        self, method, monkeypatch
    ):
        """A full experiment cell runs clean, and the sanitizer observing
        it changes nothing about the result."""
        from repro.experiments.fig4_memsize import measure_cell

        def cell(sanitize):
            monkeypatch.setenv("REPRO_SANITIZE", "1" if sanitize else "0")
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeterminismWarning)
                return measure_cell(4, method)

        assert cell(True) == cell(False)
