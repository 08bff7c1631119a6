"""Detector-core unit tests: hysteresis, sampling grid, windowed means.

Pins the two properties the control loop depends on:

* single-fire hysteresis — a sustained-high signal triggers once, not
  once per sample (a level parked above the threshold, as under
  ``dom0-only`` reboots that never reset the VMM heap, must not re-fire);
* drift-free sampling — ticks land on ``origin + k * interval`` no
  matter how long handling a trigger took.
"""

import types

import pytest

from repro.control import (
    Detector,
    Hysteresis,
    Trigger,
    cpu_runnable_signal,
    next_tick,
    windowed_mean,
)
from repro.errors import ControlError
from repro.simkernel import Simulator


class TestNextTick:
    def test_strictly_after_now(self):
        assert next_tick(0.0, 60.0, 0.0) == 60.0
        assert next_tick(0.0, 60.0, 59.9) == 60.0
        # Sitting exactly on a grid point advances to the next one.
        assert next_tick(0.0, 60.0, 60.0) == 120.0

    def test_grid_is_origin_anchored(self):
        assert next_tick(100.0, 60.0, 130.0) == 160.0
        # A slow action that ran until t=190 skips the t=120/t=180 ticks
        # but the next tick is still on the absolute grid — no drift.
        assert next_tick(0.0, 60.0, 190.0) == 240.0

    def test_interval_must_be_positive(self):
        with pytest.raises(ControlError):
            next_tick(0.0, 0.0, 10.0)
        with pytest.raises(ControlError):
            next_tick(0.0, -5.0, 10.0)


class TestHysteresis:
    def test_validation(self):
        with pytest.raises(ControlError):
            Hysteresis(0.8, direction="sideways")
        with pytest.raises(ControlError):
            Hysteresis(0.8, cooldown_s=-1.0)
        with pytest.raises(ControlError):
            Hysteresis(0.8, rearm=0.9, direction="above")
        with pytest.raises(ControlError):
            Hysteresis(0.2, rearm=0.1, direction="below")

    def test_exact_threshold_fires_once(self):
        """The single-fire regression: a value parked *at* the watermark
        fires on the first sample and never again until re-armed."""
        gate = Hysteresis(0.8)
        assert gate.observe(0.0, 0.8) is True
        assert gate.observe(60.0, 0.8) is False
        assert gate.observe(120.0, 0.95) is False  # still above: no refire
        assert gate.active

    def test_rearm_is_strict(self):
        gate = Hysteresis(0.8)  # rearm defaults to the threshold
        assert gate.observe(0.0, 0.9) is True
        # Falling back exactly *to* the watermark does not re-arm.
        assert gate.observe(60.0, 0.8) is False
        assert not gate.armed
        assert gate.observe(120.0, 0.79) is False  # re-arms, no fire
        assert gate.armed
        assert gate.observe(180.0, 0.8) is True  # second genuine crossing

    def test_cooldown_suppresses_but_keeps_armed(self):
        gate = Hysteresis(0.8, cooldown_s=300.0)
        assert gate.observe(0.0, 0.9) is True
        assert gate.observe(60.0, 0.1) is False  # re-arms
        # Re-armed and crossed, but inside the cooldown: suppressed
        # without disarming, so the crossing is not lost.
        assert gate.observe(120.0, 0.9) is False
        assert gate.armed
        assert gate.observe(300.0, 0.9) is True

    def test_below_direction(self):
        gate = Hysteresis(0.05, direction="below")
        assert gate.observe(0.0, 0.2) is False
        assert gate.observe(60.0, 0.05) is True  # inclusive crossing
        assert gate.observe(120.0, 0.0) is False
        assert gate.observe(180.0, 0.05) is False  # at rearm: still strict
        assert gate.observe(240.0, 0.06) is False  # re-arms
        assert gate.observe(300.0, 0.01) is True

    def test_active_is_the_level_view(self):
        gate = Hysteresis(0.8)
        assert not gate.active
        gate.observe(0.0, 0.9)
        assert gate.active
        gate.observe(60.0, 0.1)
        assert not gate.active


class TestWindowedMean:
    def test_empty_series_is_zero(self):
        assert windowed_mean([], [], 0.0, 10.0) == 0.0
        assert windowed_mean([], [], 5.0, 5.0) == 0.0

    def test_value_before_first_sample_is_zero(self):
        assert windowed_mean([10.0], [2.0], 0.0, 20.0) == pytest.approx(1.0)

    def test_zero_length_window_returns_level_at_end(self):
        assert windowed_mean([10.0], [2.0], 15.0, 15.0) == 2.0
        assert windowed_mean([10.0], [2.0], 5.0, 5.0) == 0.0

    def test_step_integration(self):
        times, values = [0.0, 10.0], [1.0, 3.0]
        assert windowed_mean(times, values, 0.0, 20.0) == pytest.approx(2.0)
        # A window starting mid-series carries the last-written level in.
        assert windowed_mean(times, values, 5.0, 15.0) == pytest.approx(2.0)

    def test_window_end_before_start_raises(self):
        with pytest.raises(ControlError):
            windowed_mean([], [], 10.0, 5.0)


def _instrumented_host(name: str, cores: int = 1) -> types.SimpleNamespace:
    """The duck-typed host shape the CPU signal reads: a name and a
    machine whose CPU spec has a core count."""
    return types.SimpleNamespace(
        name=name,
        machine=types.SimpleNamespace(
            cpu=types.SimpleNamespace(spec=types.SimpleNamespace(cores=cores)),
        ),
    )


class TestHardwareSignals:
    def test_cpu_runnable_signal_is_the_windowed_mean_per_core(self):
        sim = Simulator(metrics=True)
        host = _instrumented_host("h0", cores=4)
        gauge = sim.metrics.gauge("cpu.runnable", cpu="h0.cpu")
        signal = cpu_runnable_signal(sim, host, window_s=60.0)

        def load():
            yield sim.timeout(30.0)
            gauge.set(8.0)  # 8 runnable jobs for the window's second half
            yield sim.timeout(30.0)

        sim.run(sim.spawn(load()))
        assert signal() == pytest.approx(1.0)  # mean 4 jobs over 4 cores

    def test_signals_are_none_when_metrics_are_disabled(self):
        sim = Simulator(metrics=False)
        assert cpu_runnable_signal(sim, _instrumented_host("h0"), 60.0)() is None

    def test_window_must_be_positive(self):
        sim = Simulator(metrics=True)
        with pytest.raises(ControlError):
            cpu_runnable_signal(sim, _instrumented_host("h0"), 0.0)


class TestDetector:
    def test_unavailable_samples_leave_the_gate_untouched(self):
        readings = iter([None, None, 0.9])
        detector = Detector("aging", "h0", lambda: next(readings), threshold=0.8)
        assert detector.observe(0.0) is None
        assert detector.value is None
        assert detector.observe(60.0) is None
        trigger = detector.observe(120.0)
        assert trigger == Trigger(120.0, "aging", "h0", 0.9)
        assert detector.triggers == [trigger]
        assert detector.active

    def test_sustained_signal_records_one_trigger(self):
        detector = Detector("overload", "h1", lambda: 5.0, threshold=4.0)
        fired = [detector.observe(60.0 * k) for k in range(5)]
        assert [t is not None for t in fired] == [True, False, False, False, False]
        assert len(detector.triggers) == 1
