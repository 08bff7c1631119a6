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
    ControlConfig,
    ControlLoop,
    Detector,
    Hysteresis,
    Trigger,
    disk_busy_signal,
    next_tick,
    nic_tx_signal,
    windowed_mean,
    windowed_rate,
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


class TestWindowedRate:
    def test_empty_series_is_zero(self):
        assert windowed_rate([], [], 0.0, 10.0) == 0.0

    def test_counter_increase_over_the_window(self):
        times, values = [0.0, 30.0, 60.0], [100.0, 400.0, 700.0]
        assert windowed_rate(times, values, 0.0, 60.0) == pytest.approx(10.0)
        # A window starting before the first sample counts from level 0.
        assert windowed_rate(times, values, -40.0, 60.0) == pytest.approx(7.0)

    def test_zero_length_window_is_zero(self):
        assert windowed_rate([0.0], [100.0], 5.0, 5.0) == 0.0

    def test_window_end_before_start_raises(self):
        with pytest.raises(ControlError):
            windowed_rate([], [], 10.0, 5.0)


def _instrumented_host(name: str) -> types.SimpleNamespace:
    """The duck-typed host shape the hardware signals and the planner
    view need: a name, empty VM inventory, a machine with CPU/memory."""
    return types.SimpleNamespace(
        name=name,
        vm_specs={},
        vmm=None,
        machine=types.SimpleNamespace(
            cpu=types.SimpleNamespace(spec=types.SimpleNamespace(cores=1)),
            memory=types.SimpleNamespace(total_bytes=2**31),
        ),
    )


class TestHardwareSignals:
    def test_nic_tx_signal_is_the_windowed_byte_rate(self):
        sim = Simulator(metrics=True)
        host = _instrumented_host("h0")
        counter = sim.metrics.counter("nic.tx_bytes", nic="h0.nic")
        signal = nic_tx_signal(sim, host, window_s=60.0)

        def traffic():
            # Samples land strictly inside the window: a sample at
            # exactly the window start belongs to the start level (it is
            # the counter's value *at* that instant, not an increase).
            yield sim.timeout(30.0)
            counter.inc(30_000_000.0)
            yield sim.timeout(30.0)
            counter.inc(30_000_000.0)

        sim.run(sim.spawn(traffic()))
        assert sim.now == 60.0
        assert signal() == pytest.approx(1_000_000.0)

    def test_disk_busy_signal_is_a_busy_fraction(self):
        sim = Simulator(metrics=True)
        host = _instrumented_host("h0")
        counter = sim.metrics.counter("disk.busy_seconds", disk="h0.disk")
        signal = disk_busy_signal(sim, host, window_s=100.0)

        def transfers():
            yield sim.timeout(50.0)
            counter.inc(90.0)
            yield sim.timeout(50.0)

        sim.run(sim.spawn(transfers()))
        assert signal() == pytest.approx(0.9)

    def test_signals_are_none_when_metrics_are_disabled(self):
        sim = Simulator(metrics=False)
        host = _instrumented_host("h0")
        assert nic_tx_signal(sim, host, 60.0)() is None
        assert disk_busy_signal(sim, host, 60.0)() is None

    def test_window_must_be_positive(self):
        sim = Simulator(metrics=True)
        host = _instrumented_host("h0")
        with pytest.raises(ControlError):
            nic_tx_signal(sim, host, 0.0)
        with pytest.raises(ControlError):
            disk_busy_signal(sim, host, -1.0)


class TestHardwareDetectorWiring:
    """The satellite wiring: ``net_overload_bps``/``disk_overload`` turn
    the published NIC/disk counters into planner pressure signals."""

    def test_loop_fires_net_and_disk_triggers_once(self):
        sim = Simulator(metrics=True)
        host = _instrumented_host("h0")
        nic = sim.metrics.counter("nic.tx_bytes", nic="h0.nic")
        disk = sim.metrics.counter("disk.busy_seconds", disk="h0.disk")

        def pressure():
            while True:  # both increments land mid-window, off the grid
                yield sim.timeout(10.0)
                nic.inc(60_000_000.0)  # 1 MB/s over any 60 s window
                yield sim.timeout(25.0)
                disk.inc(54.0)  # 0.9 busy fraction
                yield sim.timeout(25.0)

        sim.spawn(pressure())
        loop = ControlLoop(
            sim, [host],
            config=ControlConfig(
                interval_s=60.0,
                window_s=60.0,
                net_overload_bps=500_000.0,
                disk_overload=0.8,
                cooldown_s=0.0,
            ),
        )
        sim.run(sim.spawn(loop.run(240.0)))
        summary = loop.summary()
        # Sustained pressure, single-fire gates: one trigger each.
        assert summary["triggers"]["net"] == 1
        assert summary["triggers"]["disk"] == 1
        fired = {
            entry["detector"]: entry
            for entry in summary["trigger_log"]
            if entry["detector"] in ("net", "disk")
        }
        assert fired["net"]["host"] == "h0"
        assert fired["net"]["value"] >= 500_000.0
        assert fired["disk"]["value"] >= 0.8

    def test_zero_thresholds_leave_the_detectors_out(self):
        sim = Simulator(metrics=True)
        loop = ControlLoop(sim, [_instrumented_host("h0")])
        sim.run(sim.spawn(loop.run(120.0)))
        assert "net" not in loop.summary()["triggers"]
        assert "disk" not in loop.summary()["triggers"]


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
