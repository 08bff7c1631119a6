"""Shared detector core: hysteresis triggers on sampled signals.

The control plane's detectors (overload / underload / aging-trend) are
all the same machine: a scalar **signal** sampled on a drift-free
absolute grid, passed through a **hysteresis** gate with a cooldown.
"Rejuvenate when the heap crosses a line" is the loop's aging detector
on the VMM heap signal, not a private reimplementation with its own edge
cases.

Two properties are load-bearing and pinned by tests:

* **Single-fire semantics.**  A value sitting exactly *at* the watermark
  fires exactly once; the gate then stays disarmed until the value
  passes back over the re-arm level (default: the watermark itself).
  Without this, a sustained-high signal re-triggers on every sample —
  as it would under ``dom0-only`` reboots, which never reset the VMM
  heap.
* **Drift-free sampling.**  Sample times are ``origin + k * interval``
  for integer ``k``, regardless of how long handling a trigger took: a
  40 s warm reboot never shifts a later check off the grid.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from bisect import bisect_left, bisect_right

from repro.errors import ControlError

DIRECTIONS = ("above", "below")
"""Hysteresis polarities: fire when the value rises to the watermark
("above", the overload/aging case) or falls to it ("below", underload)."""


def next_tick(origin: float, interval_s: float, now: float) -> float:
    """The first grid point ``origin + k * interval_s`` strictly after
    ``now`` — the absolute sampling grid every control loop ticks on."""
    if interval_s <= 0:
        raise ControlError(f"interval must be positive, got {interval_s}")
    k = math.floor((now - origin) / interval_s) + 1
    tick = origin + k * interval_s
    while tick <= now:  # float-rounding guard near exact grid points
        k += 1
        tick = origin + k * interval_s
    return tick


class Hysteresis:
    """A single-fire threshold gate with re-arm level and cooldown.

    ``observe(now, value)`` returns ``True`` exactly when the gate fires:
    it is armed, the value has crossed the watermark (inclusive — an
    exact-threshold sample fires), and the cooldown since the previous
    fire has elapsed.  Firing disarms the gate; it re-arms only when the
    value passes back over ``rearm`` (strictly, so a value parked at the
    watermark never re-fires).
    """

    __slots__ = ("threshold", "rearm", "cooldown_s", "direction", "armed",
                 "last_fired")

    def __init__(
        self,
        threshold: float,
        rearm: float | None = None,
        cooldown_s: float = 0.0,
        direction: str = "above",
    ) -> None:
        if direction not in DIRECTIONS:
            raise ControlError(
                f"direction must be one of {', '.join(DIRECTIONS)}, "
                f"got {direction!r}"
            )
        if cooldown_s < 0:
            raise ControlError(f"cooldown must be >= 0, got {cooldown_s}")
        rearm = threshold if rearm is None else rearm
        if direction == "above" and rearm > threshold:
            raise ControlError(
                f"re-arm level {rearm} must be <= threshold {threshold} "
                "for direction 'above'"
            )
        if direction == "below" and rearm < threshold:
            raise ControlError(
                f"re-arm level {rearm} must be >= threshold {threshold} "
                "for direction 'below'"
            )
        self.threshold = threshold
        self.rearm = rearm
        self.cooldown_s = cooldown_s
        self.direction = direction
        self.armed = True
        self.last_fired: float | None = None

    def _crossed(self, value: float) -> bool:
        if self.direction == "above":
            return value >= self.threshold
        return value <= self.threshold

    def _rearmed(self, value: float) -> bool:
        if self.direction == "above":
            return value < self.rearm
        return value > self.rearm

    @property
    def active(self) -> bool:
        """Whether the gate is in its fired (disarmed) state — the
        *level* view of the condition, vs ``observe``'s edge view."""
        return not self.armed

    def observe(self, now: float, value: float) -> bool:
        """Feed one sample; ``True`` iff the gate fires on it."""
        if self.armed:
            if not self._crossed(value):
                return False
            if (
                self.last_fired is not None
                and now - self.last_fired < self.cooldown_s
            ):
                return False  # still cooling down; stays armed
            self.armed = False
            self.last_fired = now
            return True
        if self._rearmed(value):
            self.armed = True
        return False


@dataclasses.dataclass(frozen=True)
class Trigger:
    """One detector firing: who, when, and the offending value."""

    time: float
    detector: str
    host: str
    value: float


class Detector:
    """One named hysteresis gate over a sampled signal for one host.

    ``signal`` is a zero-argument callable returning the current value,
    or ``None`` when the signal is unavailable (VMM down mid-reboot,
    metrics disabled) — unavailable samples leave the gate untouched.
    """

    __slots__ = ("name", "host", "signal", "gate", "value", "triggers")

    def __init__(
        self,
        name: str,
        host: str,
        signal: typing.Callable[[], float | None],
        threshold: float,
        rearm: float | None = None,
        cooldown_s: float = 0.0,
        direction: str = "above",
    ) -> None:
        self.name = name
        self.host = host
        self.signal = signal
        self.gate = Hysteresis(
            threshold, rearm=rearm, cooldown_s=cooldown_s, direction=direction
        )
        self.value: float | None = None
        self.triggers: list[Trigger] = []

    @property
    def active(self) -> bool:
        return self.gate.active

    def observe(self, now: float) -> Trigger | None:
        """Sample the signal once; the trigger if the gate fired."""
        value = self.signal()
        if value is None:
            return None
        self.value = value
        if not self.gate.observe(now, value):
            return None
        trigger = Trigger(now, self.name, self.host, value)
        self.triggers.append(trigger)
        return trigger


# -- per-host signals ------------------------------------------------------------


def heap_utilization_signal(
    host: typing.Any,
) -> typing.Callable[[], float | None]:
    """Live VMM heap utilization for a host; ``None`` while the VMM is
    down (a reboot in flight is not aging)."""

    def signal() -> float | None:
        vmm = getattr(host, "vmm", None)
        if vmm is None:
            return None
        return vmm.heap.utilization

    return signal


def cpu_runnable_signal(
    sim: typing.Any,
    host: typing.Any,
    window_s: float,
) -> typing.Callable[[], float | None]:
    """Windowed time-weighted mean of a host's ``cpu.runnable`` gauge.

    Reads the metric series the host's CPU pool already publishes
    (labelled ``cpu="<host>.cpu"``), integrating the last-write-wins step
    function over ``[now - window_s, now]`` and normalizing by the pool's
    core count — so the value is "mean runnable jobs per core", the
    load signal Watcher-style consolidation scores hosts by.  ``None``
    when the simulator's metrics registry is disabled.
    """
    if window_s <= 0:
        raise ControlError(f"window must be positive, got {window_s}")

    def signal() -> float | None:
        if not sim.metrics.enabled:
            return None
        gauge = sim.metrics.gauge("cpu.runnable", cpu=f"{host.name}.cpu")
        cores = max(getattr(host.machine.cpu.spec, "cores", 1), 1)
        end = sim.now
        start = max(end - window_s, 0.0)
        return windowed_mean(
            gauge.series_times, gauge.series_values, start, end
        ) / cores

    return signal


def nic_tx_signal(
    sim: typing.Any,
    host: typing.Any,
    window_s: float,
) -> typing.Callable[[], float | None]:
    """Windowed transmit rate of a host's NIC, in bytes per second.

    Reads the cumulative ``nic.tx_bytes`` counter the hardware layer
    already publishes (labelled ``nic="<host>.nic"``) and differences it
    over ``[now - window_s, now]``.  ``None`` when metrics are disabled.
    """
    if window_s <= 0:
        raise ControlError(f"window must be positive, got {window_s}")

    def signal() -> float | None:
        if not sim.metrics.enabled:
            return None
        counter = sim.metrics.counter("nic.tx_bytes", nic=f"{host.name}.nic")
        end = sim.now
        start = max(end - window_s, 0.0)
        return windowed_rate(
            counter.series_times, counter.series_values, start, end
        )

    return signal


def disk_busy_signal(
    sim: typing.Any,
    host: typing.Any,
    window_s: float,
) -> typing.Callable[[], float | None]:
    """Windowed utilization of a host's disk, as a busy fraction in [0, 1].

    Differences the cumulative ``disk.busy_seconds`` counter (labelled
    ``disk="<host>.disk"``) over ``[now - window_s, now]``: the increase
    is seconds the disk spent servicing transfers, so dividing by the
    window length is exactly iostat's ``%util``.  ``None`` when metrics
    are disabled.
    """
    if window_s <= 0:
        raise ControlError(f"window must be positive, got {window_s}")

    def signal() -> float | None:
        if not sim.metrics.enabled:
            return None
        counter = sim.metrics.counter(
            "disk.busy_seconds", disk=f"{host.name}.disk"
        )
        end = sim.now
        start = max(end - window_s, 0.0)
        return windowed_rate(
            counter.series_times, counter.series_values, start, end
        )

    return signal


def _series_level(
    times: typing.Sequence[float],
    values: typing.Sequence[float],
    at: float,
) -> float:
    """The last-write-wins level of a sample series at time ``at``
    (0 before the first sample)."""
    i = bisect_right(times, at)
    return float(values[i - 1]) if i > 0 else 0.0


def windowed_rate(
    times: typing.Sequence[float],
    values: typing.Sequence[float],
    start: float,
    end: float,
) -> float:
    """Mean increase rate of a cumulative counter over ``[start, end]``.

    The series is monotone samples of a counter's running total; the rate
    is ``(level(end) - level(start)) / (end - start)``, with the level
    before the first sample taken as 0.  A zero-length window returns 0
    (no time has passed, so no rate is attributable).
    """
    if end < start:
        raise ControlError(f"window end {end} before start {start}")
    if end == start:
        return 0.0
    return (
        _series_level(times, values, end) - _series_level(times, values, start)
    ) / (end - start)


def windowed_mean(
    times: typing.Sequence[float],
    values: typing.Sequence[float],
    start: float,
    end: float,
) -> float:
    """Time-weighted mean of a step function over ``[start, end]``.

    The series is last-write-wins samples ``(times[i], values[i])``; the
    value before the first sample is 0.  A zero-length window returns the
    level at ``end``.
    """
    if end < start:
        raise ControlError(f"window end {end} before start {start}")
    lo = bisect_right(times, start)
    carried = values[lo - 1] if lo > 0 else 0.0
    if end == start:
        return float(carried)
    hi = bisect_left(times, end, lo)
    total = 0.0
    level = carried
    cursor = start
    for i in range(lo, hi):
        total += level * (times[i] - cursor)
        cursor = times[i]
        level = values[i]
    total += level * (end - cursor)
    return total / (end - start)
