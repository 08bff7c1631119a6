"""Reactive failure handling: crash injection and watchdog recovery.

Rejuvenation is *proactive*: it preempts the crash that aging would
eventually cause.  To quantify what that buys, this module provides the
reactive alternative:

* :class:`HeapExhaustionCrasher` — drives §2's failure to its conclusion:
  the VMM heap leaks at a configurable rate and the VMM **crashes** when
  it is exhausted (Xen's fate under changesets 9392/11752 if nobody
  rejuvenates);
* :class:`CrashWatchdog` — an external monitor that notices the dead VMM
  only after a detection timeout (crashes do not announce themselves) and
  then performs the unplanned hardware-reset recovery.

The ``EXT-PROACTIVE`` experiment races these against a time-based warm
rejuvenation schedule over simulated weeks.
"""

from __future__ import annotations

import typing

from repro.core.host import Host
from repro.errors import ConfigError
from repro.vmm.hypervisor import VmmState


class HeapExhaustionCrasher:
    """Continuously leaks VMM heap; crashes the VMM at exhaustion.

    The leak survives nothing: each new VMM generation starts with a
    fresh heap, so regular rejuvenation keeps the crash permanently out
    of reach — the proactive win.
    """

    def __init__(
        self,
        host: Host,
        leak_bytes_per_hour: int,
        tick_s: float = 1800.0,
    ) -> None:
        if leak_bytes_per_hour <= 0:
            raise ConfigError("leak rate must be positive")
        if tick_s <= 0:
            raise ConfigError("tick must be positive")
        self.host = host
        self.leak_bytes_per_hour = leak_bytes_per_hour
        self.tick_s = tick_s
        self.crashes: list[float] = []

    def run(self, until: float) -> typing.Generator:
        """Leak on a fixed tick until ``until`` (a process)."""
        sim = self.host.sim
        leak_per_tick = int(self.leak_bytes_per_hour * self.tick_s / 3600.0)
        while sim.now < until:
            yield sim.timeout(min(self.tick_s, until - sim.now))
            vmm = self.host.vmm
            if vmm is None or vmm.state is not VmmState.RUNNING:
                continue  # mid-reboot or already crashed: nothing to leak
            vmm.heap.leak_bytes(leak_per_tick)
            if vmm.heap.available_bytes <= 0:
                self.host.crash(reason="heap exhausted")
                self.crashes.append(sim.now)
        return self.crashes


class CrashWatchdog:
    """Detects a crashed VMM after a delay and recovers the host."""

    def __init__(
        self,
        host: Host,
        detection_timeout_s: float = 60.0,
        poll_interval_s: float = 10.0,
    ) -> None:
        if detection_timeout_s < 0:
            raise ConfigError("detection timeout must be >= 0")
        if poll_interval_s <= 0:
            raise ConfigError("poll interval must be positive")
        self.host = host
        self.detection_timeout_s = detection_timeout_s
        self.poll_interval_s = poll_interval_s
        self.recoveries: list[tuple[float, float]] = []
        """(crash detected at, recovery finished at) pairs."""

    def run(self, until: float) -> typing.Generator:
        """Wait for a crashed VMM and recover it (a process).

        Event-driven equivalent of a 10-second poll loop: simulating every
        idle tick over weeks of simulated time costs ~100k events per
        simulated week, so the watchdog instead sleeps on the host's
        :meth:`~repro.core.host.Host.vmm_crashed` event and then replays
        the poll-grid float arithmetic to act at the exact tick the
        polling loop would have noticed the crash on.
        """
        sim = self.host.sim
        poll = self.poll_interval_s
        anchor = sim.now
        while True:
            if anchor >= until:
                return self.recoveries
            vmm = self.host.vmm
            if vmm is None or vmm.state is not VmmState.CRASHED:
                yield self.host.vmm_crashed() | sim.timeout(until - sim.now)
                if sim.now >= until:
                    return self.recoveries
                vmm = self.host.vmm
                if vmm is None or vmm.state is not VmmState.CRASHED:
                    continue  # already recovered by the time we woke
            crash_time = sim.now
            # First poll tick at or after the crash, accumulated with the
            # same float steps the polling loop would have taken.  A crash
            # landing exactly on a tick is seen by that tick: the crasher's
            # own timer predates the poll timer, so it fires first.
            tick = anchor + min(poll, until - anchor)
            while tick < crash_time:
                tick += min(poll, until - tick)
            if tick >= until:
                # The polling loop exits at the horizon without acting.
                return self.recoveries
            if tick > crash_time:
                yield sim.timeout(tick - crash_time)
            # Heartbeats must miss for a while before anyone is sure.
            yield sim.timeout(self.detection_timeout_s)
            detected = sim.now
            sim.trace.record("watchdog.detected", host=self.host.name)
            yield from self.host.recover_from_crash()
            self.recoveries.append((detected, sim.now))
            anchor = sim.now
