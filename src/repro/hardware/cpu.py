"""CPU package model: processor-sharing across runnable contexts.

Work is measured in *core-seconds*.  Each runnable context (a booting
guest, a service handling a request, dom0's shutdown scripts) is a job in
a fluid-sharing pool capped at one core — so four cores run up to four
jobs at full speed and degrade everyone fairly beyond that.  Guests
submit their work here directly, and every context gets the same share.
This is the contention that makes shutting down / booting many guests in
parallel slower per-guest (§2, §5.1).
"""

from __future__ import annotations

from repro.config import CpuSpec
from repro.errors import HardwareError
from repro.simkernel import Event, SharedPool, Simulator


class CpuPool:
    """All cores of one machine."""

    def __init__(self, sim: Simulator, spec: CpuSpec, name: str = "cpu") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self._pool = SharedPool(
            sim, capacity=float(spec.cores), per_job_cap=1.0, name=f"{name}.pool"
        )
        self._metric_runnable = sim.metrics.gauge("cpu.runnable", cpu=name)
        if sim.metrics.enabled:
            # Track membership changes both ways — a submission-only
            # gauge would stick at its last value across idle periods,
            # which is exactly what the control plane's windowed-load
            # detectors must not see.  Observer left out when metrics
            # are off so the pool's hot paths pay nothing.
            self._pool.on_jobs_change = self._metric_runnable.set

    @property
    def cores(self) -> int:
        return self.spec.cores

    def execute(self, core_seconds: float) -> Event:
        """Run ``core_seconds`` of single-threaded work; event fires when done."""
        if core_seconds < 0:
            raise HardwareError(f"negative CPU work {core_seconds}")
        return self._pool.execute(core_seconds)

    def drain(self) -> None:
        """Fail all running jobs (machine reset)."""
        self._pool.drain()
