"""Fluid-flow processor-sharing pools.

A :class:`SharedPool` models a resource whose total capacity is divided
*simultaneously* among all active jobs — the right model for CPU cores
executing many runnable vCPUs, or a bus shared by several DMA streams.
Unlike :class:`~repro.simkernel.resources.Resource`, jobs do not queue: all
active jobs progress at once, at one shared rate::

    rate = min(per_job_cap, capacity * (1.0 / active_jobs))

which for CPU means "a single-threaded boot cannot use more than one core,
and with more runnable contexts than cores everyone slows down equally" —
exactly the contention behaviour that makes parallel guest boot time grow
with the number of VMs in the paper's Figure 5.

The implementation keeps per-job *remaining work* and, whenever membership
changes, advances everyone's progress and reschedules the single pending
completion timer.  This is exact for piecewise-constant rates (no numerical
integration error beyond float arithmetic).  The rate is computed as
written above, not as ``capacity / active_jobs``, which differs in the
last place for some job counts; every pinned row was computed this way.
"""

from __future__ import annotations

import itertools
import typing
from repro.errors import SimulationError
from repro.simkernel.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator, TimerHandle

_EPSILON = 1e-9


class _Job:
    __slots__ = ("job_id", "remaining", "event")

    def __init__(self, job_id: int, work: float, event: Event) -> None:
        self.job_id = job_id
        self.remaining = work
        self.event = event


class SharedPool:
    """Capacity shared fluidly among active jobs, with a per-job cap.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Total work units per second the pool can deliver (e.g. number of
        CPU cores when work is measured in core-seconds, or bytes/second
        when work is bytes).
    per_job_cap:
        Maximum rate a single job can consume (e.g. ``1.0`` core for a
        single-threaded job).  ``None`` means a job may use the whole pool.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        per_job_cap: float | None = 1.0,
        name: str = "pool",
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if per_job_cap is not None and per_job_cap <= 0:
            raise SimulationError(f"per_job_cap must be positive, got {per_job_cap}")
        self.sim = sim
        self.capacity = float(capacity)
        self.per_job_cap = per_job_cap
        self.name = name
        self._work_name = "work:" + name
        self._jobs: dict[int, _Job] = {}
        self._ids = itertools.count(1)
        self._last_update = sim.now
        self._timer: "TimerHandle | None" = None
        self.on_jobs_change: typing.Callable[[int], None] | None = None
        """Observer called with ``active_jobs`` after every membership
        change (submit, completion, cancel, drain).  Synchronous and
        schedule-neutral: it must not submit work or touch the event
        queue.  The CPU pool uses it to keep its runnable-jobs gauge
        honest on job *completion*, not just submission."""

    # -- public API ----------------------------------------------------------

    def _notify(self) -> None:
        if self.on_jobs_change is not None:
            self.on_jobs_change(len(self._jobs))

    @property
    def active_jobs(self) -> int:
        """Number of jobs currently consuming capacity."""
        return len(self._jobs)

    def execute(self, work: float) -> Event:
        """Submit ``work`` units; the returned event fires on completion.

        Zero work completes immediately (at this instant, via the normal
        event queue, preserving determinism).
        """
        if work < 0:
            raise SimulationError(f"negative work {work!r}")
        event = Event(self.sim, name=self._work_name)
        if work == 0:
            event.succeed()
            return event
        jobs = self._jobs
        if not jobs and self._timer is None:
            # Empty-pool fast path (roughly half of all submissions in the
            # request-serving workloads): there is nothing to advance or
            # reschedule, the sole job's rate is known immediately.
            sim = self.sim
            now = sim._now
            self._last_update = now
            job = _Job(next(self._ids), float(work), event)
            jobs[job.job_id] = job
            self._notify()
            share = self.capacity
            if self.per_job_cap is not None and share > self.per_job_cap:
                share = self.per_job_cap
            dt = job.remaining / share
            deadline = now + dt
            if deadline > now:
                self._timer = sim.call_at(deadline, self._on_timer)
            else:
                self._reschedule()
            return event
        per_job_cap = self.per_job_cap
        timer = self._timer
        if (
            timer is not None
            and per_job_cap is not None
            and self.capacity >= per_job_cap * (len(jobs) + 1)
        ):
            # Saturated-uncontended shortcut (CPU-style pools with spare
            # capacity): every job, old and new, runs at its per-job cap,
            # so existing deadlines are unaffected by the newcomer and the
            # pending timer stays valid unless the new job finishes first.
            self._advance()
            job = _Job(next(self._ids), float(work), event)
            jobs[job.job_id] = job
            self._notify()
            share = per_job_cap
            now = self.sim._now
            deadline = now + job.remaining / share
            if deadline >= timer.time and deadline > now:
                return event
            self._reschedule()
            return event
        self._advance()
        job = _Job(next(self._ids), float(work), event)
        jobs[job.job_id] = job
        self._notify()
        self._reschedule()
        return event

    def set_capacity(self, capacity: float) -> None:
        """Change total capacity mid-flight (e.g. a NIC degrading).

        Progress so far is charged at the old rate; active jobs continue at
        the new one.
        """
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    def cancel(self, event: Event) -> None:
        """Abort the job whose completion event is ``event`` (if active).

        The event is failed with :class:`SimulationError`; callers that
        cancel deliberately should be waiting with try/except or not at all.
        """
        for job_id, job in list(self._jobs.items()):
            if job.event is event:
                self._advance()
                del self._jobs[job_id]
                self._notify()
                error = SimulationError(f"job cancelled on {self.name}")
                job.event.defuse()
                job.event.fail(error)
                self._reschedule()
                return

    def drain(self) -> None:
        """Cancel every active job (used when a machine loses power)."""
        self._advance()
        jobs, self._jobs = list(self._jobs.values()), {}
        self._notify()
        for job in jobs:
            job.event.defuse()
            job.event.fail(SimulationError(f"{self.name} drained"))
        self._reschedule()

    # -- fluid-model internals -------------------------------------------------

    def _share(self) -> float:
        """Every active job's progress rate: ``capacity * (1.0 / n)``,
        clamped at ``per_job_cap``.  Call only with jobs active."""
        share = self.capacity * (1.0 / len(self._jobs))
        per_job_cap = self.per_job_cap
        if per_job_cap is not None and share > per_job_cap:
            share = per_job_cap
        return share

    def _advance(self) -> None:
        """Charge elapsed wall time against every active job's work."""
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        done = self._share() * dt
        for job in jobs.values():
            job.remaining -= done

    def _reschedule(self) -> None:
        """Re-plan the single next-completion timer after any change.

        Guards against float underflow: when a job's residual work is so
        small that ``now + remaining/rate == now`` (common once work is
        measured in bytes and rates in hundreds of MB/s), the job is
        numerically complete and finishing it *now* is the only way the
        clock can make progress.
        """
        # The pending timer is handed to rearm_timer() below so cancel +
        # re-arm flow through the backend's lazy-delete accounting (and
        # handle freelist) in one call; if no job remains it is cancelled
        # on the way out.  Deferring the cancel is order-neutral: cancels
        # take no scheduling sequence number.
        old_timer, self._timer = self._timer, None
        jobs = self._jobs
        while True:
            # One pass: collect numerically-finished jobs and find the
            # next completion among the rest.
            finished = None
            nearest = None
            nearest_dt = float("inf")
            share = self._share() if jobs else 0.0
            for job in jobs.values():
                if job.remaining <= _EPSILON:
                    if finished is None:
                        finished = [job]
                    else:
                        finished.append(job)
                    continue
                dt = job.remaining / share
                if dt < nearest_dt:
                    nearest_dt = dt
                    nearest = job
            if finished:
                for job in finished:
                    del jobs[job.job_id]
                self._notify()
                for job in finished:
                    job.event.succeed()
                if jobs:
                    # The share changed: recompute the nearest completion.
                    continue
            if nearest is None:
                if old_timer is not None:
                    old_timer.cancel()
                return
            sim = self.sim
            now = sim._now
            deadline = now + nearest_dt
            if deadline > now:
                self._timer = sim.rearm_timer(old_timer, deadline, self._on_timer)
                return
            # No representable time advance is possible: finish it now.
            nearest.remaining = 0.0

    def _on_timer(self) -> None:
        self._timer = None
        jobs = self._jobs
        if len(jobs) == 1:
            # Single-job fast path (the dominant case for bus/NIC/disk
            # style pools): the timer nearly always fires exactly when its
            # sole job completes, so charge it and finish without the
            # generic advance/reschedule double pass.  With one job the
            # share is ``capacity * (1.0 / 1)``, which is ``capacity``
            # exactly, so the float results match :meth:`_advance`.
            sim = self.sim
            now = sim._now
            dt = now - self._last_update
            self._last_update = now
            job = next(iter(jobs.values()))
            if dt > 0:
                share = self.capacity
                per_job_cap = self.per_job_cap
                if per_job_cap is not None and share > per_job_cap:
                    share = per_job_cap
                job.remaining -= share * dt
            if job.remaining <= _EPSILON:
                del jobs[job.job_id]
                self._notify()
                job.event.succeed()
                return
            self._reschedule()
            return
        self._advance()
        self._reschedule()
