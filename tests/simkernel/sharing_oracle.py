"""The weighted, capped processor-sharing pool: ``SharedPool``'s test oracle.

This is :class:`~repro.simkernel.sharing.SharedPool` as it was while
guests reached the CPU through a credit-scheduler layer: every job
carried a weight and an optional cap, and each job's rate was
``capacity * (weight / total_weight)`` clamped at the pool's
``per_job_cap`` and its own cap.  With unit weights and no caps (all
the production pool ever ran) that is ``capacity * (1.0 / n)``, the one
shared rate the pool keeps today.  ``test_sharing.py`` drives both pools
through the same random submits, cancels, drains and capacity changes
and requires the same completion times, bit for bit, in the same order.
The class is kept as it was, weights and caps included; the property
leaves them at their defaults.
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
    __slots__ = ("job_id", "remaining", "event", "weight", "cap")

    def __init__(
        self,
        job_id: int,
        work: float,
        event: Event,
        weight: float,
        cap: float | None,
    ) -> None:
        self.job_id = job_id
        self.remaining = work
        self.event = event
        self.weight = weight
        self.cap = cap


class ReferencePool:
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
        self._total_weight = 0.0
        """Sum of active jobs' weights, recomputed on membership change so
        the per-event hot paths need no per-call ``sum()``."""
        self._nonunit_jobs = 0
        """How many active jobs have weight != 1.0 — when zero (the common
        case) the total weight is exactly ``len(self._jobs)``."""
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

    def current_rate(self) -> float:
        """Per-job progress rate right now (0 if idle)."""
        return self._rate(len(self._jobs)) if self._jobs else 0.0

    def execute(
        self, work: float, weight: float = 1.0, cap: float | None = None
    ) -> Event:
        """Submit ``work`` units; the returned event fires on completion.

        ``weight`` scales this job's share relative to others (default
        equal shares); ``cap`` further limits this job's rate (e.g. a
        scheduler cap of half a core), on top of the pool's global
        ``per_job_cap``.  Zero work completes immediately (at this
        instant, via the normal event queue, preserving determinism).
        """
        if work < 0:
            raise SimulationError(f"negative work {work!r}")
        if weight <= 0:
            raise SimulationError(f"weight must be positive, got {weight}")
        if cap is not None and cap <= 0:
            raise SimulationError(f"cap must be positive, got {cap}")
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
            job = _Job(next(self._ids), float(work), event, float(weight), cap)
            jobs[job.job_id] = job
            if job.weight != 1.0:
                self._nonunit_jobs += 1
            self._total_weight = job.weight
            self._notify()
            share = self.capacity
            if self.per_job_cap is not None and share > self.per_job_cap:
                share = self.per_job_cap
            if cap is not None and share > cap:
                share = cap
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
            and self._nonunit_jobs == 0
            and weight == 1.0
            and self.capacity >= per_job_cap * (len(jobs) + 1)
        ):
            # Saturated-uncontended shortcut (CPU-style pools with spare
            # capacity): every job, old and new, runs at its per-job cap,
            # so existing deadlines are unaffected by the newcomer and the
            # pending timer stays valid unless the new job finishes first.
            # The share arithmetic mirrors the clamps in :meth:`_job_rate`
            # exactly, so the computed deadline is bit-identical.
            self._advance()
            job = _Job(next(self._ids), float(work), event, 1.0, cap)
            jobs[job.job_id] = job
            self._total_weight = float(len(jobs))
            self._notify()
            share = per_job_cap
            if cap is not None and share > cap:
                share = cap
            now = self.sim._now
            deadline = now + job.remaining / share
            if deadline >= timer.time and deadline > now:
                return event
            self._reschedule()
            return event
        self._advance()
        job = _Job(next(self._ids), float(work), event, float(weight), cap)
        jobs[job.job_id] = job
        if job.weight != 1.0:
            self._nonunit_jobs += 1
        self._recount_weight()
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
                if job.weight != 1.0:
                    self._nonunit_jobs -= 1
                self._recount_weight()
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
        self._total_weight = 0.0
        self._nonunit_jobs = 0
        self._notify()
        for job in jobs:
            job.event.defuse()
            job.event.fail(SimulationError(f"{self.name} drained"))
        self._reschedule()

    # -- fluid-model internals -------------------------------------------------

    def _recount_weight(self) -> None:
        """Refresh the cached total weight after a membership change.

        All-unit-weight pools (the common case) cost O(1): a sum of 1.0s
        is exactly ``float(len(jobs))``.  Otherwise a fresh ``sum`` (not an
        incremental +=/-=) so the cached value is bit-identical to what
        recomputing on every use would give.
        """
        if self._nonunit_jobs:
            self._total_weight = sum(job.weight for job in self._jobs.values())
        else:
            self._total_weight = float(len(self._jobs))

    def _rate(self, n: int, weight: float = 1.0, total_weight: float | None = None) -> float:
        """Progress rate for one uncapped job of ``weight`` among ``n``."""
        if n == 0:
            return 0.0
        if total_weight is None:
            total_weight = self._total_weight or weight
        share = self.capacity * (weight / total_weight)
        if self.per_job_cap is not None:
            share = min(share, self.per_job_cap)
        return share

    def _job_rate(self, job: _Job, total_weight: float) -> float:
        """Progress rate of one specific job (weight share, both caps)."""
        share = self.capacity * (job.weight / total_weight)
        if self.per_job_cap is not None:
            share = min(share, self.per_job_cap)
        if job.cap is not None:
            share = min(share, job.cap)
        return share

    def _advance(self) -> None:
        """Charge elapsed wall time against every active job's work."""
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        total_weight = self._total_weight
        capacity = self.capacity
        per_job_cap = self.per_job_cap
        for job in jobs.values():
            share = capacity * (job.weight / total_weight)
            if per_job_cap is not None and share > per_job_cap:
                share = per_job_cap
            cap = job.cap
            if cap is not None and share > cap:
                share = cap
            job.remaining -= share * dt

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
        capacity = self.capacity
        per_job_cap = self.per_job_cap
        while True:
            # One pass: collect numerically-finished jobs and find the
            # next completion among the rest.
            finished = None
            nearest = None
            nearest_dt = float("inf")
            total_weight = self._total_weight
            for job in jobs.values():
                if job.remaining <= _EPSILON:
                    if finished is None:
                        finished = [job]
                    else:
                        finished.append(job)
                    continue
                share = capacity * (job.weight / total_weight)
                if per_job_cap is not None and share > per_job_cap:
                    share = per_job_cap
                cap = job.cap
                if cap is not None and share > cap:
                    share = cap
                dt = job.remaining / share
                if dt < nearest_dt:
                    nearest_dt = dt
                    nearest = job
            if finished:
                for job in finished:
                    del jobs[job.job_id]
                    if job.weight != 1.0:
                        self._nonunit_jobs -= 1
                self._recount_weight()
                self._notify()
                for job in finished:
                    job.event.succeed()
                if jobs:
                    # Weights changed: recompute the nearest completion.
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
            # generic advance/reschedule double pass.  The share arithmetic
            # mirrors :meth:`_advance` operation-for-operation so the float
            # results are bit-identical.
            sim = self.sim
            now = sim._now
            dt = now - self._last_update
            self._last_update = now
            job = next(iter(jobs.values()))
            if dt > 0:
                share = self.capacity * (job.weight / self._total_weight)
                per_job_cap = self.per_job_cap
                if per_job_cap is not None and share > per_job_cap:
                    share = per_job_cap
                cap = job.cap
                if cap is not None and share > cap:
                    share = cap
                job.remaining -= share * dt
            if job.remaining <= _EPSILON:
                del jobs[job.job_id]
                if job.weight != 1.0:
                    self._nonunit_jobs -= 1
                self._recount_weight()
                self._notify()
                job.event.succeed()
                return
            self._reschedule()
            return
        self._advance()
        self._reschedule()
