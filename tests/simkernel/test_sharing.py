"""Unit tests for the fluid processor-sharing pool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simkernel import SharedPool, Simulator
from tests.simkernel.sharing_oracle import ReferencePool


@pytest.fixture()
def sim():
    return Simulator()


def run_jobs(sim, pool, jobs):
    """Submit (start_time, work) jobs; return dict job_index -> finish time."""
    finish = {}

    def submit(sim, index, start, work):
        if start:
            yield sim.timeout(start)
        yield pool.execute(work)
        finish[index] = sim.now

    for i, (start, work) in enumerate(jobs):
        sim.spawn(submit(sim, i, start, work))
    sim.run()
    return finish


class TestSingleJob:
    def test_one_job_full_cap_rate(self, sim):
        pool = SharedPool(sim, capacity=4, per_job_cap=1.0)
        finish = run_jobs(sim, pool, [(0, 10.0)])
        assert finish[0] == pytest.approx(10.0)

    def test_uncapped_job_uses_whole_pool(self, sim):
        pool = SharedPool(sim, capacity=4, per_job_cap=None)
        finish = run_jobs(sim, pool, [(0, 10.0)])
        assert finish[0] == pytest.approx(2.5)

    def test_zero_work_completes_immediately(self, sim):
        pool = SharedPool(sim, capacity=1)
        ev = pool.execute(0)
        assert ev.triggered

    def test_negative_work_rejected(self, sim):
        pool = SharedPool(sim, capacity=1)
        with pytest.raises(SimulationError):
            pool.execute(-1)

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            SharedPool(sim, capacity=0)


class TestContention:
    def test_jobs_within_capacity_do_not_interfere(self, sim):
        # 4 cores, 3 single-threaded jobs: all run at rate 1.
        pool = SharedPool(sim, capacity=4, per_job_cap=1.0)
        finish = run_jobs(sim, pool, [(0, 5.0)] * 3)
        assert all(t == pytest.approx(5.0) for t in finish.values())

    def test_oversubscription_slows_everyone(self, sim):
        # 2 cores, 4 jobs of 1 core-second: rate 0.5 each -> 2 seconds.
        pool = SharedPool(sim, capacity=2, per_job_cap=1.0)
        finish = run_jobs(sim, pool, [(0, 1.0)] * 4)
        assert all(t == pytest.approx(2.0) for t in finish.values())

    def test_rate_recovers_when_jobs_finish(self, sim):
        # 1 core: two jobs of 1 core-s. Both at 0.5 until t=2; both done at 2.
        # Then a third arriving at t=2 runs alone.
        pool = SharedPool(sim, capacity=1, per_job_cap=1.0)
        finish = run_jobs(sim, pool, [(0, 1.0), (0, 1.0), (2.0, 1.0)])
        assert finish[0] == pytest.approx(2.0)
        assert finish[1] == pytest.approx(2.0)
        assert finish[2] == pytest.approx(3.0)

    def test_late_arrival_shares_fairly(self, sim):
        # 1 core. Job A: 2 units at t=0. Job B: 1 unit at t=1.
        # t in [0,1): A alone, rate 1, A has 1 left at t=1.
        # t >= 1: both at 0.5. A needs 2 more sec, B needs 2 sec. Both end t=3.
        pool = SharedPool(sim, capacity=1, per_job_cap=1.0)
        finish = run_jobs(sim, pool, [(0, 2.0), (1.0, 1.0)])
        assert finish[0] == pytest.approx(3.0)
        assert finish[1] == pytest.approx(3.0)

    def test_active_jobs_counter(self, sim):
        pool = SharedPool(sim, capacity=2)
        pool.execute(10)
        pool.execute(10)
        assert pool.active_jobs == 2


class TestPerJobCaps:
    """The pool's ``per_job_cap``: one job never runs faster than it,
    however idle the pool."""

    def test_job_cap_limits_rate(self, sim):
        pool = SharedPool(sim, capacity=4, per_job_cap=0.25)
        done = pool.execute(1.0)
        sim.run(done)
        assert sim.now == pytest.approx(4.0)

    def test_cap_tighter_than_share_wins(self, sim):
        # Two jobs on 1 unit of capacity: share 0.5 each; the cap 0.1 beats it.
        pool = SharedPool(sim, capacity=1, per_job_cap=0.1)
        first = pool.execute(0.1)
        second = pool.execute(0.1)
        sim.run(sim.all_of([first, second]))
        assert sim.now == pytest.approx(1.0)

    def test_share_tighter_than_cap_wins(self, sim):
        pool = SharedPool(sim, capacity=1, per_job_cap=10.0)
        finish = run_jobs(sim, pool, [(0, 0.5), (0, 0.5)])
        assert finish[0] == pytest.approx(1.0)  # share 0.5 governed
        assert finish[1] == pytest.approx(1.0)

    def test_invalid_cap_rejected(self, sim):
        with pytest.raises(SimulationError):
            SharedPool(sim, capacity=1, per_job_cap=0)

    def test_cap_is_not_work_conserving(self, sim):
        """A capped job stays capped even on an idle pool: a
        single-threaded context never uses more than its core."""
        pool = SharedPool(sim, capacity=8, per_job_cap=0.5)
        done = pool.execute(2.0)
        sim.run(done)
        assert sim.now == pytest.approx(4.0)


class TestCancellation:
    def test_cancel_active_job(self, sim):
        pool = SharedPool(sim, capacity=1)
        ev = pool.execute(10)
        pool.cancel(ev)
        sim.run()
        assert not ev.ok
        assert pool.active_jobs == 0

    def test_cancel_frees_capacity_for_others(self, sim):
        pool = SharedPool(sim, capacity=1, per_job_cap=1.0)
        victim = pool.execute(10.0)
        survivor = pool.execute(2.0)

        def canceller(sim):
            yield sim.timeout(1.0)
            pool.cancel(victim)

        sim.spawn(canceller(sim))
        sim.run(survivor)
        # survivor: rate 0.5 for 1s (0.5 done), then rate 1 for the
        # remaining 1.5 units -> finishes at t=2.5.
        assert sim.now == pytest.approx(2.5)

    def test_drain_fails_all(self, sim):
        pool = SharedPool(sim, capacity=4)
        events = [pool.execute(5) for _ in range(3)]
        pool.drain()
        sim.run()
        assert all(not ev.ok for ev in events)
        assert pool.active_jobs == 0

    def test_cancel_heavy_workload_keeps_heap_bounded(self, sim):
        """Every membership change re-arms the pool's completion timer,
        leaving the cancelled handle in the scheduler backend until it is
        popped or compacted.  A cancel-heavy workload must not grow the
        backend storage without bound."""
        pool = SharedPool(sim, capacity=2.0, per_job_cap=None)
        max_stored = 0

        def churn(sim):
            nonlocal max_stored
            pending: list = []
            for _ in range(3000):
                pending.append(pool.execute(1e6))
                if len(pending) > 4:
                    pool.cancel(pending.pop(0))
                yield sim.timeout(0.001)
                max_stored = max(max_stored, sim.backend.storage_size())
            for ev in pending:
                pool.cancel(ev)

        sim.spawn(churn(sim))
        sim.run()
        # ~6000 membership changes produced ~6000 stale timers while only
        # a handful of entries were ever live; without compaction the
        # backend would hold them all.
        assert max_stored < 500
        assert pool.active_jobs == 0
        assert sim.backend.storage_size() == 0


# -- bit-for-bit agreement with the weighted pool it replaced ---------------------

GAPS = st.sampled_from([0.0, 0.0, 0.0, 1e-3, 0.1, 0.5]) | st.floats(0.0, 2.0)
"""Gaps between steps, short against a job's seconds of work, so that
up to all 8 jobs are often active at once: at 117e6 and 85e6 B/s the
rate ``capacity * (1.0 / n)`` and ``capacity / n`` differ at n = 7."""
POOL_SHAPES = {
    # name: (capacity, per_job_cap, work per job)
    "cpu": (4.0, 1.0, st.floats(0.0, 8.0) | st.sampled_from([0.0, 1.0, 2.5])),
    "nic": (117e6, None, st.integers(0, 512 * 2**20).map(float)),
    "disk": (85e6, None, st.integers(0, 512 * 2**20).map(float)),
}


@st.composite
def pool_scripts(draw, work):
    """1 to 8 submits with cancels, drains and capacity changes mixed in,
    each step after a gap (often zero, so steps share an instant)."""
    steps = [("submit", draw(work)) for _ in range(draw(st.integers(1, 8)))]
    extras = draw(
        st.lists(
            st.tuples(st.just("cancel"), st.integers(0, 7))
            | st.tuples(st.just("drain"), st.none())
            | st.tuples(st.just("set_capacity"), st.floats(0.1, 2.0)),
            max_size=4,
        )
    )
    for step in extras:
        steps.insert(draw(st.integers(0, len(steps))), step)
    gaps = draw(st.lists(GAPS, min_size=len(steps), max_size=len(steps)))
    return list(zip(gaps, steps))


def replay(pool_cls, capacity, per_job_cap, script):
    """Run ``script`` on a fresh pool; every completion or failure as
    ``(job, time, ok)`` in firing order, and the active-job count after
    each step."""
    sim = Simulator()
    pool = pool_cls(sim, capacity=capacity, per_job_cap=per_job_cap)
    events = []
    log = []

    def driver():
        for gap, (op, arg) in script:
            if gap:
                yield sim.timeout(gap)
            if op == "submit":
                event = pool.execute(arg)
                index = len(events)
                event.callbacks.append(
                    lambda ev, index=index: log.append((index, sim.now, ev.ok))
                )
                events.append(event)
            elif op == "cancel":
                if events:
                    pool.cancel(events[arg % len(events)])
            elif op == "drain":
                pool.drain()
            else:
                pool.set_capacity(capacity * arg)
            log.append(("active", pool.active_jobs))

    sim.spawn(driver())
    sim.run()
    return log


@pytest.mark.parametrize("shape", sorted(POOL_SHAPES))
def test_shared_rate_matches_the_weighted_oracle_bit_for_bit(shape):
    capacity, per_job_cap, work = POOL_SHAPES[shape]

    @settings(max_examples=150, deadline=None)
    @given(script=pool_scripts(work))
    def check(script):
        expected = replay(ReferencePool, capacity, per_job_cap, script)
        assert replay(SharedPool, capacity, per_job_cap, script) == expected

    check()


@pytest.mark.parametrize("capacity", [117e6, 85e6])
def test_seven_sharers_match_the_oracle(capacity):
    """Pinned case of the property: seven bandwidth jobs at once, the
    first job count at which ``capacity / n`` would round differently."""
    script = [(0.0, ("submit", float((i + 1) * 2**20))) for i in range(7)]
    assert replay(SharedPool, capacity, None, script) == replay(
        ReferencePool, capacity, None, script
    )
