"""Scheduler equivalence and accounting tests.

The scheduler contract (see :mod:`repro.simkernel.backends`): the batched
scheduler pops entries in exactly the order a single binary heap would.
The differential fuzz here replays seeded random schedules — timers,
cancels, urgent priorities, same-instant bursts, nested spawns,
far-horizon timers — on the batched scheduler and on the heap oracle
(``tests/simkernel/heap_oracle.py``), under every ``run(until=...)``
mode, and asserts identical execution order, final clock, and process
values.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RootHammer
from repro.errors import SimulationError
from repro.simkernel import BatchedBackend, Simulator

from tests.simkernel.heap_oracle import ReferenceBackend


def _backend(name):
    """The oracle for ``"reference"``; ``None`` (the default) otherwise."""
    return ReferenceBackend() if name == "reference" else None


class TestSelection:
    def test_default_is_batched(self):
        assert type(Simulator().backend) is BatchedBackend

    def test_class_and_instance_specs(self):
        inst = BatchedBackend(start_time=5.0, span=2.0)
        assert Simulator(start_time=5.0, backend=inst).backend is inst
        oracle = ReferenceBackend()
        assert Simulator(backend=oracle).backend is oracle
        with pytest.raises(SimulationError, match="backend instance"):
            Simulator(backend=BatchedBackend)

    def test_unknown_name_raises(self):
        # No name selects a backend any more, the old ones included.
        for name in ("batched", "reference", "warp-drive"):
            with pytest.raises(SimulationError, match="backend instance"):
                Simulator(backend=name)
        with pytest.raises(SimulationError, match="backend instance"):
            RootHammer(backend="batched")


class TestCancelledAccounting:
    """Regression: lazy-delete counters must track reality exactly."""

    @pytest.fixture(params=["reference", "batched"])
    def sim(self, request):
        return Simulator(backend=_backend(request.param))

    def test_cancel_after_fire_does_not_inflate_counter(self, sim):
        handles = [sim.call_in(0.1 * (i + 1), lambda: None) for i in range(10)]
        sim.run()
        for handle in handles:
            handle.cancel()  # fired long ago: pure no-op
        assert sim.backend.pending() == 0
        assert sim.backend._cancelled == 0

    def test_double_cancel_counts_once(self, sim):
        handle = sim.call_in(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.backend.pending() == 0
        assert sim.backend._cancelled == 1
        sim.run()
        assert sim.backend._cancelled == 0

    def test_repr_excludes_cancelled_handles(self, sim):
        sim.call_in(1.0, lambda: None).cancel()
        sim.call_in(2.0, lambda: None)
        assert "pending=1" in repr(sim)
        assert sim.backend.pending() == 1

    def test_pending_and_storage_diverge_until_pop(self, sim):
        live = sim.call_in(1.0, lambda: None)
        sim.call_in(2.0, lambda: None).cancel()
        assert sim.backend.pending() == 1
        assert sim.backend.storage_size() == 2
        sim.run()
        assert live.cancelled is False
        assert sim.backend.pending() == 0
        assert sim.backend.storage_size() == 0

    def test_mass_cancel_triggers_compaction(self, sim):
        handles = [sim.call_in(1e6 + i, lambda: None) for i in range(500)]
        for handle in handles:
            handle.cancel()
        # Lazy deletion must not retain all 500 dead entries.
        assert sim.backend.storage_size() < 500
        assert sim.backend.pending() == 0
        sim.run()
        assert sim.backend.storage_size() == 0

    def test_compact_removes_every_dead_entry(self, sim):
        keep = sim.call_in(5.0, lambda: None)
        for i in range(10):
            sim.call_in(1.0 + i, lambda: None).cancel()
        sim.backend.compact()
        assert sim.backend.storage_size() == 1
        assert sim.backend.pending() == 1
        sim.run()
        assert not keep.cancelled

    def test_peek_skips_cancelled_heads(self, sim):
        sim.call_in(1.0, lambda: None).cancel()
        sim.call_in(2.0, lambda: None)
        assert sim.peek() == 2.0


def _fuzz_workload(sim, seed, log):
    """Drive one seeded random schedule; append markers to ``log``.

    Pure simulation — all randomness comes from ``seed``, so two runs on
    different backends see byte-identical schedules.  Mixes every
    scheduling shape the kernel supports: zero-delay (same-instant
    bursts), sub-horizon and far-horizon timers, cancels (before and
    after firing), urgent interrupts, nested spawns, and events
    triggered from timer callbacks.
    """
    rng = random.Random(seed)
    handles = []

    def tick(tag):
        log.append((sim.now, tag))

    def worker(wid, depth):
        total = 0.0
        for step in range(rng.randint(2, 6)):
            choice = rng.random()
            if choice < 0.35:
                # Same-instant burst: several zero-delay timeouts queued
                # at one (time, priority) frontier.
                yield sim.timeout(0.0, value=step)
                tick(("burst", wid, step))
            elif choice < 0.6:
                delay = rng.choice([0.25, 1.0, 7.5, 80.0, 200.0])
                yield sim.timeout(delay, value=delay)
                total += delay
                tick(("slept", wid, step, delay))
            elif choice < 0.75 and depth < 2:
                child = sim.spawn(worker((wid, step), depth + 1))
                yield child
                tick(("joined", wid, step, child.value))
            elif choice < 0.9:
                when = sim.now + rng.choice([0.5, 3.0, 66.0])
                handle = sim.call_at(when, lambda w=wid, s=step: tick(("timer", w, s)))
                handles.append(handle)
                yield sim.timeout(rng.choice([0.1, 1.0, 70.0]))
                tick(("armed", wid, step))
            else:
                ev = sim.event()
                sim.call_in(
                    rng.choice([0.0, 0.125, 4.0]),
                    lambda e=ev, s=step: e.succeed(s * 2),
                )
                value = yield ev
                tick(("event", wid, step, value))
            if handles and rng.random() < 0.4:
                victim = handles.pop(rng.randrange(len(handles)))
                victim.cancel()  # may already have fired: both are legal
                tick(("cancelled", wid, step))
        return total

    roots = [sim.spawn(worker(i, 0)) for i in range(rng.randint(3, 6))]
    return roots


#: ``run(until=...)`` modes the fuzz drives: run to exhaustion; run to a
#: deadline, then resume; run until the first root process's event, then
#: resume.
UNTIL_MODES = (None, 3.0, "root")


def _run_fuzz(seed, backend=None, until=None, sanitize=False):
    sim = Simulator(backend=backend, sanitize=sanitize)
    log = []
    roots = _fuzz_workload(sim, seed, log)
    if until == "root":
        log.append(("until-root", sim.run(until=roots[0]), sim.now))
    elif until is not None:
        sim.run(until=until)
        log.append(("until-deadline", sim.now))
    sim.run()
    log.append(("final", sim.now, [p.value for p in roots]))
    assert sim.backend.pending() == 0
    return log


def _matches_oracle(seed, backend_factory=lambda: None):
    """Every until mode gives the oracle's execution, entry for entry."""
    for until in UNTIL_MODES:
        expected = _run_fuzz(seed, ReferenceBackend(), until)
        assert _run_fuzz(seed, backend_factory(), until) == expected


class TestDifferentialFuzz:
    """Identical execution on the scheduler and the oracle."""

    @pytest.mark.parametrize("seed", range(25))
    def test_batched_matches_reference(self, seed):
        _matches_oracle(seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_tiny_horizon_span_matches_reference(self, seed):
        """A pathological 0.5s span forces constant far-tier migration."""
        reference = _run_fuzz(seed, ReferenceBackend())
        batched = _run_fuzz(seed, BatchedBackend(span=0.5))
        assert reference == batched

    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        span=st.floats(min_value=0.01, max_value=1e4),
    )
    @example(seed=0, span=BatchedBackend.DEFAULT_SPAN)
    @example(seed=3, span=1e-3)
    @example(seed=5, span=float("inf"))
    def test_property_any_span_matches_oracle(self, seed, span):
        _matches_oracle(seed, lambda: BatchedBackend(span=span))

    @pytest.mark.parametrize("seed", range(8))
    def test_generic_loop_matches_fast_paths(self, seed):
        """The sanitized (hooked) loop executes the inlined loop's schedule."""
        for until in UNTIL_MODES:
            assert _run_fuzz(seed, until=until, sanitize=True) == _run_fuzz(
                seed, until=until
            )

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_run_until_deadline_matches(self, backend):
        log = []
        sim = Simulator(backend=_backend(backend))
        _fuzz_workload(sim, 42, log)
        sim.run(until=3.0)
        assert sim.now == 3.0
        cut = list(log)
        sim.run()
        assert all(t <= 3.0 for t, *_ in cut if isinstance(t, float))
        assert log == _run_fuzz(42, ReferenceBackend())[:-1]


class TestBatchedInternals:
    """White-box checks for the batched backend's tier machinery."""

    def test_far_timers_land_in_far_heap(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(500.0)
        backend = sim.backend
        assert len(backend._far) == 1
        assert len(backend._run) == 1
        sim.run()
        assert sim.now == 500.0

    def test_monotone_appends_avoid_heap(self):
        sim = Simulator()
        for i in range(10):
            sim.timeout(float(i) / 100.0)
        backend = sim.backend
        assert len(backend._run) == 10
        assert backend._heap == []

    def test_out_of_order_arrival_uses_near_heap(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.timeout(1.0)  # behind the run tail
        backend = sim.backend
        assert len(backend._heap) == 1
        order = []
        sim.call_at(1.0, lambda: order.append(1)).cancel()
        sim.run()
        assert sim.now == 10.0

    def test_infinite_timer_deadline_migrates(self):
        sim = Simulator()
        fired = []
        sim.call_at(float("inf"), lambda: fired.append(True))
        sim.run()
        assert fired == [True]
        assert sim.now == float("inf")

    def test_invalid_span_rejected(self):
        with pytest.raises(SimulationError, match="span"):
            BatchedBackend(span=0.0)


class TestHorizonKnob:
    """The far-horizon span is a constant (64 s), not an option: any
    positive value changes speed, never results."""

    @pytest.mark.parametrize("seed", range(8))
    def test_horizon_choice_matches_reference(self, seed):
        reference = _run_fuzz(seed, ReferenceBackend())
        assert reference == _run_fuzz(seed, BatchedBackend(span=0.5))
        assert reference == _run_fuzz(seed, BatchedBackend(span=1000.0))
