"""``Simulator.activity()``: the mark that moves when entries leave.

The mark is the scheduler's sequence counter minus the entries it still
stores, plus one per ``run()``/``step()`` call.  The property below
drives random sequences of scheduling, cancelling, compacting, running
and stepping on the batched scheduler, the injected heap oracle
(``heap_oracle.py``) and a sanitized simulator, and checks after every
operation that the mark never decreases and that it equals what left
the scheduler (entries the test scheduled minus entries still stored)
plus the calls made.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simkernel import Simulator

from tests.simkernel.heap_oracle import ReferenceBackend

SIMULATORS = {
    "batched": lambda: Simulator(sanitize=False),
    "reference": lambda: Simulator(sanitize=False, backend=ReferenceBackend()),
    "sanitized": lambda: Simulator(sanitize=True),
}

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 100.0])
"""Same-instant entries, near ones and far-horizon ones."""

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS),
        st.tuples(st.just("call_at"), DELAYS),
        st.tuples(st.just("rearm_timer"), st.integers(0, 40), DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("cancel_many"), st.integers(0, 80)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0, 150.0])),
        st.tuples(st.just("step")),
    ),
    max_size=60,
)


class _Chain:
    """A timer callback that schedules one follow-up entry when it fires.

    Each timer gets its own receiver, so the sanitizer never pairs two
    timers' callbacks as racing on shared state.
    """

    def __init__(self, sim, scheduled):
        self.sim = sim
        self.scheduled = scheduled

    def fire(self):
        self.sim.timeout(0.0)
        self.scheduled[0] += 1


def _apply(sim, op, handles, scheduled, calls):
    kind = op[0]
    if kind == "schedule":
        sim.timeout(op[1])
        scheduled[0] += 1
    elif kind == "call_at":
        handles.append(sim.call_at(sim.now + op[1], _Chain(sim, scheduled).fire))
        scheduled[0] += 1
    elif kind == "rearm_timer":
        old = handles[op[1] % len(handles)] if handles else None
        handles.append(
            sim.rearm_timer(old, sim.now + op[2], _Chain(sim, scheduled).fire)
        )
        scheduled[0] += 1
    elif kind == "cancel":
        if handles:
            handles[op[1] % len(handles)].cancel()
    elif kind == "cancel_many":
        # Enough cancels at once to cross the automatic compaction bound.
        for _ in range(op[1]):
            sim.call_in(1.0, _Chain(sim, scheduled).fire).cancel()
            scheduled[0] += 1
    elif kind == "compact":
        sim.backend.compact()
    elif kind == "run":
        calls[0] += 1
        sim.run(until=sim.now + op[1])
    else:
        calls[0] += 1
        try:
            sim.step()
        except SimulationError:
            assert math.isinf(sim.peek())


@pytest.mark.parametrize("name", sorted(SIMULATORS))
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_activity_counts_departures_and_calls(name, ops):
    sim = SIMULATORS[name]()
    handles: list = []
    scheduled = [0]
    calls = [0]
    last = sim.activity()
    assert last == 0
    for op in ops:
        _apply(sim, op, handles, scheduled, calls)
        mark = sim.activity()
        assert mark >= last, op
        assert mark - calls[0] == scheduled[0] - sim.backend.storage_size(), op
        last = mark
    sim.run()
    calls[0] += 1
    assert sim.activity() == scheduled[0] + calls[0]  # everything left


class TestActivity:
    def test_scheduling_leaves_it_and_each_departure_moves_it(self):
        sim = Simulator(sanitize=False)
        sim.timeout(1.0)
        sim.call_at(2.0, lambda: None).cancel()
        assert sim.activity() == 0
        sim.run(until=0.5)  # nothing is due: only the call counts
        assert sim.activity() == 1
        sim.run()  # one call, one executed entry, one discarded timer
        assert sim.activity() == 4

    def test_compaction_moves_it_by_what_it_removes(self):
        sim = Simulator(sanitize=False)
        for _ in range(5):
            sim.call_at(1.0, lambda: None).cancel()
        sim.backend.compact()
        assert sim.activity() == 5 and sim.backend.storage_size() == 0
