"""Fluid window queries, bit for bit against the generator-based oracle.

``FluidHttperf``'s window queries (``mean_rate``, ``availability``) and
``window_summary`` share one left-to-right pass over the client's rows.
The property below builds random rows, with gaps between them, through
the coordinator's row-append method around the client's registration (so
the client's ``_since`` clips them the way a real run does) and compares
every query against ``window_oracle.py`` by type and ``float.hex``: an
empty window must still read the integer 0 where ``sum`` returned it.
The client's ``tick_log()`` must also equal, bit for bit, the log the
per-client ``_commit`` kept for the same ticks (``fluid_oracle.TickLog``).
"""

from hypothesis import given, settings, strategies as st

from repro.simkernel import Simulator
from repro.workloads.httperf import FluidCoordinator, FluidHttperf

from tests.workloads import window_oracle
from tests.workloads.fluid_oracle import TickLog

INF = float("inf")
QUERIES = ("availability", "mean_rate")

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
ticks = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        st.floats(min_value=1e-6, max_value=5.0),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
        st.booleans(),
    ),
    max_size=25,
)


def _bits(value):
    return type(value), float(value).hex()


def _column_bits(log):
    return [[_bits(value) for value in column] for column in log]


def _client(since, start, rows, sessions):
    """A client registered at ``since``, over ``rows`` of (gap, length,
    rate, up) from ``start``; and the log ``_commit`` kept for them.

    Rows that end by ``since`` are appended before the client registers,
    like ticks accounted before it, so only its first row can start
    before ``since``.  Consecutive rows with equal ``(rate, up)`` share
    one solve list, so they form one run.
    """
    sim = Simulator(start_time=since)
    coordinator = FluidCoordinator(sim)
    ticks = []
    for gap, length, rate, up in rows:
        start += gap
        ticks.append((start, start + length, rate, up))
        start += length

    def register():
        return FluidHttperf(
            coordinator, lambda: None, ["/www/0"], sessions=sessions
        )

    client = solve = None
    for start, end, rate, up in ticks:
        if client is None and end > since:
            client = register()
        if solve is None or solve[0] != (rate, up):
            solve = [(rate, up)]
        coordinator._append(start, end, solve)
    if client is None:
        client = register()
    committed = TickLog(client)
    for tick in ticks:
        committed.commit(*tick)
    return client, committed


@st.composite
def windows(draw, client):
    """The ``±inf`` defaults, windows inside one tick, on tick boundaries,
    empty ones, and arbitrary ones."""
    ends, dts = client.tick_log()[:2]
    starts = [end - dt for end, dt in zip(ends, dts)]
    kinds = ["defaults", "arbitrary", "empty"] + (
        ["inside", "boundaries"] if ends else []
    )
    kind = draw(st.sampled_from(kinds))
    if kind == "defaults":
        return None
    if kind == "arbitrary":
        return draw(st.one_of(finite, st.just(-INF))), draw(
            st.one_of(finite, st.just(INF))
        )
    if kind == "empty":
        at = draw(st.one_of(finite, st.sampled_from(ends or [0.0])))
        return at, draw(st.one_of(st.just(at), st.floats(max_value=at)))
    k = draw(st.integers(min_value=0, max_value=len(ends) - 1))
    if kind == "inside":
        low, high = sorted(
            draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(2)
        )
        span = ends[k] - starts[k]
        return starts[k] + low * span, starts[k] + high * span
    edges = sorted(set(starts) | set(ends))
    return draw(st.sampled_from(edges)), draw(st.sampled_from(edges))


@settings(max_examples=300, deadline=None)
@given(
    since=finite,
    start=finite,
    rows=ticks,
    sessions=st.integers(min_value=1, max_value=2000),
    data=st.data(),
)
def test_one_pass_queries_match_the_oracle_bit_for_bit(
    since, start, rows, sessions, data
):
    client, committed = _client(since, start, rows, sessions)
    assert _column_bits(client.tick_log()) == _column_bits(
        committed.tick_log()
    )
    for _ in range(4):
        window = data.draw(windows(client))
        args = () if window is None else window
        for query in QUERIES:
            got = getattr(client, query)(*args)
            want = getattr(window_oracle, query)(client, *args)
            assert _bits(got) == _bits(want), (query, window)
        bounds = (-INF, INF) if window is None else window
        got = client.window_summary(*bounds)
        want = window_oracle.window_summary(client, *bounds)
        assert list(got) == list(want)
        assert [_bits(v) for v in got.values()] == [
            _bits(v) for v in want.values()
        ], window


def test_an_empty_window_reads_the_integer_zero():
    client, _ = _client(0.0, 0.0, [(0.0, 1.0, 5.0, True)], sessions=4)
    empty = client.window_summary(2.0, 3.0)
    assert empty["requests"] == 0 and type(empty["requests"]) is int
    whole = client.window_summary(-INF, INF)
    assert type(whole["downtime_s"]) is int  # no down tick anywhere
    assert empty == window_oracle.window_summary(client, 2.0, 3.0)
