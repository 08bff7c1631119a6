"""Fluid window queries, bit for bit against the generator-based oracle.

``FluidHttperf``'s window queries (``mean_rate``, ``availability``) and
``window_summary`` share one left-to-right pass over the tick log.  The
property below builds random tick logs through ``_commit`` (so the
client's ``_since`` clips them the way a real run does) and compares
every query against ``window_oracle.py`` by type and ``float.hex``: an
empty window must still read the integer 0 where ``sum`` returned it.
"""

from hypothesis import given, settings, strategies as st

from repro.simkernel import Simulator
from repro.workloads.httperf import FluidCoordinator, FluidHttperf

from tests.workloads import window_oracle

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


def _client(since, start, rows, sessions):
    """A client whose log holds ``rows`` of (gap, length, rate, up) from
    ``start``, committed while its ``_since`` is ``since``."""
    sim = Simulator(start_time=since)
    client = FluidHttperf(
        FluidCoordinator(sim), lambda: None, ["/www/0"], sessions=sessions
    )
    for gap, length, rate, up in rows:
        start += gap
        client._commit(start, start + length, rate, up)
        start += length
    return client


@st.composite
def windows(draw, client):
    """The ``±inf`` defaults, windows inside one tick, on tick boundaries,
    empty ones, and arbitrary ones."""
    ends = client._tick_t
    starts = [end - dt for end, dt in zip(ends, client._tick_dt)]
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
    client = _client(since, start, rows, sessions)
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
    client = _client(0.0, 0.0, [(0.0, 1.0, 5.0, True)], sessions=4)
    empty = client.window_summary(2.0, 3.0)
    assert empty["requests"] == 0 and type(empty["requests"]) is int
    whole = client.window_summary(-INF, INF)
    assert type(whole["downtime_s"]) is int  # no down tick anywhere
    assert empty == window_oracle.window_summary(client, 2.0, 3.0)
