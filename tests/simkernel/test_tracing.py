"""Unit tests for the columnar trace engine and the tracer query API."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator()


class TestRecording:
    def test_record_stamps_time(self, sim):
        sim.run(until=4.5)
        sim.trace.record("x.y", a=1)
        rec = sim.trace.last("x.")
        assert rec.time == 4.5
        assert rec.kind == "x.y"
        assert rec["a"] == 1

    def test_get_with_default(self, sim):
        sim.trace.record("k")
        assert sim.trace.last("k").get("missing", "dflt") == "dflt"

    def test_record_returns_none(self, sim):
        # Columnar engine: no per-record object is allocated on the
        # unsubscribed fast path, so there is nothing to return.
        assert sim.trace.record("k") is None

    def test_len_and_iter(self, sim):
        for i in range(3):
            sim.trace.record("k", i=i)
        assert len(sim.trace) == 3
        assert [r["i"] for r in sim.trace] == [0, 1, 2]

    def test_clear(self, sim):
        sim.trace.record("k")
        sim.trace.clear()
        assert len(sim.trace) == 0

    def test_sequence_monotone_across_clear(self, sim):
        """clear() drops records but never resets the sequence counter, so
        resumable analyses can order observations across windows."""
        for i in range(3):
            sim.trace.record("k", i=i)
        last_before = sim.trace.last("k").sequence
        sim.trace.clear()
        assert len(sim.trace) == 0
        sim.trace.record("k", i=99)
        after = sim.trace.first("k")
        assert after.sequence == last_before + 1
        sim.trace.clear()
        sim.trace.clear()  # idempotent: empty clears advance nothing
        sim.trace.record("k")
        assert sim.trace.first("k").sequence == last_before + 2

    def test_sequences_are_consecutive(self, sim):
        for i in range(5):
            sim.trace.record("k", i=i)
        assert [r.sequence for r in sim.trace] == [1, 2, 3, 4, 5]


class TestQueries:
    @pytest.fixture()
    def traced(self, sim):
        sim.trace.record("svc.up", name="ssh")
        sim.run(until=10)
        sim.trace.record("svc.down", name="ssh")
        sim.trace.record("svc.down", name="web")
        sim.run(until=20)
        sim.trace.record("svc.up", name="web")
        sim.trace.record("vmm.reboot")
        return sim

    def test_prefix_select(self, traced):
        assert len(traced.trace.select("svc.")) == 4
        assert len(traced.trace.select("vmm.")) == 1

    def test_field_filter(self, traced):
        assert len(traced.trace.select("svc.", name="ssh")) == 2

    def test_time_window(self, traced):
        assert len(traced.trace.select("svc.", since=5, until=15)) == 2

    def test_first_and_last(self, traced):
        assert traced.trace.first("svc.").fields["name"] == "ssh"
        assert traced.trace.last("svc.").fields["name"] == "web"
        assert traced.trace.first("nothing.") is None
        assert traced.trace.last("nothing.") is None

    def test_first_and_last_with_window(self, traced):
        # Satellite: first/last accept the same since/until window as
        # select, so callsites need not slice a full list to index it.
        assert traced.trace.first("svc.", since=5).kind == "svc.down"
        assert traced.trace.first("svc.", since=5, name="web").time == 10
        assert traced.trace.last("svc.", until=15).fields["name"] == "web"
        assert traced.trace.last("svc.", until=15).kind == "svc.down"
        assert traced.trace.first("svc.", since=11, until=19) is None
        assert traced.trace.last("svc.", since=21) is None

    def test_times(self, traced):
        assert traced.trace.times("svc.down") == [10, 10]

    def test_times_with_window(self, traced):
        assert traced.trace.times("svc.", since=5, until=15) == [10, 10]

    def test_select_empty_prefix_matches_everything(self, traced):
        assert len(traced.trace.select("")) == len(traced.trace)

    def test_field_filter_missing_key_never_matches(self, traced):
        assert traced.trace.select("svc.", nonexistent=1) == []

    def test_numeric_field_filter(self, sim):
        for i in range(4):
            sim.trace.record("n.x", value=i, half=i / 2)
        assert len(sim.trace.select("n.", value=2)) == 1
        assert sim.trace.select("n.", half=1.5)[0]["value"] == 3
        # A numeric column never equals a string filter value.
        assert sim.trace.select("n.", value="2") == []


# Past 8,192 records, where an earlier engine sealed a chunk.
_LARGE = 8_192


class TestColumnarStorage:
    """Large streams read back the same from the one columnar store."""

    def _fill(self, sim, n):
        for i in range(n):
            sim._now = float(i)  # direct stamp: no events needed
            if i % 3 == 0:
                sim.trace.record("a.x", i=i, who="even" if i % 2 == 0 else "odd")
            elif i % 3 == 1:
                sim.trace.record("a.y", i=i, ratio=i / 7)
            else:
                sim.trace.record("b.z", i=i)

    def test_seal_boundary_is_invisible(self, sim):
        n = _LARGE + 100
        self._fill(sim, n)
        trace = sim.trace
        assert len(trace) == n
        # Reference implementation: a Python-level scan over all records.
        reference = [
            r for r in trace if r.kind.startswith("a.") and 5 <= r.time <= n - 5
        ]
        vectorized = trace.select("a.", since=5, until=n - 5)
        assert [(r.time, r.sequence, r.kind, r.fields) for r in vectorized] == [
            (r.time, r.sequence, r.kind, r.fields) for r in reference
        ]

    def test_typed_columns_round_trip_payload_types(self, sim):
        self._fill(sim, _LARGE)
        rec = sim.trace.first("a.y")
        assert type(rec["i"]) is int
        assert type(rec["ratio"]) is float
        assert type(sim.trace.first("a.x")["who"]) is str

    def test_field_filters_across_seal(self, sim):
        self._fill(sim, _LARGE + 30)
        matches = sim.trace.select("a.x", who="even")
        assert matches and all(r["who"] == "even" for r in matches)
        reference = [
            r
            for r in sim.trace
            if r.kind == "a.x" and r.fields.get("who") == "even"
        ]
        assert len(matches) == len(reference)

    def test_first_last_span_chunks(self, sim):
        self._fill(sim, _LARGE + 30)
        assert sim.trace.first("a.x")["i"] == 0
        assert sim.trace.last("b.z").time == sim.trace.times("b.z")[-1]

    def test_clear_resets_chunks(self, sim):
        self._fill(sim, _LARGE + 10)
        sim.trace.clear()
        assert len(sim.trace) == 0
        assert sim.trace.select("") == []
        sim.trace.record("a.x", i=-1)
        assert len(sim.trace) == 1


_KINDS = ("a.x", "a.y", "b.z", "ab.w", "c")
_PREFIXES = ("", "a", "a.", "a.x", "ab", "b.", "c", "zz.")
_BOUNDS = (float("-inf"), -1.0, 0.0, 0.5, 1.0, 2.5, 4.0, 9.0, float("inf"))
_KEYS = ("i", "v", "who")
_VALUES = st.one_of(
    st.integers(-2, 2),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from(["s", "t", ""]),
    st.booleans(),
)
_PAYLOADS = st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=3)
_QUERIES = st.tuples(
    st.sampled_from(_PREFIXES),
    st.sampled_from(_BOUNDS),
    st.sampled_from(_BOUNDS),
    st.one_of(
        st.just({}),
        st.dictionaries(st.sampled_from(_KEYS), _VALUES, min_size=1, max_size=2),
    ),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.sampled_from([0, 0, 0.5, 1]),
            st.sampled_from(_KINDS),
            _PAYLOADS,
        ),
        st.tuples(st.just("query"), _QUERIES),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _big_stream():
    """8,300 records: past 8,192, where an earlier engine sealed a chunk."""
    ops = []
    for i in range(8_300):
        payload = {"i": i % 5} if i % 3 else {"v": i / 7, "who": "odd"}
        if i % 11 == 0:
            payload["who"] = i % 2 == 0
        ops.append(("record", 0.5 * (i % 2), _KINDS[i % 5], payload))
    queries = [
        ("a.", 500.0, 1500.0, {}),
        ("", float("-inf"), float("inf"), {"i": 3}),
        ("b.", 0.0, float("inf"), {"who": True}),
        ("ab", 1000.0, 1000.0, {"v": 700 / 7}),
    ]
    ops += [("query", q) for q in queries]
    ops += [("clear",), ("record", 0.5, "c", {"i": 1}), ("query", queries[1])]
    return ops


def _view(records):
    return [(r.time, type(r.time), r.sequence, r.kind, r.fields) for r in records]


def _check(trace, model, prefix, since, until, filters):
    want = [
        rec
        for rec in model
        if rec[3].startswith(prefix)
        and since <= rec[0] <= until
        and all(
            key in rec[4] and rec[4][key] == value
            for key, value in filters.items()
        )
    ]
    args = (prefix, since, until)
    assert _view(trace.select(*args, **filters)) == want
    times = trace.times(*args, **filters)
    assert [(t, type(t)) for t in times] == [rec[:2] for rec in want]
    first = trace.first(*args, **filters)
    last = trace.last(*args, **filters)
    assert _view([first] if first else []) == want[:1]
    assert _view([last] if last else []) == want[-1:]


def _record(dt, kind, **payload):
    return ("record", dt, kind, payload)


def _query(prefix, since=float("-inf"), until=float("inf"), **filters):
    return ("query", (prefix, since, until, filters))


class TestSingleStore:
    """Every query against a plain list of records as the model."""

    @given(ops=_OPS)
    @example(ops=_big_stream())
    @example(  # prefixes over several kinds, each queried between appends
        ops=[
            _record(0, "a.x", i=1), _record(0.5, "ab.w"), _query("a"),
            _record(0, "a.y", i=1), _record(0.5, "a.x"), _query("a.", 0.5),
            _record(0, "ab.w", i=1), _query("a", until=1.0, i=1),
            _record(1, "a.y"), _query("a"), _query("a.", 0.5, 2.0),
        ]
    )
    @example(  # kinds interned before clear(), queried after it
        ops=[
            _record(0, "a.x"), _record(0.5, "b.z"), _query("a."),
            ("clear",), _query("a."), _query("b."), _query("a.x", 0.0),
            _record(0.5, "b.z"), _query("a."), _query("b."),
            _record(0, "a.x", i=2), _query("a.x"), _query("a", i=2),
        ]
    )
    @example(  # an int clock reads back as float everywhere
        ops=[
            _record(0, "a.x"), _record(1, "b.z"), _record(1, "a.y"),
            _query(""), _query("a."), _query("b.", 1, 2),
        ]
    )
    @settings(max_examples=150, deadline=None)
    def test_queries_match_list_model(self, ops):
        sim = Simulator()
        trace = sim.trace
        model = []
        now = 0  # an int clock until a fractional step: times read as float
        sequence = 0
        for op in ops:
            if op[0] == "record":
                _, dt, kind, payload = op
                now += dt
                sim._now = now  # direct stamp: no events needed
                trace.record(kind, **payload)
                sequence += 1
                model.append((float(now), float, sequence, kind, payload))
            elif op[0] == "clear":
                trace.clear()
                model = []
            else:
                _check(trace, model, *op[1])
            assert len(trace) == len(model)
        assert _view(trace) == model
        # Every window edge a record can sit on, per prefix.
        times = sorted({rec[0] for rec in model})[:4]
        for prefix in _PREFIXES:
            for edge in times:
                _check(trace, model, prefix, edge, float("inf"), {})
                _check(trace, model, prefix, float("-inf"), edge, {})


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        from repro.simkernel import RandomStreams

        a = RandomStreams(42).stream("disk")
        b = RandomStreams(42).stream("disk")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        from repro.simkernel import RandomStreams

        streams = RandomStreams(42)
        first = streams.stream("a").random()
        # Drawing from another stream must not perturb "a".
        streams.stream("b").random()
        streams2 = RandomStreams(42)
        streams2.stream("a").random()
        second_run_next = streams2.stream("a").random()
        assert streams.stream("a").random() == second_run_next
        assert first != second_run_next

    def test_jitter_zero_fraction_is_exact(self):
        from repro.simkernel import RandomStreams

        assert RandomStreams(1).jitter("x", 5.0, 0.0) == 5.0

    def test_jitter_bounds(self):
        from repro.simkernel import RandomStreams

        streams = RandomStreams(7)
        for _ in range(100):
            v = streams.jitter("x", 10.0, 0.2)
            assert 8.0 <= v <= 12.0

    def test_spawn_children_differ(self):
        from repro.simkernel import RandomStreams

        parent = RandomStreams(3)
        c1 = parent.spawn("host1").stream("s").random()
        c2 = parent.spawn("host2").stream("s").random()
        assert c1 != c2
