"""The text-emitting Perfetto builder against the dict builder it replaced.

:mod:`tests.analysis.perfetto_oracle` keeps the dict builder.  Every
written trace, one simulation's and a merged bundle's, must be exactly
``json.dumps(oracle_document, allow_nan=False)``, over random spans and
metric series that hold the values whose encoding is easy to get wrong.
A value strict JSON cannot hold must fail the write where the oracle's
encoding fails, with the previous file kept.
"""

import json

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analysis.obs import perfetto_events, write_perfetto
from repro.errors import AnalysisError
from repro.obs import TelemetryBundle

from tests.analysis import perfetto_oracle

_PREVIOUS = b'{"previous": true}'

# Text with the characters JSON escapes: quotes, backslashes, control
# characters and non-ASCII, plus the empty string.
_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00\x1f", "hôte-0", "ünï", "😀", ""]),
)

_FLOATS = st.one_of(
    st.sampled_from(
        [-0.0, 0.1, 1e-07, 1e16, 5e-324, 1.7976931348623157e308]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
_INTS = st.one_of(
    st.sampled_from([2**53 + 1, 10**30]), st.integers(-(10**30), 10**30)
)
_VALUES = st.one_of(
    _FLOATS,
    _INTS,
    st.booleans(),
    st.builds(numpy.float64, _FLOATS),
)
# Times whose ×1e6 stays finite.
_TIMES = st.one_of(
    st.sampled_from([-0.0, 0.1, 1e-07, 1e16, 5e-324]),
    st.floats(min_value=0.0, max_value=1e9),
    st.integers(0, 10**9),
    st.builds(numpy.float64, st.floats(min_value=0.0, max_value=1e6)),
)


@st.composite
def _spans(draw):
    spans = []
    for span_id in range(1, draw(st.integers(0, 4)) + 1):
        start = draw(st.floats(min_value=0.0, max_value=1e9))
        end = draw(
            st.one_of(st.none(), st.floats(min_value=start, max_value=2e9))
        )
        spans.append(
            {
                "span": span_id,
                "parent": draw(st.integers(0, span_id - 1)),
                "name": draw(_TEXT),
                "actor": draw(_TEXT),
                "detail": draw(_TEXT),
                "start": start,
                "end": end,
            }
        )
    return spans


@st.composite
def _entry(draw):
    labels = draw(st.dictionaries(_TEXT, _TEXT, max_size=3))
    if draw(st.booleans()) and draw(st.booleans()):
        # A histogram entry: no sample series, so no counter events.
        return {"labels": labels, "count": 1, "sum": 0.5,
                "buckets": [[0.1, 1], ["+Inf", 1]]}
    pool = draw(st.sampled_from([_FLOATS, _INTS, _VALUES]))
    samples = draw(st.lists(st.tuples(_TIMES, pool), max_size=5))
    return {
        "labels": labels,
        "value": samples[-1][1] if samples else 0,
        "times": [t for t, _ in samples],
        "values": [v for _, v in samples],
    }


_SERIES = st.dictionaries(_TEXT, st.lists(_entry(), max_size=3), max_size=3)


def _blob(shard, spans, series):
    return {"shard": shard, "hosts": [f"host{shard}"], "spans": spans,
            "records": [], "metrics": series, "audit": [], "triggers": []}


def _assert_writes_the_oracle(path, write, document):
    """``write(path)`` must give the oracle document's strict encoding."""
    path.write_bytes(_PREVIOUS)
    assert write(path) == path
    assert path.read_text(encoding="utf-8") == json.dumps(
        document, allow_nan=False
    )


def _assert_refused(path, write):
    """``write(path)`` must raise AnalysisError naming the path, chained
    from a ValueError, and keep the previous file with no temp file."""
    path.write_bytes(_PREVIOUS)
    with pytest.raises(AnalysisError, match=path.name) as info:
        write(path)
    assert isinstance(info.value.__cause__, ValueError)
    assert path.read_bytes() == _PREVIOUS
    assert [p.name for p in path.parent.iterdir()] == [path.name]


_FIXTURE_OK = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestSameBytesAsTheDictBuilder:
    @_FIXTURE_OK
    @given(
        spans=_spans(),
        series=_SERIES,
        pid=st.integers(1, 9),
        process=_TEXT,
        shard=st.one_of(st.none(), st.integers(0, 5)),
    )
    @example(spans=[], series={}, pid=1, process="repro-sim", shard=None)
    @example(
        spans=[],
        series={"m": [{"labels": {}, "value": 0, "times": [], "values": []}]},
        pid=1, process="repro-sim", shard=None,
    )
    def test_one_document(self, tmp_path, spans, series, pid, process, shard):
        document = perfetto_oracle.perfetto_document(
            spans, series, pid=pid, process=process, shard=shard
        )
        _assert_writes_the_oracle(
            tmp_path / "trace.json",
            lambda path: write_perfetto(
                path,
                perfetto_events(
                    spans, series, pid=pid, process=process, shard=shard
                ),
            ),
            document,
        )

    @_FIXTURE_OK
    @given(shards=st.lists(st.tuples(_spans(), _SERIES), min_size=1, max_size=3))
    def test_merged_bundle(self, tmp_path, shards):
        bundle = TelemetryBundle.merge(
            "fleet",
            [_blob(index, spans, series)
             for index, (spans, series) in enumerate(shards)],
        )
        document = perfetto_oracle.bundle_document(bundle)
        _assert_writes_the_oracle(
            tmp_path / "fleet.perfetto.json", bundle.write_perfetto, document
        )
        assert bundle.to_perfetto() == document
        for shard in bundle.shards:
            assert shard.to_perfetto() == perfetto_oracle.perfetto_document(
                shard.spans, shard.metrics
            )


_BAD_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), numpy.float64("nan")]
)


@st.composite
def _poisoned(draw):
    """A merged bundle of 1-3 shards with one number strict JSON cannot
    hold: a NaN or an infinity as a sample's time or value, or a time
    whose ×1e6 overflows to an infinity."""
    shards = draw(st.lists(st.tuples(_spans(), _SERIES), min_size=1, max_size=3))
    blobs = [_blob(i, spans, series) for i, (spans, series) in enumerate(shards)]
    blob = draw(st.sampled_from(blobs))
    labels = draw(st.dictionaries(_TEXT, _TEXT, max_size=3))
    samples = draw(st.lists(st.tuples(_TIMES, _FLOATS), min_size=1, max_size=4))
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    where = draw(st.integers(0, len(samples) - 1))
    poison = draw(st.sampled_from(["time", "value", "overflow"]))
    if poison == "value":
        values[where] = draw(_BAD_FLOATS)
    elif poison == "time":
        times[where] = draw(_BAD_FLOATS)
    else:
        times[where] = draw(st.sampled_from([1e303, 1.7976931348623157e308]))
    name = draw(_TEXT)
    blob["metrics"] = {**blob["metrics"], name: [
        *blob["metrics"].get(name, []),
        {"labels": labels, "value": 0.0, "times": times, "values": values},
    ]}
    return TelemetryBundle.merge("fleet", blobs), blob["shard"]


class TestRefusedLikeTheDictBuilder:
    @_FIXTURE_OK
    @given(poisoned=_poisoned())
    def test_nan_infinity_and_overflow_refuse_every_writer(
        self, tmp_path, poisoned
    ):
        bundle, shard = poisoned
        with pytest.raises(ValueError):
            json.dumps(perfetto_oracle.bundle_document(bundle), allow_nan=False)
        _assert_refused(tmp_path / "fleet.perfetto.json", bundle.write_perfetto)
        events = bundle.shards[shard].perfetto_events
        _assert_refused(
            tmp_path / "fleet.perfetto.json",
            lambda path: write_perfetto(path, events()),
        )

    @pytest.mark.parametrize(
        "values", [[numpy.int64(3)], [1.0, numpy.int64(3)], [2, numpy.int64(3)]]
    )
    def test_numpy_int64_raises_type_error(self, tmp_path, values):
        series = {"m": [{"labels": {}, "value": 0,
                         "times": [float(i) for i in range(len(values))],
                         "values": values}]}
        with pytest.raises(TypeError):
            json.dumps(perfetto_oracle.perfetto_document([], series))
        path = tmp_path / "trace.json"
        path.write_bytes(_PREVIOUS)
        with pytest.raises(TypeError, match="int64"):
            write_perfetto(path, perfetto_events([], series))
        assert path.read_bytes() == _PREVIOUS
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
