"""Telemetry blobs and the merged bundle: capture, merge, exports.

The golden-document tests pin the exact merged Perfetto shape and the
Prometheus round trip, because both are consumed outside this codebase
(the Perfetto UI, Prometheus scrapers) where "close enough" drifts are
invisible until someone loads a broken file.
"""

import copy
import dataclasses
import json
import os

import pytest

from repro.analysis.obs import parse_prometheus, perfetto_trace
from repro.errors import AnalysisError
from repro.fleet import FleetReport
from repro.obs import ShardTelemetry, TelemetryBundle, capture_shard
from repro.simkernel import Simulator

from tests.analysis import perfetto_oracle

_US = 1e6


def _blob(shard=0, hosts=("host0",)):
    """A hand-built shard blob in exactly the cell-payload shape."""
    return {
        "shard": shard,
        "hosts": list(hosts),
        "spans": [
            {"span": 1, "parent": 0, "name": "reboot", "actor": hosts[0],
             "detail": "warm", "start": 60.0, "end": 100.0},
            {"span": 2, "parent": 0, "name": "fleet.host",
             "actor": hosts[0], "detail": "", "start": 0.0, "end": None},
        ],
        "records": [
            {"time": 60.0, "kind": "service.down", "service": "apache0",
             "service_kind": "apache", "domain": "vm0"},
            {"time": 90.0, "kind": "service.up", "service": "apache0",
             "service_kind": "apache", "domain": "vm0"},
        ],
        "metrics": {
            "fleet.availability": [
                {"labels": {"host": hosts[0], "vm": "vm0",
                            "kind": "httperf"},
                 "value": 0.875, "times": [240.0], "values": [0.875]},
            ],
            "fleet.downtime_seconds": [
                {"labels": {"host": hosts[0], "vm": "vm0",
                            "kind": "httperf"},
                 "value": 30.0, "times": [240.0], "values": [30.0]},
            ],
        },
        "audit": [],
        "triggers": [],
    }


class TestCaptureShard:
    def test_snapshots_spans_records_and_metrics(self):
        sim = Simulator(metrics=True)

        def activity():
            with sim.spans.span("reboot", actor="host0", detail="warm"):
                sim.trace.record(
                    "service.down", service="apache0",
                    service_kind="apache", domain="vm0",
                )
                yield sim.timeout(40.0)
                sim.trace.record(
                    "service.up", service="apache0",
                    service_kind="apache", domain="vm0",
                )
            sim.metrics.counter("nic.tx_bytes", nic="host0.nic").inc(512.0)

        sim.run(sim.spawn(activity()))
        audit = [{"time": 40.0, "cycle": 0, "action": "no-op",
                  "target": "", "outcome": "noop", "span": 1}]
        blob = capture_shard(sim, 3, ["host0"], audit=audit)
        assert blob.shard == 3 and blob.hosts == ["host0"]
        (span,) = blob.spans
        assert span["name"] == "reboot" and span["actor"] == "host0"
        assert span["start"] == 0.0 and span["end"] == 40.0
        assert [r["kind"] for r in blob.records] == [
            "service.down", "service.up",
        ]
        assert blob.metrics["nic.tx_bytes"][0]["values"] == [512.0]
        assert blob.audit == audit
        # The blob is plain data: it survives its own dict round trip.
        assert ShardTelemetry.from_dict(blob.to_dict()) == blob

    def test_shard_document_equals_the_live_export(self):
        """A shard's own Perfetto document, rebuilt from its blob, is the
        document the live simulator exports — including after the blob's
        plain-dict round trip (the cell payload form)."""
        sim = Simulator(metrics=True)
        gauge = sim.metrics.gauge("cpu.runnable", cpu="c0")
        sim.metrics.histogram("httperf.request_latency", client="c").observe(
            0.1
        )

        def activity():
            with sim.spans.span("reboot", actor="host0", detail="warm"):
                gauge.set(2)
                with sim.spans.span("reboot.phase", actor="host0",
                                    detail="suspend"):
                    yield sim.timeout(3.0)
                gauge.set(0)
            sim.spans.span("fleet.host", actor="host1").__enter__()
            yield sim.timeout(1.0)

        sim.run(sim.spawn(activity()))
        blob = capture_shard(sim, 0, ["host0", "host1"])
        live = perfetto_trace(sim.trace, sim.metrics)
        assert blob.to_perfetto() == live
        again = ShardTelemetry.from_dict(blob.to_dict())
        assert json.dumps(again.to_perfetto()) == json.dumps(live)

    def test_metrics_disabled_captures_empty_series(self, sim):
        blob = capture_shard(sim, 0, ["host0"])
        assert blob.metrics == {}

    def test_malformed_blob_dict_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed"):
            ShardTelemetry.from_dict({"shard": 0})


class TestMerge:
    def test_merge_keeps_shard_order(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        assert [s.shard for s in bundle.shards] == [0, 1]
        assert bundle.host_shard() == {"host0": 0, "host1": 1}

    def test_out_of_order_blobs_are_rejected(self):
        with pytest.raises(AnalysisError, match="out of order"):
            TelemetryBundle.merge(
                "fleet", [_blob(1, ("host1",)), _blob(0, ("host0",))]
            )

    def test_duplicate_host_provenance_is_rejected(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host0",))]
        )
        with pytest.raises(AnalysisError, match="appears in shards"):
            bundle.host_shard()

    def test_from_dict_requires_the_bundle_keys(self):
        with pytest.raises(AnalysisError, match="malformed"):
            TelemetryBundle.from_dict({"fleet": "x"})

    def test_write_load_roundtrip_is_bit_identical(self, tmp_path):
        bundle = _awkward_bundle()
        path = bundle.write(tmp_path / "bundle.json")
        loaded = TelemetryBundle.load(path)
        assert json.dumps(loaded.to_dict()) == json.dumps(bundle.to_dict())
        written = path.read_bytes()
        loaded.write(path)
        assert path.read_bytes() == written

    def test_load_missing_file_is_an_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such"):
            TelemetryBundle.load(tmp_path / "absent.json")

    def test_load_directory_is_an_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read") as info:
            TelemetryBundle.load(tmp_path)
        assert str(tmp_path) in str(info.value)

    @pytest.mark.parametrize(
        "raw", [b'{"fleet": "\xff"}', b'{"fleet": '], ids=["latin1", "cut"]
    )
    def test_load_undecodable_is_an_analysis_error(self, tmp_path, raw):
        path = tmp_path / "bundle.json"
        path.write_bytes(raw)
        with pytest.raises(AnalysisError, match="not UTF-8 JSON") as info:
            TelemetryBundle.load(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("document", ["[]", "3", '"fleet"', "null"])
    def test_load_non_object_is_rejected_plainly(self, tmp_path, document):
        path = tmp_path / "bundle.json"
        path.write_text(document, encoding="utf-8")
        with pytest.raises(AnalysisError, match="expected a JSON object") as info:
            TelemetryBundle.load(path)
        assert str(info.value).startswith(f"{path}: ")
        assert "indices" not in str(info.value)

    def test_load_names_the_path_of_a_malformed_bundle(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text('{"fleet": "x"}', encoding="utf-8")
        with pytest.raises(AnalysisError, match="missing 'shards'") as info:
            TelemetryBundle.load(path)
        assert str(info.value).startswith(f"{path}: ")


class TestMergedPerfetto:
    def test_golden_document(self):
        """The exact merged Chrome trace-event document for a two-shard
        fleet — process split, track metadata, span args, counter
        samples.  Loadable as-is at ui.perfetto.dev."""
        blob1 = _blob(1, ("host1",))
        blob1["metrics"] = {}  # a shard without metrics skips its group
        bundle = TelemetryBundle.merge("fleet", [_blob(0), blob1])
        assert bundle.to_perfetto() == {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"ph": "M", "pid": 1, "name": "process_name",
                 "args": {"name": "shard0 spans"}},
                {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                 "args": {"name": "host0"}},
                {"ph": "X", "pid": 1, "tid": 1, "ts": 60.0 * _US,
                 "dur": 40.0 * _US, "name": "reboot:warm",
                 "args": {"span": 1, "parent": 0, "detail": "warm",
                          "shard": 0}},
                {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
                 "dur": 100.0 * _US, "name": "fleet.host",
                 "args": {"span": 2, "parent": 0, "detail": "",
                          "shard": 0, "open": True}},
                {"ph": "M", "pid": 2, "name": "process_name",
                 "args": {"name": "shard0 metrics"}},
                {"ph": "C", "pid": 2, "ts": 240.0 * _US,
                 "name": "fleet.availability"
                         "{host=host0,kind=httperf,vm=vm0}",
                 "args": {"value": 0.875}},
                {"ph": "C", "pid": 2, "ts": 240.0 * _US,
                 "name": "fleet.downtime_seconds"
                         "{host=host0,kind=httperf,vm=vm0}",
                 "args": {"value": 30.0}},
                {"ph": "M", "pid": 3, "name": "process_name",
                 "args": {"name": "shard1 spans"}},
                {"ph": "M", "pid": 3, "tid": 1, "name": "thread_name",
                 "args": {"name": "host1"}},
                {"ph": "X", "pid": 3, "tid": 1, "ts": 60.0 * _US,
                 "dur": 40.0 * _US, "name": "reboot:warm",
                 "args": {"span": 1, "parent": 0, "detail": "warm",
                          "shard": 1}},
                {"ph": "X", "pid": 3, "tid": 1, "ts": 0.0,
                 "dur": 100.0 * _US, "name": "fleet.host",
                 "args": {"span": 2, "parent": 0, "detail": "",
                          "shard": 1, "open": True}},
            ],
        }

    def test_document_is_strict_json(self, tmp_path):
        bundle = TelemetryBundle.merge("fleet", [_blob(0)])
        path = bundle.write_perfetto(tmp_path / "fleet.perfetto.json")
        assert json.loads(path.read_text())["traceEvents"]


class TestMergedPrometheus:
    def test_round_trip_with_shard_labels(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        parsed = parse_prometheus(bundle.to_prometheus())
        availability = {
            dict(labels)["host"]: (value, dict(labels)["shard"])
            for (name, labels), value in parsed.items()
            if name == "repro_fleet_availability"
        }
        # Values survive the text format exactly, with shard provenance.
        assert availability == {"host0": (0.875, "0"),
                               "host1": (0.875, "1")}

    def test_sli_rows_recover_the_report_rows(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        rows = bundle.sli_rows()
        assert [(r["host"], r["shard"]) for r in rows] == [
            ("host0", 0), ("host1", 1),
        ]
        for row in rows:
            assert row["availability"] == 0.875
            assert row["downtime_s"] == 30.0

    def test_all_records_attach_shard_provenance(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        records = bundle.all_records()
        assert len(records) == 4
        assert {r["shard"] for r in records} == {0, 1}


def _awkward_bundle():
    """A two-shard bundle holding values whose encoding is easy to get
    wrong: short and long float reprs, -0.0, an int past double
    precision, a non-ASCII actor, an open span (``_blob``'s
    ``fleet.host``), a histogram and a nested audit dict."""
    blob0 = _blob(0, ("hôte-0",))
    blob0["spans"].append(
        {"span": 2**53 + 1, "parent": 1, "name": "reboot.phase",
         "actor": "hôte-0", "detail": "suspend", "start": 1e-07,
         "end": 1e16}
    )
    series = blob0["metrics"]["fleet.availability"][0]
    series["times"] = [0.1, 1e-07, 1e16]
    series["values"] = [-0.0, 2**53 + 1, 0.1]
    blob0["metrics"]["httperf.request_latency"] = [
        {"labels": {"vm": "vm0"}, "count": 2, "sum": 0.30000000000000004,
         "buckets": [[0.1, 1], ["+Inf", 2]]},
    ]
    blob0["audit"] = [
        {"time": 0.1, "cycle": 0, "action": "rejuvenate",
         "target": "hôte-0", "outcome": "applied", "span": 1,
         "detail": {"signals": [1e-07, {"heap": -0.0}], "note": "ünï"}},
    ]
    blob0["triggers"] = [
        {"time": 0.1, "detector": "aging", "host": "hôte-0",
         "value": 1e-07},
    ]
    return TelemetryBundle.merge("fleet", [blob0, _blob(1, ("host1",))])


def _awkward_report(bundle):
    """A fleet report around ``bundle`` with nested policy and SLO data."""
    return FleetReport(
        name="fleet", hosts=2, vms=2, shards=2, sessions=8,
        requests=100.0, failures=0.1, downtime_s=-0.0, availability=1e-07,
        overruns=["host1"], bringup_s=1e16,
        rows=[{"host": "hôte-0", "vm": "vm0", "availability": 0.875}],
        wall_s=0.1,
        policy={"strategy": "fleet-order", "triggers": {"aging": 1},
                "trigger_log": [{"time": 0.1, "host": "hôte-0"}],
                "audit": [{"time": 0.1, "detail": {"note": ["x"]}}]},
        telemetry=bundle.to_dict(),
        slo={"passed": True,
             "objectives": [{"kind": "availability", "passed": True,
                             "windows": [[0.0, 60.0, 0.1]]}]},
    )


def _python_encoding(document):
    """The pure-Python encoder's bytes (``json.dump`` to a handle), the
    reference the one-shot writer must reproduce exactly."""
    return "".join(json.JSONEncoder(allow_nan=False).iterencode(document))


def _containers(value):
    """Every dict and list inside ``value``, outermost first."""
    if isinstance(value, (dict, list)):
        yield value
        items = value.values() if isinstance(value, dict) else value
        for item in items:
            yield from _containers(item)


def _assert_copy_is_detached(make_dict):
    """Mutating every nested container of one ``make_dict()`` result
    must leave the next result unchanged."""
    before = copy.deepcopy(make_dict())
    result = make_dict()
    for container in list(_containers(result)):
        if isinstance(container, dict):
            container["mutated"] = True
        else:
            container.append("mutated")
    assert make_dict() == before


class TestWriters:
    def test_bundle_file_matches_the_pure_python_encoding(self, tmp_path):
        bundle = _awkward_bundle()
        path = bundle.write(tmp_path / "bundle.json")
        assert path.read_text(encoding="utf-8") == _python_encoding(
            bundle.to_dict()
        )

    def test_perfetto_file_matches_the_pure_python_encoding(self, tmp_path):
        """The merged text writer reproduces ``json.dump``'s bytes for
        the dict builder's document (the oracle), not only for a parse
        of its own text."""
        bundle = _awkward_bundle()
        path = bundle.write_perfetto(tmp_path / "fleet.perfetto.json")
        document = perfetto_oracle.bundle_document(bundle)
        assert path.read_text(encoding="utf-8") == _python_encoding(document)
        assert bundle.to_perfetto() == document

    @pytest.mark.parametrize("writer", ["write", "write_perfetto"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, writer):
        """A NaN cannot be strict JSON: the writer must refuse before it
        touches the target, with a package error naming the path."""
        path = tmp_path / "artifact.json"
        path.write_bytes(b'{"previous": true}')
        blob = _blob(0)
        blob["metrics"]["fleet.availability"][0]["values"] = [float("nan")]
        bundle = TelemetryBundle.merge("fleet", [blob])
        with pytest.raises(AnalysisError, match="artifact.json") as info:
            getattr(bundle, writer)(path)
        assert isinstance(info.value.__cause__, ValueError)
        assert path.read_bytes() == b'{"previous": true}'
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_interrupted_replace_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "fleet.prom"
        path.write_bytes(b"previous")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            _awkward_bundle().write_prometheus(path)
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["fleet.prom"]


class TestCopySemantics:
    def test_shard_to_dict_equals_the_dataclass_deep_copy(self):
        for shard in _awkward_bundle().shards:
            assert shard.to_dict() == dataclasses.asdict(shard)

    def test_shard_to_dict_shares_no_container(self):
        shard = _awkward_bundle().shards[0]
        _assert_copy_is_detached(shard.to_dict)

    def test_bundle_to_dict_shares_no_container(self):
        _assert_copy_is_detached(_awkward_bundle().to_dict)

    def test_fleet_report_to_dict_shares_no_container(self):
        report = _awkward_report(_awkward_bundle())
        _assert_copy_is_detached(report.to_dict)
