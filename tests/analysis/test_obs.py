"""Exporter round-trips and critical-path reconciliation for the
observability layer (:mod:`repro.analysis.obs`)."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.obs import (
    capture_simulators,
    parse_prometheus,
    perfetto_events,
    perfetto_trace,
    prometheus_snapshot,
    reboot_critical_path,
    reconcile,
    render_prometheus,
    span_records,
    write_perfetto,
)
from repro.errors import AnalysisError
from repro.experiments.common import build_testbed
from repro.simkernel import Simulator

from tests.analysis import perfetto_oracle


@pytest.fixture()
def sim():
    return Simulator(metrics=True)


class TestSpanTree:
    def test_forest_structure_and_ordering(self, sim):
        with sim.spans.span("reboot", actor="h0", detail="warm"):
            with sim.spans.span("reboot.phase", actor="h0", detail="a"):
                pass
            with sim.spans.span("reboot.phase", actor="h0", detail="b"):
                pass
        with sim.spans.span("guest.boot", actor="vm1"):
            pass
        spans = span_records(sim.trace)
        # Begin order is id order; the parent field links the forest.
        assert [s["span"] for s in spans] == [1, 2, 3, 4]
        assert [(s["name"], s["parent"]) for s in spans] == [
            ("reboot", 0), ("reboot.phase", 1), ("reboot.phase", 1),
            ("guest.boot", 0),
        ]
        assert [s["detail"] for s in spans if s["parent"] == 1] == ["a", "b"]
        assert spans[0] == {
            "span": 1, "parent": 0, "name": "reboot", "actor": "h0",
            "detail": "warm", "start": 0.0, "end": 0.0,
        }
        assert [s["actor"] for s in spans if s["name"] == "guest.boot"] == [
            "vm1"
        ]

    def test_open_span_has_no_duration(self, sim):
        span = sim.spans.span("reboot", actor="h0")
        span.__enter__()
        (record,) = span_records(sim.trace)
        assert record["end"] is None
        # An open reboot is not a completed one: no critical path yet.
        with pytest.raises(AnalysisError, match="0 completed reboot"):
            reboot_critical_path([record])

    def test_end_without_begin_is_rejected(self, sim):
        sim.trace.record("span.end", span=99)
        with pytest.raises(AnalysisError, match="unknown span"):
            span_records(sim.trace)

    def test_second_end_is_rejected(self, sim):
        with sim.spans.span("reboot", actor="h0"):
            pass
        sim.trace.record("span.end", span=1)
        with pytest.raises(AnalysisError, match="ended twice"):
            span_records(sim.trace)


def _live_events(sim):
    """A live simulator's trace-event texts, as the CLIs write them."""
    return perfetto_events(span_records(sim.trace), sim.metrics.series_snapshot())


def _small_scenario(sim):
    """A hand-driven deterministic scenario: two spans, one counter."""
    counter = sim.metrics.counter("nic.tx_bytes", nic="eth0")
    sim.run(until=1.0)
    outer = sim.spans.span("reboot", actor="h0", detail="warm")
    outer.__enter__()
    sim.run(until=2.0)
    counter.inc(100)
    with sim.spans.span("reboot.phase", actor="h0", detail="suspend"):
        sim.run(until=3.0)
    sim.run(until=3.5)
    counter.inc(50)
    sim.run(until=4.0)
    outer.__exit__(None, None, None)


class TestPerfettoExport:
    def test_small_scenario_matches_golden_document(self, sim):
        """The exact trace-event JSON for a hand-driven scenario."""
        _small_scenario(sim)
        assert perfetto_trace(sim.trace, sim.metrics) == {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"ph": "M", "pid": 1, "name": "process_name",
                 "args": {"name": "repro-sim spans"}},
                {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                 "args": {"name": "h0"}},
                {"ph": "X", "pid": 1, "tid": 1,
                 "ts": 1_000_000.0, "dur": 3_000_000.0,
                 "name": "reboot:warm",
                 "args": {"span": 1, "parent": 0, "detail": "warm"}},
                {"ph": "X", "pid": 1, "tid": 1,
                 "ts": 2_000_000.0, "dur": 1_000_000.0,
                 "name": "reboot.phase:suspend",
                 "args": {"span": 2, "parent": 1, "detail": "suspend"}},
                {"ph": "M", "pid": 2, "name": "process_name",
                 "args": {"name": "repro-sim metrics"}},
                {"ph": "C", "pid": 2, "ts": 2_000_000.0,
                 "name": "nic.tx_bytes{nic=eth0}", "args": {"value": 100}},
                {"ph": "C", "pid": 2, "ts": 3_500_000.0,
                 "name": "nic.tx_bytes{nic=eth0}", "args": {"value": 150}},
            ],
        }

    def test_open_span_is_truncated_and_flagged(self, sim):
        sim.run(until=1.0)
        sim.spans.span("reboot", actor="h0").__enter__()
        sim.run(until=2.0)
        with sim.spans.span("reboot.phase", actor="h0"):
            sim.run(until=5.0)
        events = perfetto_trace(sim.trace)["traceEvents"]
        (open_event,) = [e for e in events if e.get("args", {}).get("open")]
        assert open_event["name"] == "reboot"
        assert open_event["dur"] == (5.0 - 1.0) * 1e6  # truncated at horizon

    def test_without_metrics_no_counter_process_appears(self, sim):
        _small_scenario(sim)
        events = perfetto_trace(sim.trace)["traceEvents"]
        assert not [e for e in events if e["pid"] == 2]

    def test_enabled_but_empty_registry_adds_no_metrics_process(self, sim):
        with sim.spans.span("reboot", actor="h0"):
            sim.run(until=1.0)
        events = perfetto_trace(sim.trace, sim.metrics)["traceEvents"]
        assert sim.metrics.enabled
        assert [e["pid"] for e in events] == [1, 1, 1]

    def test_write_perfetto_matches_the_pure_python_encoding(
        self, sim, tmp_path
    ):
        """The text writer must reproduce ``json.dump``'s bytes for the
        dict builder's document (the oracle), for values whose encoding
        is easy to get wrong, a non-ASCII actor and an open span."""
        gauge = sim.metrics.gauge("cpu.runnable", cpu="cœur-0")
        sim.run(until=1e-07)
        sim.spans.span("reboot", actor="hôte-0", detail="warm").__enter__()
        for value in (0.1, 1e-07, 1e16, -0.0, 2**53 + 1):
            gauge.set(value)
        with sim.spans.span("reboot.phase", actor="hôte-0"):
            sim.run(until=0.1)
        document = perfetto_oracle.perfetto_document(
            span_records(sim.trace), sim.metrics.series_snapshot()
        )
        path = write_perfetto(tmp_path / "trace.json", _live_events(sim))
        assert path.read_text(encoding="utf-8") == "".join(
            json.JSONEncoder(allow_nan=False).iterencode(document)
        )
        assert perfetto_trace(sim.trace, sim.metrics) == document

    def test_failed_write_keeps_the_previous_file(self, sim, tmp_path):
        path = tmp_path / "trace.json"
        path.write_bytes(b'{"previous": true}')
        sim.metrics.gauge("cpu.runnable", cpu="c0").set(float("nan"))
        with pytest.raises(AnalysisError, match="trace.json") as info:
            write_perfetto(path, _live_events(sim))
        assert isinstance(info.value.__cause__, ValueError)
        assert path.read_bytes() == b'{"previous": true}'
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_write_perfetto_creates_parents_and_strict_json(self, sim, tmp_path):
        _small_scenario(sim)
        path = write_perfetto(tmp_path / "deep" / "trace.json", _live_events(sim))
        assert path.exists()
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        assert [e["ph"] for e in document["traceEvents"]].count("X") == 2


class TestPrometheusRoundTrip:
    def test_counter_and_gauge_values_parse_back_exactly(self, sim):
        sim.metrics.counter("nic.tx_bytes", nic="eth0").inc(1536.5)
        sim.metrics.gauge("disk.queue_depth", disk="sda").set(7)
        text = prometheus_snapshot(sim.metrics)
        parsed = parse_prometheus(text)
        assert parsed[("repro_nic_tx_bytes_total", (("nic", "eth0"),))] == 1536.5
        assert parsed[("repro_disk_queue_depth", (("disk", "sda"),))] == 7

    def test_histogram_expands_to_cumulative_buckets(self, sim):
        histogram = sim.metrics.histogram("httperf.request_latency", client="c0")
        histogram.observe(0.002)
        histogram.observe(0.02)
        histogram.observe(45.0)  # beyond the last bound
        text = prometheus_snapshot(sim.metrics)
        assert "# TYPE repro_httperf_request_latency histogram" in text
        parsed = parse_prometheus(text)

        def bucket(le):
            return parsed[
                ("repro_httperf_request_latency_bucket",
                 (("client", "c0"), ("le", le)))
            ]

        assert bucket("0.001") == 0
        assert bucket("0.0025") == 1
        assert bucket("0.025") == 2
        assert bucket("30.0") == 2
        assert bucket("+Inf") == 3
        assert parsed[
            ("repro_httperf_request_latency_count", (("client", "c0"),))
        ] == 3

    def test_label_escaping_round_trips(self):
        text = render_prometheus(
            {"nic.tx_bytes": [
                {"labels": {"nic": 'weird"name\\x'}, "value": 1.0}
            ]}
        )
        parsed = parse_prometheus(text)
        assert parsed[
            ("repro_nic_tx_bytes_total", (("nic", 'weird"name\\x'),))
        ] == 1.0

    @pytest.mark.parametrize(
        "host", ["web,1", "line\nfeed", 'a="b",c="d"', "x}y{z", "tail\\"]
    )
    def test_label_separators_inside_values_round_trip(self, host):
        """Host names come unvalidated from spec templates: a comma, a
        line feed or a quoted pair inside one must not split it."""
        text = render_prometheus(
            {"fleet.availability": [
                {"labels": {"host": host, "vm": "v,m"}, "value": 0.5}
            ]}
        )
        assert parse_prometheus(text) == {
            ("repro_fleet_availability", (("host", host), ("vm", "v,m"))): 0.5
        }

    @settings(max_examples=200, deadline=None)
    @given(host=st.text(), vm=st.text(), value=st.floats(allow_nan=False))
    def test_any_label_text_round_trips(self, host, vm, value):
        text = render_prometheus(
            {
                "fleet.availability": [
                    {"labels": {"host": host, "vm": vm}, "value": value}
                ],
                "httperf.request_latency": [
                    {"labels": {"client": host}, "count": 1, "sum": value,
                     "buckets": [[0.1, 1], ["+Inf", 1]]}
                ],
            }
        )
        parsed = parse_prometheus(text)
        assert parsed[
            ("repro_fleet_availability", (("host", host), ("vm", vm)))
        ] == value
        assert parsed[
            ("repro_httperf_request_latency_bucket",
             (("client", host), ("le", "0.1")))
        ] == 1
        assert parsed[
            ("repro_httperf_request_latency_sum", (("client", host),))
        ] == value
        assert len(parsed) == 5

    def test_unknown_escape_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed label"):
            parse_prometheus('repro_x{host="a\\tb"} 1\n')

    def test_unterminated_label_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed label"):
            parse_prometheus('repro_x{host="a} 1\n')

    def test_malformed_value_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed sample"):
            parse_prometheus('repro_x{host="a"} one\n')

    def test_unregistered_snapshot_name_is_rejected(self):
        with pytest.raises(AnalysisError, match="unregistered"):
            render_prometheus({"no.such.metric": []})

    def test_malformed_sample_line_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed"):
            parse_prometheus("just_a_name_no_value\n")


class TestCriticalPath:
    @pytest.mark.parametrize("strategy", ["warm", "saved", "cold", "dom0-only"])
    def test_span_phases_reconcile_with_the_reboot_report(self, strategy):
        """The FIG7 contract: the reboot span's phase breakdown and the
        strategy's own RebootReport are two views of the same instants."""
        controller = build_testbed(2)
        report = controller.rejuvenate(strategy)
        path = reboot_critical_path(span_records(controller.sim.trace))
        worst = reconcile(path, report)
        assert worst <= 1e-6
        assert path.strategy == strategy
        assert [e.phase for e in path.entries] == [p.name for p in report.phases]
        assert path.phase_sum == pytest.approx(report.total, abs=1e-6)

    def test_occurrence_selects_successive_reboots(self):
        controller = build_testbed(2)
        controller.rejuvenate("warm")
        controller.rejuvenate("warm")
        spans = span_records(controller.sim.trace)
        first = reboot_critical_path(spans, occurrence=0)
        second = reboot_critical_path(spans, occurrence=1)
        # back-to-back runs touch
        assert second.span["start"] >= first.span["end"]
        with pytest.raises(AnalysisError, match="occurrence 2"):
            reboot_critical_path(spans, occurrence=2)

    def test_strategy_mismatch_is_detected(self):
        warm = build_testbed(2)
        warm_report = warm.rejuvenate("warm")
        cold = build_testbed(2)
        cold.rejuvenate("cold")
        path = reboot_critical_path(span_records(cold.sim.trace))
        with pytest.raises(AnalysisError, match="strategy"):
            reconcile(path, warm_report)


class TestCaptureSimulators:
    def test_capture_sees_construction_and_unhooks_after(self):
        with capture_simulators() as captured:
            first = Simulator()
            second = Simulator()
        after = Simulator()
        assert captured == [first, second]
        assert after not in captured

    @pytest.mark.parametrize("previous", [None, "0"])
    def test_metrics_on_inside_and_restored_after(self, monkeypatch, previous):
        if previous is None:
            monkeypatch.delenv("REPRO_METRICS", raising=False)
        else:
            monkeypatch.setenv("REPRO_METRICS", previous)
        with capture_simulators() as captured:
            Simulator()
        assert captured[0].metrics.enabled
        assert os.environ.get("REPRO_METRICS") == previous
        assert not Simulator().metrics.enabled
