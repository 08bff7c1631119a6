"""Unit tests for trace-based downtime extraction."""

import pytest

from repro.analysis.downtime import (
    DowntimeSummary,
    downtime_by_domain,
    extract_downtimes,
    reboot_downtime_summary,
)
from repro.errors import AnalysisError
from repro.simkernel import Simulator


def record(sim, kind, t, domain, service="svc", reason=""):
    sim.run(until=max(sim.now, t))
    # Full TRACE_SCHEMA payload: the sanitizer-mode runtime validation
    # (REPRO_SANITIZE=1) checks declared kinds even in tests.
    sim.trace.record(
        kind, domain=domain, service=service, service_kind="generic",
        reason=reason,
    )


class TestExtraction:
    def test_simple_pairing(self):
        sim = Simulator()
        record(sim, "service.down", 10, "vm0", reason="suspend")
        record(sim, "service.up", 52, "vm0", reason="resume")
        intervals = extract_downtimes(sim.trace)
        assert len(intervals) == 1
        assert intervals[0].duration == 42
        assert intervals[0].down_reason == "suspend"
        assert intervals[0].up_reason == "resume"

    def test_multiple_domains_independent(self):
        sim = Simulator()
        record(sim, "service.down", 10, "vm0")
        record(sim, "service.down", 11, "vm1")
        record(sim, "service.up", 20, "vm1")
        record(sim, "service.up", 30, "vm0")
        by_domain = downtime_by_domain(extract_downtimes(sim.trace))
        assert by_domain == {"vm0": 20, "vm1": 9}

    def test_double_down_extends_first_outage(self):
        sim = Simulator()
        record(sim, "service.down", 10, "vm0", reason="suspend")
        record(sim, "service.down", 15, "vm0", reason="killed")
        record(sim, "service.up", 30, "vm0")
        intervals = extract_downtimes(sim.trace)
        assert len(intervals) == 1
        assert intervals[0].down_at == 10

    def test_open_outage_reported_unclosed(self):
        sim = Simulator()
        record(sim, "service.down", 10, "vm0")
        intervals = extract_downtimes(sim.trace)
        assert len(intervals) == 1
        assert not intervals[0].closed
        with pytest.raises(AnalysisError):
            _ = intervals[0].duration

    def test_filters(self):
        sim = Simulator()
        record(sim, "service.down", 1, "vm0", service="a")
        record(sim, "service.up", 2, "vm0", service="a")
        record(sim, "service.down", 3, "vm1", service="b")
        record(sim, "service.up", 4, "vm1", service="b")
        assert len(extract_downtimes(sim.trace, domain="vm0")) == 1
        assert len(extract_downtimes(sim.trace, service="b")) == 1
        assert len(extract_downtimes(sim.trace, since=2.5)) == 1

    def test_summary(self):
        sim = Simulator()
        for i, (down, up) in enumerate([(0, 10), (0, 20), (0, 30)]):
            record(sim, "service.down", down, f"vm{i}")
        for i, (down, up) in enumerate([(0, 10), (0, 20), (0, 30)]):
            record(sim, "service.up", up, f"vm{i}")
        summary = reboot_downtime_summary(sim.trace)
        assert summary == DowntimeSummary(count=3, mean=20, minimum=10, maximum=30)

    def test_summary_without_data_raises(self):
        sim = Simulator()
        with pytest.raises(AnalysisError):
            reboot_downtime_summary(sim.trace)

    def test_intervals_sorted(self):
        sim = Simulator()
        record(sim, "service.down", 5, "b")
        record(sim, "service.down", 5, "a")
        record(sim, "service.up", 9, "b")
        record(sim, "service.up", 9, "a")
        intervals = extract_downtimes(sim.trace)
        assert [i.domain for i in intervals] == ["a", "b"]
