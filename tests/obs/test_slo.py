"""SLO engine unit tests: spec validation, SLI derivation, verdicts.

The engine consumes only plain data (rows and outage intervals), so
everything here runs without a simulator — the shapes
are exactly what a telemetry blob carries.
"""

import pytest

from repro.errors import AnalysisError, ScenarioError
from repro.obs import (
    SLOSpec,
    burn_rate_series,
    evaluate_slo,
    outage_intervals,
    render_slo,
)


class TestSLOSpec:
    def test_needs_at_least_one_objective(self):
        with pytest.raises(ScenarioError, match="objective"):
            SLOSpec()

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"availability": 0.0}, "availability"),
            ({"availability": 1.5}, "availability"),
            ({"downtime_budget_s": -1.0}, "downtime_budget_s"),
            ({"availability": 0.9, "downtime_budget_s": -1.0}, "downtime_budget_s"),
            ({"downtime_budget_s": 10.0, "window_s": -60.0}, "window_s"),
            ({"availability": 0.9, "window_s": 0.0}, "window_s"),
        ],
    )
    def test_validation(self, kwargs, needle):
        with pytest.raises(ScenarioError, match=needle):
            SLOSpec(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="unknown"):
            SLOSpec.from_dict({"availability": 0.9, "frobnicate": 1})

    def test_from_dict_rejects_non_numbers(self):
        with pytest.raises(ScenarioError, match="number"):
            SLOSpec.from_dict({"availability": "high"})
        with pytest.raises(ScenarioError, match="number"):
            SLOSpec.from_dict({"availability": True})

    def test_roundtrip(self):
        spec = SLOSpec(availability=0.99, downtime_budget_s=120.0)
        assert SLOSpec.from_dict(spec.to_dict()) == spec


class TestOutageIntervals:
    def _down(self, t, domain="vm0", service="apache"):
        return {"time": t, "kind": "service.down",
                "domain": domain, "service": service}

    def _up(self, t, domain="vm0", service="apache"):
        return {"time": t, "kind": "service.up",
                "domain": domain, "service": service}

    def test_pairs_and_clips(self):
        records = [self._down(50.0), self._up(80.0)]
        assert outage_intervals(records, 60.0, 200.0) == [
            {"domain": "vm0", "service": "apache", "start": 60.0, "end": 80.0}
        ]

    def test_open_outage_is_clipped_at_the_horizon(self):
        assert outage_intervals([self._down(150.0)], 0.0, 200.0) == [
            {"domain": "vm0", "service": "apache", "start": 150.0,
             "end": 200.0}
        ]

    def test_up_without_down_is_ignored(self):
        assert outage_intervals([self._up(10.0)], 0.0, 100.0) == []

    def test_duplicate_down_keeps_the_first(self):
        records = [self._down(10.0), self._down(20.0), self._up(30.0)]
        (interval,) = outage_intervals(records, 0.0, 100.0)
        assert interval["start"] == 10.0 and interval["end"] == 30.0

    def test_services_are_tracked_independently_and_sorted(self):
        records = [
            self._down(40.0, domain="vm1"),
            self._down(10.0),
            self._up(20.0),
            self._up(50.0, domain="vm1"),
        ]
        intervals = outage_intervals(records, 0.0, 100.0)
        assert [(i["domain"], i["start"]) for i in intervals] == [
            ("vm0", 10.0), ("vm1", 40.0),
        ]

    def test_outage_outside_the_window_is_dropped(self):
        records = [self._down(10.0), self._up(20.0)]
        assert outage_intervals(records, 30.0, 100.0) == []


class TestBurnRateSeries:
    def test_empty_window_raises(self):
        spec = SLOSpec(availability=0.9)
        with pytest.raises(AnalysisError, match="window"):
            burn_rate_series(spec, [], 100.0, 100.0, units=1)

    def test_burn_one_means_exactly_on_budget(self):
        # 10% error budget, one unit: 6 s of downtime in a 60 s tile.
        spec = SLOSpec(availability=0.9, window_s=60.0)
        outages = [{"domain": "vm0", "service": "apache",
                    "start": 10.0, "end": 16.0}]
        (tile,) = burn_rate_series(spec, outages, 0.0, 60.0, units=1)
        assert tile["downtime_s"] == pytest.approx(6.0)
        assert tile["burn"] == pytest.approx(1.0)

    def test_tiles_split_the_window_and_attribute_downtime(self):
        spec = SLOSpec(availability=0.5, window_s=60.0)
        outages = [{"domain": "vm0", "service": "apache",
                    "start": 50.0, "end": 70.0}]
        tiles = burn_rate_series(spec, outages, 0.0, 150.0, units=1)
        assert [(t["start"], t["end"]) for t in tiles] == [
            (0.0, 60.0), (60.0, 120.0), (120.0, 150.0),
        ]
        assert [t["downtime_s"] for t in tiles] == [10.0, 10.0, 0.0]
        # The last tile is short; its budget shrinks proportionally.
        assert tiles[-1]["budget_s"] == pytest.approx(15.0)

    def test_perfect_availability_target_has_no_finite_budget(self):
        spec = SLOSpec(availability=1.0, window_s=60.0)
        (tile,) = burn_rate_series(spec, [], 0.0, 60.0, units=1)
        assert tile["budget_s"] == 0.0 and tile["burn"] is None

    def test_downtime_budget_spreads_over_the_span(self):
        spec = SLOSpec(downtime_budget_s=120.0, window_s=60.0)
        tiles = burn_rate_series(spec, [], 0.0, 120.0, units=2)
        # 120 s budget over a 120 s x 2-unit span: 60 s per 60 s tile.
        assert [t["budget_s"] for t in tiles] == [60.0, 60.0]


class TestEvaluateSLO:
    def test_all_objectives_pass(self):
        spec = SLOSpec(availability=0.9, downtime_budget_s=50.0)
        report = evaluate_slo(
            spec,
            start=0.0,
            end=120.0,
            rows=[
                {"availability": 0.95, "downtime_s": 6.0},
                {"availability": 0.93, "downtime_s": 8.4},
            ],
        )
        assert report["passed"] is True
        kinds = {o["kind"]: o for o in report["objectives"]}
        assert kinds["availability"]["measured"] == pytest.approx(0.94)
        assert kinds["downtime"]["measured"] == pytest.approx(14.4)

    def test_violations_fail_the_report(self):
        spec = SLOSpec(availability=0.99)
        report = evaluate_slo(
            spec, start=0.0, end=60.0, rows=[{"availability": 0.5}]
        )
        assert report["passed"] is False
        assert report["objectives"][0]["passed"] is False

    def test_unmeasurable_objectives_fail_not_pass(self):
        # Strict verdicts: rows without availability or downtime fields —
        # every stated objective fails with measured None.
        spec = SLOSpec(availability=0.9, downtime_budget_s=10.0)
        report = evaluate_slo(spec, start=0.0, end=60.0, rows=[{}])
        assert report["passed"] is False
        for objective in report["objectives"]:
            assert objective["measured"] is None
            assert objective["passed"] is False

    def test_prober_downtime_field_is_understood(self):
        spec = SLOSpec(downtime_budget_s=10.0)
        report = evaluate_slo(
            spec, start=0.0, end=60.0, rows=[{"total_downtime_s": 4.0}]
        )
        assert report["objectives"][0]["measured"] == pytest.approx(4.0)
        assert report["passed"] is True

    def test_render_mentions_every_verdict(self):
        spec = SLOSpec(availability=0.9, downtime_budget_s=10.0)
        text = render_slo(
            evaluate_slo(spec, start=0.0, end=60.0, rows=[{}])
        )
        assert "slo FAIL" in text
        assert "availability: measured unmeasured" in text
        assert "downtime: measured unmeasured" in text

    def test_render_includes_the_burn_summary(self):
        spec = SLOSpec(availability=0.5, window_s=60.0)
        report = evaluate_slo(
            spec,
            start=0.0,
            end=120.0,
            rows=[{"availability": 0.9}],
            outages=[{"domain": "vm0", "service": "apache",
                      "start": 0.0, "end": 30.0}],
        )
        assert "burn rate: peak 1" in render_slo(report)
