"""Unit tests for CSV/JSON export."""

import json

from repro.analysis.export import result_to_json, rows_to_csv, write_result
from repro.analysis.report import ComparisonRow
from repro.experiments.common import ExperimentResult


def make_result():
    result = ExperimentResult("TEST1", "a test experiment")
    result.rows = [
        ComparisonRow("quantity a", 42.0, 40.0),
        ComparisonRow("quantity b", 10.0, 30.0),
    ]
    result.data = {"series": {"warm": [(1, 2.0)]}, "note": object()}
    return result


class TestCsv:
    def test_rows_to_csv(self):
        text = rows_to_csv(make_result().rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("label,paper,measured")
        assert len(lines) == 3
        assert "quantity a" in lines[1]


class TestJson:
    def test_round_trips(self):
        payload = json.loads(result_to_json(make_result()))
        assert payload["experiment_id"] == "TEST1"
        assert payload["shape_reproduced"] is False  # quantity b deviates
        assert payload["rows"][0]["label"] == "quantity a"

    def test_include_data_handles_non_jsonable(self):
        payload = json.loads(result_to_json(make_result(), include_data=True))
        assert payload["data"]["series"]["warm"] == [[1, 2.0]]
        assert isinstance(payload["data"]["note"], str)  # repr fallback

    def test_dataclass_conversion(self):
        from repro.analysis.fitting import LinearFit

        result = make_result()
        result.data = {"fit": LinearFit(1.0, 2.0, 0.99)}
        payload = json.loads(result_to_json(result, include_data=True))
        assert payload["data"]["fit"]["slope"] == 1.0


class TestWriteResult:
    def test_writes_both_files(self, tmp_path):
        paths = write_result(make_result(), tmp_path)
        assert sorted(p.name for p in paths) == ["TEST1.csv", "TEST1.json"]
        for path in paths:
            assert path.read_text()

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_result(make_result(), target)
        assert (target / "TEST1.csv").exists()
