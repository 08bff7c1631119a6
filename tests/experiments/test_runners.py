"""Integration tests: every experiment runner reproduces its paper shape.

These are the repository's acceptance tests — each runs a full
table/figure reproduction (sparse sweeps) and asserts the paper-vs-
measured rows land within tolerance.
"""

import json

import pytest

from repro.errors import ReproError
from repro.experiments import (
    describe,
    experiment_ids,
    run_experiment,
)


class TestRegistry:
    def test_all_ids_present(self):
        ids = experiment_ids()
        for expected in (
            "FIG2", "FIG4", "FIG5", "SEC52", "FIG6",
            "SEC53", "FIG7", "FIG8", "SEC56", "FIG9",
        ):
            assert expected in ids

    def test_describe(self):
        assert "quick reload" in describe("SEC52")
        with pytest.raises(ReproError):
            describe("FIG99")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            run_experiment("FIG99")

    def test_case_insensitive(self):
        result = run_experiment("sec52")
        assert result.experiment_id == "SEC52"


@pytest.mark.parametrize(
    "experiment_id",
    ["FIG2", "FIG4", "FIG5", "SEC52", "FIG6", "SEC53", "FIG8", "SEC56"],
)
def test_experiment_reproduces_paper_shape(experiment_id, serial_result):
    result = serial_result(experiment_id)
    assert result.rows, f"{experiment_id} produced no comparison rows"
    failing = [row for row in result.rows if not row.within_tolerance]
    assert not failing, (
        f"{experiment_id} deviates: "
        + "; ".join(
            f"{row.label}: paper={row.paper} measured={row.measured}"
            for row in failing
        )
    )
    assert result.render()  # renders without error


@pytest.mark.slow
def test_fig7_reproduces_paper_shape(serial_result):
    result = serial_result("FIG7")
    failing = [row for row in result.rows if not row.within_tolerance]
    assert not failing, [row.label for row in failing]


@pytest.mark.slow
def test_fig9_reproduces_paper_shape(serial_result):
    result = serial_result("FIG9")
    failing = [row for row in result.rows if not row.within_tolerance]
    assert not failing, [row.label for row in failing]


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "FIG6" in out

    def test_run_one(self, capsys):
        from repro.experiments.cli import main

        assert main(["SEC52"]) == 0
        out = capsys.readouterr().out
        assert "SHAPE REPRODUCED" in out

    def test_default_cache_is_under_pytest_temp(self, tmp_path_factory):
        """The CLI's default cache (used by ``test_run_one``) is the
        session's private one, never the user's ``~/.cache``."""
        from repro.jobs import cache_dir

        base = tmp_path_factory.getbasetemp().resolve()
        assert cache_dir().resolve().is_relative_to(base)

    def test_trace_out_writes_one_trace_per_simulation(self, tmp_path, capsys):
        from repro.experiments.cli import main

        target = tmp_path / "sec52.json"
        assert main(["SEC52", "--trace-out", str(target)]) == 0
        written = sorted(tmp_path.iterdir())
        assert [path.name for path in written] == [
            "sec52-00.json", "sec52-01.json",
        ]
        printed = capsys.readouterr().out
        for path in written:
            assert f"wrote {path}" in printed
            document = json.loads(path.read_text(encoding="utf-8"))
            json.dumps(document, allow_nan=False)  # strict: no NaN/Infinity
            phases = {event["ph"] for event in document["traceEvents"]}
            assert {"X", "C"} <= phases

    def test_no_args_errors(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main([])
