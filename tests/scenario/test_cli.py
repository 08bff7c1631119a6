"""The scenario CLI, standalone and via the experiments CLI dispatch."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main as experiments_main
from repro.scenario.cli import main


@pytest.fixture()
def tiny_spec(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(
        'name = "tiny"\nobserve_s = 2.0\n\n'
        "[[workloads]]\n"
        'kind = "fileread"\nvm = "vm00"\nfile_kib = 64.0\n',
        encoding="utf-8",
    )
    return str(path)


def test_list_shows_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mixed-fleet-rolling" in out and "probed-warm-reboot" in out


def test_validate_accepts_good_spec(tiny_spec, capsys):
    assert main(["validate", tiny_spec]) == 0
    assert "ok (tiny: 1 host(s))" in capsys.readouterr().out


def test_validate_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('name = "x"\ntypo = 1\n', encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, key",
    [
        (
            'name = "x"\n\n[[hosts]]\n\n[[hosts.vms]]\ncount = 1.5\n',
            "hosts[0].vms[0].count",
        ),
        ('name = "x"\nspare = "no"\n', "spare"),
    ],
    ids=["vm-count", "spare"],
)
def test_validate_rejects_a_wrong_type(tmp_path, capsys, body, key):
    path = tmp_path / "typed.toml"
    path.write_text(body, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and f".{key}: expected a" in line


def test_validate_rejects_a_workload_no_vm_runs(tmp_path, capsys):
    path = tmp_path / "unrun.toml"
    path.write_text(
        'name = "x"\n\n[[workloads]]\nservice = "jboss"\n', encoding="utf-8"
    )
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert line.endswith(".workloads[0].service: no VM runs 'jboss' and no vm was named")


def test_run_rejects_an_unknown_policy_strategy(capsys):
    assert main(["run", "probed-warm-reboot", "--policy", "bogus"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: policy.strategy: must be one of")


def test_build_dry_builds_registered_scenario(capsys):
    assert main(["build", "probed-warm-reboot"]) == 0
    out = capsys.readouterr().out
    assert "1 host(s), 3 VM(s), 3 workload(s)" in out


def test_run_executes_a_toml_spec(tiny_spec, capsys):
    assert main(["run", tiny_spec]) == 0
    out = capsys.readouterr().out
    assert "scenario tiny:" in out and "fileread on vm00" in out


def test_run_trace_out_writes_spans_and_counters(tiny_spec, tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["run", tiny_spec, "--trace-out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    document = json.loads(out.read_text(encoding="utf-8"))
    json.dumps(document, allow_nan=False)  # strict: no NaN or Infinity
    phases = {event["ph"] for event in document["traceEvents"]}
    assert {"X", "C"} <= phases


def test_run_unknown_name_exits_two(capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert "known:" in capsys.readouterr().err


def test_experiments_cli_dispatches_scenario_subcommand(capsys):
    assert experiments_main(["scenario", "list"]) == 0
    assert "mixed-fleet-rolling" in capsys.readouterr().out
