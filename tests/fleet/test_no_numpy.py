"""A fleet run never imports numpy, with telemetry off or on.

numpy serves the experiments' timelines and fits; a fleet needs none of
them, and importing numpy would add to every fleet process's start-up
time and peak memory.  Both runs share one fresh interpreter
(``--jobs 1``, so every shard runs there too), which checks
``sys.modules`` after each run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SPEC = """
name = "numpy-free"
shards = 2
hosts_per_epoch = 1
epoch_s = 60.0
warmup_s = 60.0
observe_s = 120.0

[[hosts]]
count = 2

  [[hosts.vms]]
  count = 1
  services = ["apache"]

[[workloads]]
kind = "httperf"
service = "apache"
mode = "fluid"
sessions = 4
files = 4
file_kib = 512.0

[policy]
"""

_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.fleet.cli import main

    plain, observed, out = sys.argv[1:]
    assert main(["run", plain, "--jobs", "1"]) == 0
    assert "numpy" not in sys.modules, "telemetry off"
    assert main([
        "run", observed, "--jobs", "1",
        "--obs-out", out + "/bundle.json", "--trace-out", out + "/trace.json",
    ]) == 0
    assert "numpy" not in sys.modules, "telemetry on"
    """
)


def test_fleet_runs_never_import_numpy(tmp_path):
    plain = tmp_path / "plain.toml"
    plain.write_text(_SPEC)
    # The observed run also evaluates an SLO, as perfbench's fleet-observed.
    observed = tmp_path / "observed.toml"
    observed.write_text(
        _SPEC + "\n[slo]\navailability = 0.9\nwindow_s = 60.0\n"
    )
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(plain), str(observed), str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "bundle.json").exists()
    assert (tmp_path / "trace.shard1.json").exists()
