"""Golden-row equivalence across the scenario-layer refactor.

``golden_rows.json`` holds the comparison rows of every experiment as
captured *before* testbed construction moved behind the declarative
scenario layer.  These tests pin the refactor's core contract: building
through :class:`~repro.scenario.builder.ScenarioBuilder` must not move a
single bit — serially, across worker processes, or through the
content-addressed cell cache.  Floats are compared with ``==`` (they
round-trip exactly through JSON's shortest-repr encoding).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.experiments import experiment_ids, run_experiment
from repro.experiments.parallel import run_all_parallel
from repro.jobs import SweepStats

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_rows.json")
with open(_GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN: dict[str, list[dict]] = json.load(_handle)

_SLOW = {"FIG7", "FIG9"}  # full-workload runs; match test_runners.py marks


def _rows(result) -> list[dict]:
    return [dataclasses.asdict(row) for row in result.rows]


def _params(keys):
    return [
        pytest.param(key, marks=pytest.mark.slow) if key in _SLOW else key
        for key in keys
    ]


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    return tmp_path / "cells"


def test_golden_baseline_covers_every_experiment():
    assert set(GOLDEN) == set(experiment_ids())
    assert all(rows for rows in GOLDEN.values())


@pytest.mark.parametrize("experiment_id", _params(sorted(GOLDEN)))
def test_serial_rows_match_golden(experiment_id, serial_result):
    assert _rows(serial_result(experiment_id)) == GOLDEN[experiment_id]


# Observability must be a pure observer: with metric collection switched
# on (spans are always recorded), every row stays bit-identical.  Quick
# experiments only — the serial golden match above covers the rest, and
# instruments never schedule, draw randomness, or mutate component state.
@pytest.mark.parametrize("experiment_id", ["FIG2", "FIG4", "FIG6", "SEC53"])
def test_instrumented_rows_match_golden(experiment_id, monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "1")
    assert _rows(run_experiment(experiment_id)) == GOLDEN[experiment_id]


# The batched scheduler runs every experiment above; sanitized runs take
# its hooked loop instead of the inlined one, and must match too (as must
# runs with metrics on).  `make test-sanitize` runs the whole suite so.
@pytest.mark.parametrize("experiment_id", ["FIG2", "SEC53"])
@pytest.mark.parametrize("observer", ["REPRO_SANITIZE", "REPRO_METRICS"])
def test_batched_backend_observed_rows_match_golden(
    experiment_id, observer, monkeypatch
):
    monkeypatch.setenv(observer, "1")
    assert _rows(run_experiment(experiment_id)) == GOLDEN[experiment_id]


# Every experiment but FIG9 (whose three cluster runs would double its
# ~10 s) re-runs through the pool and the cache: pooled and cached runs
# execute the same cell functions and the same assemble as serial ones.
@pytest.mark.parametrize(
    "experiment_id",
    _params(
        [
            "FIG2", "FIG4", "FIG5", "SEC52", "FIG6", "SEC53", "FIG7", "FIG8",
            "SEC56", "EXT-PROACTIVE", "EXT-GRANULARITY", "EXT-AUTONOMIC",
        ]
    ),
)
def test_parallel_and_cached_rows_match_golden(experiment_id, cache_dir):
    stats = SweepStats()
    pooled = run_experiment(
        experiment_id, jobs=2, use_cache=True, stats=stats
    )
    assert stats.cache_hits == 0 and stats.executed == stats.total_cells
    assert _rows(pooled) == GOLDEN[experiment_id]

    replay_stats = SweepStats()
    replayed = run_experiment(
        experiment_id, jobs=2, use_cache=True, stats=replay_stats
    )
    assert replay_stats.executed == 0
    assert replay_stats.cache_hits == replay_stats.total_cells > 0
    assert _rows(replayed) == GOLDEN[experiment_id]


# SEC53 plans three of FIG6's cells (the 11-VM JBoss downtime per reboot
# strategy), so a sweep of both runs each of them once and feeds both.
# Without the cache every cell still gets its own payload.
@pytest.mark.parametrize("jobs, use_cache", [(1, True), (2, True), (1, False)])
def test_shared_cells_run_once_per_sweep(jobs, use_cache, cache_dir):
    both = ["FIG6", "SEC53"]
    stats = SweepStats()
    results = run_all_parallel(
        jobs=jobs, use_cache=use_cache, experiments=both, stats=stats
    )
    assert stats.cache_hits == 0
    assert stats.executed == stats.total_cells - 3
    assert {key: _rows(results[key]) for key in both} == {
        key: GOLDEN[key] for key in both
    }
    if use_cache:
        replay_stats = SweepStats()
        run_all_parallel(jobs=jobs, experiments=both, stats=replay_stats)
        assert replay_stats.executed == 0
        assert replay_stats.cache_hits == replay_stats.total_cells
