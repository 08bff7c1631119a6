"""Serial/parallel/cached equivalence of the experiment sweep runner.

The contract the parallel layer must keep: for a fixed seed, the rows of
an :class:`ExperimentResult` are *bit-identical* no matter whether the
cells ran serially in-process, fanned out across worker processes, or
were replayed from the content-addressed cache.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.experiments import experiment_ids, run_experiment, runner_module
from repro.experiments.parallel import cells_for, run_all_parallel
from repro.jobs import Cell, SweepStats, clear_cache

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    return tmp_path / "cells"


# SEC53 rides on the watchdog's live trace subscription, so it exercises
# the columnar engine's lazy-materialization callback path end to end in
# addition to the sweep plumbing the two figure experiments cover.
@pytest.mark.parametrize("experiment_id", ["FIG5", "FIG6", "SEC53"])
def test_serial_parallel_cached_rows_identical(
    experiment_id, cache_dir, serial_result
):
    serial = serial_result(experiment_id)

    stats = SweepStats()
    parallel = run_experiment(
        experiment_id, jobs=2, use_cache=True, stats=stats
    )
    assert stats.cache_hits == 0 and stats.executed == stats.total_cells

    cached_stats = SweepStats()
    cached = run_experiment(
        experiment_id, jobs=2, use_cache=True, stats=cached_stats
    )
    assert cached_stats.executed == 0
    assert cached_stats.cache_hits == cached_stats.total_cells > 0

    # Bit-identical comparison rows (floats compared with ==, not approx).
    assert serial.rows == parallel.rows == cached.rows
    assert serial.tables == parallel.tables == cached.tables
    assert serial.data == parallel.data == cached.data


def test_experiment_results_contain_no_numpy_scalars(serial_result):
    # The columnar trace engine and vectorized timeline analysis must
    # convert back to plain Python scalars at every boundary: a stray
    # np.float64 in a row would pickle fine but silently change the
    # bit-identity contract the cache layer compares against.
    import dataclasses

    import numpy as np

    def walk(value):
        assert not isinstance(value, (np.generic, np.ndarray)), value
        if isinstance(value, dict):
            for k, v in value.items():
                walk(k)
                walk(v)
        elif isinstance(value, (list, tuple, set)):
            for v in value:
                walk(v)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for field in dataclasses.fields(value):
                walk(getattr(value, field.name))

    result = serial_result("SEC53")
    walk(result.rows)
    walk(result.tables)
    walk(result.data)


def test_cell_digest_is_content_addressed():
    a = Cell("FIG5", ("on-memory", 3), "repro.experiments.fig5_numvms:measure_cell",
             {"n": 3, "method": "on-memory"})
    same = Cell("FIG5", ("on-memory", 3), "repro.experiments.fig5_numvms:measure_cell",
                {"method": "on-memory", "n": 3})
    other = Cell("FIG5", ("on-memory", 7), "repro.experiments.fig5_numvms:measure_cell",
                 {"n": 7, "method": "on-memory"})
    assert a.digest(False) == same.digest(False)  # param order is irrelevant
    assert a.digest(False) != other.digest(False)
    assert a.digest(False) != a.digest(True)  # quick and full never collide


def test_workload_mode_is_cache_key_material():
    # Fleet shard cells carry the spec dict as parameters, so flipping a
    # workload between exact and fluid re-addresses the cell.
    def shard_cell(mode):
        spec = {"name": "s", "workloads": [{"kind": "httperf", "mode": mode}]}
        return Cell("FLEET", ("s", 0), "repro.fleet.shard:run_fleet_shard",
                    {"shard": {"shard": 0, "spec_data": spec}})

    assert (shard_cell("exact").digest(False)
            != shard_cell("fluid").digest(False))


@pytest.mark.parametrize(
    "blob",
    [
        b"not a pickle",  # UnpicklingError
        b"garbage\n",  # the 'g' GET opcode -> ValueError on its argument
        b"",  # EOFError
    ],
)
def test_corrupt_cache_entry_is_a_miss(cache_dir, blob):
    stats = SweepStats()
    run_experiment("FIG2", use_cache=True, stats=stats)
    assert stats.executed > 0
    # Corrupt every stored payload; the sweep must recompute, not crash.
    for path in cache_dir.rglob("*.pkl"):
        path.write_bytes(blob)
    stats = SweepStats()
    result = run_experiment("FIG2", use_cache=True, stats=stats)
    assert stats.cache_hits == 0 and stats.executed == stats.total_cells
    assert result.shape_reproduced


def test_clear_cache_removes_payloads(cache_dir):
    run_experiment("FIG2", use_cache=True)
    assert clear_cache() > 0
    assert clear_cache() == 0


def test_run_all_parallel_subset(cache_dir):
    results = run_all_parallel(jobs=2, experiments=["FIG2", "SEC52"])
    assert set(results) == {"FIG2", "SEC52"}
    assert all(r.shape_reproduced for r in results.values())


def test_rejects_bad_jobs(cache_dir):
    with pytest.raises(ReproError):
        run_experiment("FIG2", jobs=0)


def test_every_decomposed_module_keys_match_assemble():
    # cells() + assemble() is the only experiment protocol: no runner
    # keeps a run() of its own.  Keys must be unique (the payload dict
    # would silently drop duplicates otherwise), and every cell names a
    # function of its runner module.
    for experiment_id in experiment_ids():
        module = runner_module(experiment_id)
        assert not hasattr(module, "run"), experiment_id
        plan = cells_for(experiment_id)
        keys = [cell.key for cell in plan]
        assert keys and len(keys) == len(set(keys)), experiment_id
        for cell in plan:
            assert callable(getattr(module, cell.fn.partition(":")[2])), cell
