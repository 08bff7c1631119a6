"""Parallel experiment sweeps over independent measurement cells.

The evaluation sweep is embarrassingly parallel at the *cell* level: one
cell is one deterministically-seeded testbed plus one simulation (e.g.
"FIG5, 7 VMs, xen-save"), so its payload depends only on its parameters
and the code — never on which process runs it or in what order.  The
generic machinery — :class:`~repro.jobs.Cell`, the process pool, the
content-addressed payload cache — lives in :mod:`repro.jobs` at the
foundation layer (the fleet tier rides on it too); this module is the
experiment-facing tier on top: it turns each runner module's
``cells(full)`` into a cell plan and folds payloads back into results
with the runner's ``assemble``.

Every experiment run goes through here, so serial (``jobs=1``), pooled
and cached runs execute the *same* cells and the *same* ``assemble``;
they differ only in where a cell runs and whether its payload is
pickled.  The tests in ``tests/experiments/`` pin bit-identical rows
across all three.
"""

from __future__ import annotations

import typing

from repro.experiments import experiment_ids, runner_module
from repro.experiments.common import ExperimentResult
from repro.jobs import Cell, SweepStats, run_cells


# -- the cell plan -----------------------------------------------------------------


def cells_for(experiment_id: str, full: bool = False) -> list[Cell]:
    """The cell plan for one experiment: its runner module's ``cells(full)``.

    Each cell names its function by the module that defines it, so a
    function another runner imports (SEC53 measures with FIG6's
    ``measure_downtime``) has one name, and equal calls one digest.
    """
    key = experiment_id.upper()
    module = runner_module(key)
    cells = []
    for cell_key, fn_name, params in module.cells(full):
        fn = getattr(module, fn_name)
        ref = f"{fn.__module__}:{fn.__name__}"
        cells.append(Cell(key, tuple(cell_key), ref, dict(params)))
    return cells


# -- the runners -------------------------------------------------------------------


def run_all_parallel(
    full: bool = False,
    jobs: int | None = None,
    use_cache: bool = True,
    experiments: typing.Sequence[str] | None = None,
    stats: SweepStats | None = None,
) -> dict[str, ExperimentResult]:
    """Run a set of experiments (default: all) over one shared pool.

    Cells from every experiment are pooled before fan-out, so the long
    cells of one experiment overlap the many short cells of another.
    """
    keys = (
        experiment_ids()
        if experiments is None
        else [e.upper() for e in experiments]
    )
    plan: list[Cell] = []
    for key in keys:
        plan.extend(cells_for(key, full))
    payloads = run_cells(plan, jobs, use_cache, stats, full=full)
    results: dict[str, ExperimentResult] = {}
    for key in keys:
        per_key = {
            cell_key: payload
            for (exp, cell_key), payload in payloads.items()
            if exp == key
        }
        results[key] = runner_module(key).assemble(full, per_key)
    return results
