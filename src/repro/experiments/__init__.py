"""Experiment runners: one per table/figure of the paper's evaluation.

Each runner module is a cell plan: ``cells(full)`` lists independent
measurements as ``(key, function name, params)`` tuples, and
``assemble(full, payloads)`` folds their payloads into an
:class:`ExperimentResult`.  ``full=True`` uses the paper's exact sweep
sizes (all of n = 1..11, 10 000-file corpora), ``full=False`` a
sparse-but-representative subset for quick iteration.  The registry maps
experiment ids to runner modules, and every run — :func:`run_experiment`,
the CLI, the benchmark harness — executes the plan through
:func:`repro.jobs.run_cells`.
"""

from __future__ import annotations

import importlib
import types

from repro.errors import ReproError
from repro.experiments.common import ExperimentResult, build_testbed
from repro.jobs import SweepStats

_RUNNERS: dict[str, tuple[str, str]] = {
    "FIG2": ("repro.experiments.fig2_schedule", "rejuvenation timing (Fig. 2)"),
    "FIG4": ("repro.experiments.fig4_memsize", "task time vs memory size (Fig. 4)"),
    "FIG5": ("repro.experiments.fig5_numvms", "task time vs VM count (Fig. 5)"),
    "SEC52": ("repro.experiments.sec52_quick_reload", "quick reload (§5.2)"),
    "FIG6": ("repro.experiments.fig6_downtime", "service downtime (Fig. 6)"),
    "SEC53": ("repro.experiments.sec53_availability", "availability (§5.3)"),
    "FIG7": ("repro.experiments.fig7_breakdown", "downtime breakdown (Fig. 7)"),
    "FIG8": ("repro.experiments.fig8_degradation", "cache-loss degradation (Fig. 8)"),
    "SEC56": ("repro.experiments.sec56_model_fit", "downtime model fit (§5.6)"),
    "FIG9": ("repro.experiments.fig9_cluster", "cluster throughput (Fig. 9)"),
    "EXT-PROACTIVE": (
        "repro.experiments.ext_proactive",
        "proactive vs reactive rejuvenation (extension)",
    ),
    "EXT-GRANULARITY": (
        "repro.experiments.ext_granularity",
        "the rejuvenation-granularity hierarchy (extension)",
    ),
    "EXT-AUTONOMIC": (
        "repro.experiments.ext_autonomic",
        "fixed schedule vs autonomic consolidation (extension)",
    ),
}


def experiment_ids() -> list[str]:
    """All known experiment ids, in paper order."""
    return list(_RUNNERS)


def describe(experiment_id: str) -> str:
    """One-line description of an experiment id."""
    try:
        return _RUNNERS[experiment_id.upper()][1]
    except KeyError:
        raise ReproError(f"unknown experiment {experiment_id!r}") from None


_MODULES: dict[str, types.ModuleType] = {}
"""Resolved runner modules, keyed by experiment id.  ``importlib`` walks
``sys.modules`` and the meta path on every call; resolving each runner
once matters when the parallel runner dispatches thousands of cells."""


def runner_module(experiment_id: str) -> types.ModuleType:
    """The (cached) runner module for an experiment id."""
    key = experiment_id.upper()
    module = _MODULES.get(key)
    if module is None:
        if key not in _RUNNERS:
            raise ReproError(
                f"unknown experiment {experiment_id!r}; known: {', '.join(_RUNNERS)}"
            )
        module = importlib.import_module(_RUNNERS[key][0])
        _MODULES[key] = module
    return module


def run_experiment(
    experiment_id: str,
    full: bool = False,
    jobs: int | None = 1,
    use_cache: bool = False,
    stats: SweepStats | None = None,
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"FIG6"``) through the cell runner.

    By default its cells run in this process, in plan order, with no
    cache; ``jobs`` fans them across worker processes (``None``: one per
    CPU) and ``use_cache`` replays and stores payloads in the result
    cache, exactly as :func:`~repro.experiments.parallel.run_all_parallel`
    does for a whole sweep.
    """
    from repro.experiments.parallel import run_all_parallel

    key = experiment_id.upper()
    results = run_all_parallel(
        full=full, jobs=jobs, use_cache=use_cache, experiments=[key], stats=stats
    )
    return results[key]


__all__ = [
    "ExperimentResult",
    "build_testbed",
    "describe",
    "experiment_ids",
    "run_experiment",
]
