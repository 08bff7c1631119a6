"""simlint — determinism, architecture & simulation-safety analysis.

The whole reproduction rests on one invariant: a fixed seed reproduces
every experiment row bit-identically, because equal-timestamp events are
ordered by ``(priority, sequence)`` and all randomness flows through named
:class:`~repro.simkernel.rng.RandomStreams`.  Nothing in Python enforces
that — a single ``time.time()``, an unseeded ``random.random()``, a
``for`` over a ``set``, or a raw ``heapq.heappush`` onto the simulator's
heap silently breaks repeatability.  simlint is the codebase-specific net,
run in two phases: per-file local rules, then cross-module rules over a
whole-program index (symbol table, import DAG, call graph).

Local rules (phase 1):

======  ==============================================================
SL001   wall-clock call in simulation code (``time.time``,
        ``datetime.now``, ``perf_counter``, ...); driver modules may
        use monotonic clocks for elapsed-time display
SL002   randomness outside :mod:`repro.simkernel.rng` (module-level
        ``random`` functions, ``numpy.random``, unseeded generators)
SL003   iteration over a ``set`` or an ``id()``-keyed dict
        (nondeterministic order under hash randomization)
SL004   direct ``heapq``/list operation on scheduler-backend storage
        (``_heap``/``_run``/``_far``) outside ``simkernel/kernel.py``,
        ``events.py``, ``backends.py`` or the scheduler's test oracle
        ``tests/simkernel/heap_oracle.py`` (bypasses the sequence
        tiebreaker that pins same-instant ordering)
SL005   bare ``assert`` in library code (vanishes under ``python -O``)
SL006   ``record()`` payload keys that do not match the typed columns
        declared in :data:`repro.simkernel.tracing.TRACE_SCHEMA`
SL007   ad-hoc stack construction in an experiment module (bypasses
        the declarative scenario layer the bit-identical-rows
        contract is pinned to)
SL008   observability naming: span names outside
        :data:`repro.simkernel.spans.SPAN_NAMES`, metric names or
        kinds not matching
        :data:`repro.simkernel.metrics.METRIC_SCHEMA`, or
        hand-written ``span.*`` trace records outside
        ``simkernel/spans.py`` (unbalanced begin/end)
SL016   module-level import whose name nothing in the module reads
        (loads and whole words in string constants count as reads;
        package ``__init__.py`` re-exports are exempt)
======  ==============================================================

Cross-module rules (phase 2, over the project index):

======  ==============================================================
SL009   scheduler-backend internals accessed outside
        ``repro/simkernel/`` — the privacy rule
        (:func:`~repro.devtools.simlint.rules.privacy_code`) with the
        historical code kept for this boundary
SL010   fleet/shard internals accessed outside ``repro/fleet/`` —
        same rule, same historical code
SL011   import that violates the declared layer map
        (:data:`~repro.devtools.simlint.layers.DEFAULT_LAYER_MAP`),
        an unmapped ``repro`` subpackage, or a module-level import
        cycle; ``TYPE_CHECKING`` and function-level lazy imports are
        exempt (counted by ``--stats``)
SL012   frozen spec dataclass mutated outside ``__post_init__``
        (direct assignment or an ``object.__setattr__`` escape)
SL013   wall-clock/unseeded-RNG sink reachable on the call graph from
        ``Simulator.run`` or a spawned process coroutine; the finding
        carries the full call chain
SL014   cross-package private-attribute access on a symbol-table-
        resolved receiver (the general form of SL009/SL010)
SL015   stale ``# simlint: skip`` suppression that masks no finding
        (cannot itself be suppressed)
======  ==============================================================

Run it as ``python -m repro.devtools.simlint src/`` (``--format=json`` or
``--format=sarif`` for machine-readable output, ``--stats`` for the
suppression-debt report).  Suppress a finding with a trailing
``# simlint: skip`` or ``# simlint: skip=SL003`` comment on the flagged
line, or a ``# simlint: skip-file[=RULES]`` comment anywhere in the
file; CI treats suppressions in ``src/`` as a review flag, not a free
pass, and ``--stats`` totals them as suppression debt.
"""

from repro.devtools.simlint.analyzer import (
    Finding,
    LintError,
    Report,
    lint_file,
    lint_paths,
    lint_project,
)
from repro.devtools.simlint.cli import main
from repro.devtools.simlint.rules import RULES

__all__ = [
    "Finding",
    "LintError",
    "RULES",
    "Report",
    "lint_file",
    "lint_paths",
    "lint_project",
    "main",
]
