"""The end-to-end benchmark's contract with ``src/``.

``perfbench/`` (declared in BENCHMARK.json) is frozen: a change may not
edit it, so whatever it calls in ``repro`` has to keep working.  These
checks fail in the tier-1 suite, before a benchmark run would: every
entry point the traced run wraps must resolve (and unwrap again), and
the scenario rebuild it measures live memory with must accept the
``spec``/``profile``/``backend``/``metrics`` keywords and find them as
``ScenarioBuilder`` attributes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from repro.scenario.builder import ScenarioBuilder
from repro.scenario.spec import ScenarioSpec

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    # By path, so perfbench/'s flat module names stay off sys.path.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _raw(module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, attr)


def test_every_entry_point_resolves_and_unwraps():
    points = [(module, qualname) for module, qualname, _ in tracing.ENTRY_POINTS]
    before = {point: _raw(*point) for point in points}
    restore = tracing.install_entry_points(
        tracing.SpanLog("contract"), tracing.LargestBuild()
    )
    try:
        wrapped = [point for point in points if _raw(*point) is not before[point]]
    finally:
        restore()
    assert wrapped == points
    assert {point: _raw(*point) for point in points} == before


def test_live_memory_rebuilds_a_scenario_builder():
    builder = ScenarioBuilder(ScenarioSpec.from_dict({"name": "contract"}))
    layers = tracing.LayerMap(ROOT / "src", ROOT / "perfbench")
    assert tracing.live_memory_mb(builder, layers) > 0.0
