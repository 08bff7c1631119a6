"""Property tests for spec parsing.

Every dict handed to a spec loader either loads or raises
:class:`~repro.errors.ScenarioError`; no ``TypeError``, ``KeyError`` or
other exception escapes, now or later.  An accepted spec round-trips
through its dict form, a scenario's names expand, and a fleet's shard
plans load as scenario specs.  The dicts start from valid specs (the
registered scenarios, the fleet tests' fleet with ``[policy]`` and
``[slo]`` added) and get keys overwritten or added at any depth.
Integers stay small so that host and VM counts stay cheap to expand.
"""

from __future__ import annotations

import copy
import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import Table
from repro.control import ControlConfig
from repro.errors import ScenarioError
from repro.fleet import FleetSpec
from repro.obs.slo import SLOSpec
from repro.scenario import ScenarioBuilder, ScenarioSpec, build_scenario, registry
from tests.fleet.test_fleet import _fleet

_SLO = SLOSpec(availability=0.9, downtime_budget_s=60.0).to_dict()

SCENARIO_BASES = [registry.get(name).to_dict() for name in registry.names()]
SCENARIO_BASES.append({**registry.get("probed-warm-reboot").to_dict(), "slo": _SLO})
FLEET_BASE = {
    **_fleet().to_dict(),
    "policy": ControlConfig(strategy="first-fit-decreasing").to_dict(),
    "slo": _SLO,
}

KEYS = sorted(
    {field.name for cls in Table.__subclasses__() for field in dataclasses.fields(cls)}
    | {"frobnicate"}
)
"""Every field name of every spec table, plus one no table has."""

TEMPLATES = st.sampled_from(
    [
        "{i}", "web{i:02d}", "{host}-{i}", "{host}", "fixed", "", "{j}", "{0}",
        "{}", "{", "}", "{{i}}", "{i!r}", "{i!x}", "{i[0]}", "{host.upper}",
        "{i:{j}}", "{i:s}",
    ]
)
NUMBERS = st.integers(min_value=-2, max_value=6) | st.floats()
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=6), TEMPLATES)
TABLES = st.dictionaries(st.sampled_from(KEYS), SCALARS, max_size=3)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    TABLES,
    st.lists(TABLES, max_size=2),
)


def _tables(data: dict):
    """Every table in a spec dict, the root first."""
    yield data
    for value in data.values():
        items = value if isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, dict):
                yield from _tables(item)


def _like(value) -> st.SearchStrategy:
    """Values of ``value``'s kind, so that mutations reach past the type
    checks into range checks and name expansion (and a count of 1.5)."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, (int, float)):
        return NUMBERS
    if isinstance(value, str):
        return st.text(max_size=6) | TEMPLATES
    return VALUES


def _mutated(data, base: dict) -> dict:
    """``base`` with one to three keys overwritten or added.  Three keys in
    four are the table's own, and three values in four keep the old
    value's kind; the rest are drawn from anything."""
    spec = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        table = data.draw(st.sampled_from(list(_tables(spec))))
        own_key = bool(table) and data.draw(st.integers(min_value=0, max_value=3)) > 0
        key = data.draw(st.sampled_from(sorted(table) if own_key else KEYS))
        typed = data.draw(st.integers(min_value=0, max_value=3)) > 0
        table[key] = data.draw(_like(table.get(key)) if typed else VALUES)
    return spec


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scenario_dicts_load_or_raise_scenario_error(data):
    spec_data = _mutated(data, data.draw(st.sampled_from(SCENARIO_BASES)))
    try:
        spec = ScenarioSpec.from_dict(spec_data)
    except ScenarioError:
        return
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert len(ScenarioBuilder(spec)._layout()) == spec.host_count


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fleet_dicts_load_or_raise_scenario_error(data):
    spec_data = _mutated(data, FLEET_BASE)
    try:
        spec = FleetSpec.from_dict(spec_data)
    except ScenarioError:
        return
    assert FleetSpec.from_dict(spec.to_dict()) == spec
    for plan in spec.shard_plans():
        assert ScenarioSpec.from_dict(plan["spec_data"]).policy == spec.policy


# -- well-typed specs inside the small profile's envelope build ------------------------

_VMS = st.fixed_dictionaries(
    {
        "memory_gib": st.sampled_from([0.25, 0.5]),
        "services": st.sampled_from([["apache"], ["ssh", "apache"]]),
    },
    optional={
        "name": st.sampled_from(["app{i}", "{host}-web{i:02d}"]),
        "count": st.integers(min_value=1, max_value=2),
        "vcpus": st.integers(min_value=1, max_value=2),
    },
)
_HOSTS = st.fixed_dictionaries(
    {"vms": st.lists(_VMS, min_size=1, max_size=2)},
    optional={
        "name": st.just("node{i}"),
        "count": st.integers(min_value=1, max_value=2),
    },
)
_WORKLOADS = st.sampled_from(
    [
        {"kind": "prober", "service": "apache", "interval_s": 1.0},
        {"kind": "httperf", "files": 2, "file_kib": 64.0, "concurrency": 1},
        {"kind": "httperf", "mode": "fluid", "sessions": 2, "files": 2,
         "file_kib": 64.0},
    ]
)
_SMALL_SPECS = st.fixed_dictionaries(
    {
        "name": st.just("small"),
        "profile": st.just("small"),
        "hosts": st.lists(_HOSTS, min_size=1, max_size=2),
        "workloads": st.lists(_WORKLOADS, min_size=1, max_size=2, unique_by=str),
    },
    optional={
        "seed": st.integers(min_value=0, max_value=2**32),
        "spare": st.booleans(),
        "force_cluster": st.booleans(),
        "faults": st.sampled_from([{"preset": "paper-bugs"}, {}]),
        "policy": st.sampled_from([{}, {"strategy": "first-fit-decreasing"}]),
        "slo": st.just(_SLO),
    },
)


@settings(max_examples=30, deadline=None)
@given(spec_data=_SMALL_SPECS)
def test_small_specs_build(spec_data):
    try:
        spec = ScenarioSpec.from_dict(spec_data)
    except ScenarioError as exc:  # "app{i}" on two hosts: one name twice
        assert "given twice" in str(exc)
        return
    built = build_scenario(spec)
    names = [name for name, _ in ScenarioBuilder(spec)._layout()]
    assert [host.name for host in built.hosts] == names
    built.stop_workloads()
