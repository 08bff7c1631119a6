"""The fleet tier: sharded multi-process rolling-rejuvenation runs.

Scales the cluster layer from "a cluster" to "a datacenter": a
:class:`~repro.fleet.spec.FleetSpec` partitions its hosts into shards,
each shard is one :class:`~repro.scenario.builder.ScenarioBuilder` stack
in its own worker process, and an
absolute-time epoch schedule keeps rolling rejuvenation deterministic
across shards with no cross-process messaging.  Pair with fluid
workloads (``WorkloadSpec.mode = "fluid"``) to carry millions of
concurrent sessions; see DESIGN.md "Fleet tier & fluid workloads".
"""

from repro.fleet.runner import FleetReport, fleet_cells, merge_shards, run_fleet
from repro.fleet.shard import run_fleet_shard
from repro.fleet.spec import FleetSpec, load_fleet_toml

__all__ = [
    "FleetReport",
    "FleetSpec",
    "fleet_cells",
    "load_fleet_toml",
    "merge_shards",
    "run_fleet",
    "run_fleet_shard",
]
