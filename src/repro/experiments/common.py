"""Shared experiment infrastructure: testbed builders and result records.

Every experiment runner returns an :class:`ExperimentResult` carrying
paper-vs-measured :class:`~repro.analysis.report.ComparisonRow` entries
plus rendered tables, so the CLI, the benchmark harness and EXPERIMENTS.md
all show the same artifact.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.report import (
    ComparisonRow,
    all_within_tolerance,
    render_comparison,
)
from repro.config import TimingProfile
from repro.core import RootHammer
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.spec import HostSpec, ScenarioSpec, VMSpec
from repro.units import GiB


@dataclasses.dataclass
class ExperimentResult:
    """The outcome of one table/figure reproduction."""

    experiment_id: str
    title: str
    rows: list[ComparisonRow] = dataclasses.field(default_factory=list)
    tables: list[str] = dataclasses.field(default_factory=list)
    data: dict[str, typing.Any] = dataclasses.field(default_factory=dict)

    @property
    def shape_reproduced(self) -> bool:
        return all_within_tolerance(self.rows)

    def render(self) -> str:
        """The comparison block plus any extra tables, as text."""
        parts = [render_comparison(f"{self.experiment_id}: {self.title}", self.rows)]
        parts.extend(self.tables)
        return "\n\n".join(parts)


def build_testbed(
    n_vms: int,
    services: tuple[str, ...] = ("ssh",),
    memory_bytes: int = 1 * GiB,
    profile: TimingProfile | None = None,
    seed: int = 0,
) -> RootHammer:
    """The paper's server machine with ``n_vms`` identical VMs, started.

    A thin shim over the declarative scenario layer: the keyword surface
    the experiment modules use, expressed as a :class:`ScenarioSpec` and
    materialized by the one stack-construction path.  ``memory_bytes``
    round-trips through the spec's GiB field exactly (division and
    multiplication by a power of two are both lossless in binary floats).
    """
    fleet = (
        (VMSpec(count=n_vms, memory_gib=memory_bytes / GiB, services=services),)
        if n_vms
        else ()
    )
    spec = ScenarioSpec(
        name="testbed",
        hosts=(HostSpec(vms=fleet),),
        seed=seed,
    )
    built = ScenarioBuilder(spec, profile=profile).build()
    return built.controller


def default_vm_counts(full: bool) -> list[int]:
    """The n-axis of Figures 5 and 6: 1..11 (or a sparse subset)."""
    return list(range(1, 12)) if full else [1, 3, 7, 11]


def default_memory_gib(full: bool) -> list[int]:
    """The memory axis of Figure 4: 1..11 GiB (or a sparse subset)."""
    return list(range(1, 12)) if full else [1, 5, 11]
