"""Declarative fleet specifications: many hosts, few processes.

A :class:`FleetSpec` describes a datacenter-scale rolling-rejuvenation
run: a host fleet (reusing the scenario layer's :class:`HostSpec`), the
workloads attached to every VM, a rejuvenation **epoch schedule**, and a
shard count.  :meth:`FleetSpec.shard_plans` partitions the expanded
hosts into contiguous shards and emits, per shard, a plain-dict plan —
a :class:`~repro.scenario.spec.ScenarioSpec` (``force_cluster`` so even
a one-host shard builds with cluster naming and RNG streams) plus the
absolute-time reboot schedule for its hosts — which
:func:`repro.fleet.shard.run_fleet_shard` executes in a worker process.

The epoch protocol is the shards' only coordination, and it needs no
messages: every reboot start is a function of the *global* host index
(``warmup_s + (index // hosts_per_epoch) * epoch_s``), every RNG stream
derives from the host's *name*, and fluid workload ticks land on the
absolute grid — so a host behaves identically whichever shard (or a
serial single simulation) hosts it, and shard payloads merge into one
deterministic fleet report.
"""

from __future__ import annotations

import dataclasses
import math

from repro.config import Table, require, require_one_of
from repro.control.actions import REBOOT_KINDS
from repro.control.loop import ControlConfig
from repro.obs.slo import SLOSpec
from repro.scenario.spec import (
    PROFILES,
    FaultSpec,
    HostSpec,
    ScenarioSpec,
    WorkloadSpec,
    check_workloads,
    expand_hosts,
    layout,
)


@dataclasses.dataclass(frozen=True)
class FleetSpec(Table):
    """A sharded rolling-rejuvenation fleet run.

    Workloads attach by service to every VM that runs it, and each shard
    gets the workloads some VM in it runs; a workload pinned to one VM
    (``vm``) is rejected, because that VM lives in one shard only, and so
    is one whose service no VM runs.
    """

    TABLE = "fleet"
    name: str
    description: str = ""
    hosts: tuple[HostSpec, ...] = ()
    shards: int = 4
    profile: str = "paper"
    seed: int = 0
    workloads: tuple[WorkloadSpec, ...] = ()
    faults: FaultSpec | None = None
    policy: ControlConfig | None = None
    strategy: str = "warm"
    hosts_per_epoch: int = 1
    epoch_s: float = 60.0
    warmup_s: float = 60.0
    observe_s: float = 600.0
    telemetry: bool = False
    """Collect per-shard telemetry blobs (spans, metric series, control
    audit) and merge them into the report's
    :class:`~repro.obs.bundle.TelemetryBundle`; implied by ``slo``."""
    slo: SLOSpec | None = None
    """Service-level objectives (the ``[slo]`` TOML table), evaluated
    over the observation window from the merged telemetry."""

    def __post_init__(self) -> None:
        require(bool(self.name), "name", "must be a non-empty string")
        require(len(self.hosts) >= 1, "hosts", "need at least one host entry")
        require(self.shards >= 1, "shards", f"must be >= 1, got {self.shards}")
        named = layout(self.hosts, cluster=True)  # no host or VM name given twice
        require_one_of(self.profile, PROFILES, "profile")
        for index, workload in enumerate(self.workloads):
            require(
                workload.vm is None,
                f"workloads[{index}].vm",
                "a fleet attaches each workload to every VM running its "
                f"service; a single VM lives in one shard, got {workload.vm!r}",
            )
        check_workloads(self.workloads, named)
        require_one_of(self.strategy, REBOOT_KINDS, "strategy")
        require(
            self.hosts_per_epoch >= 1,
            "hosts_per_epoch",
            f"must be >= 1, got {self.hosts_per_epoch}",
        )
        require(
            self.epoch_s > 0, "epoch_s", f"must be positive, got {self.epoch_s}"
        )
        require(
            self.warmup_s > 0,
            "warmup_s",
            f"must be positive (it must cover shard bring-up), "
            f"got {self.warmup_s}",
        )
        require(
            self.observe_s > 0,
            "observe_s",
            f"must be positive, got {self.observe_s}",
        )
        span = self.epochs * self.epoch_s
        require(
            self.observe_s >= span,
            "observe_s",
            f"must cover the epoch schedule ({self.epochs} epoch(s) x "
            f"{self.epoch_s}s = {span}s), got {self.observe_s}",
        )

    # -- derived geometry --------------------------------------------------------

    @property
    def host_count(self) -> int:
        return sum(host.count for host in self.hosts)

    @property
    def epochs(self) -> int:
        return math.ceil(self.host_count / self.hosts_per_epoch)

    @property
    def horizon_s(self) -> float:
        """Absolute end of the observation window."""
        return self.warmup_s + self.observe_s

    @property
    def telemetry_enabled(self) -> bool:
        """Whether shards collect telemetry blobs (``slo`` implies it)."""
        return self.telemetry or self.slo is not None

    @property
    def sessions(self) -> int:
        """Total concurrent fluid sessions across all workloads and VMs."""
        total = 0
        for workload in self.workloads:
            if workload.kind != "httperf" or workload.mode != "fluid":
                continue
            targets = sum(
                host.count * vm.count
                for host in self.hosts
                for vm in host.vms
                if workload.service in vm.services
            )
            total += workload.sessions * targets
        return total

    def expanded_hosts(self) -> list[HostSpec]:
        """Per-host singleton specs with explicit, shard-invariant names."""
        return expand_hosts(self.hosts)

    def schedule(self) -> dict[str, float]:
        """Absolute reboot start per host name (the epoch protocol)."""
        return {
            host.name: self._start_s(index)
            for index, host in enumerate(self.expanded_hosts())
        }

    def _start_s(self, index: int) -> float:
        """The reboot start of the host at global ``index``."""
        return self.warmup_s + (index // self.hosts_per_epoch) * self.epoch_s

    def shard_plans(self) -> list[dict]:
        """One plain-dict execution plan per shard (cell parameters).

        Hosts are partitioned contiguously and as evenly as possible;
        a host is never split across shards, so everything that couples
        clients — the shared machine pools under one host's VMs — stays
        shard-local.  A shard gets the workloads some VM in it runs.
        """
        expanded = self.expanded_hosts()
        shards = min(self.shards, len(expanded))
        base, extra = divmod(len(expanded), shards)
        plans: list[dict] = []
        cursor = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            chunk = expanded[cursor:cursor + size]
            services = {s for host in chunk for vm in host.vms for s in vm.services}
            scenario = ScenarioSpec(
                name=f"{self.name}/shard{index}",
                hosts=tuple(chunk),
                force_cluster=True,
                profile=self.profile,
                seed=self.seed,
                workloads=tuple(
                    w for w in self.workloads if w.service in services
                ),
                faults=self.faults,
                policy=self.policy,
            )
            plans.append(
                {
                    "fleet": self.name,
                    "shard": index,
                    "spec_data": scenario.to_dict(),
                    "schedule": {
                        host.name: self._start_s(cursor + offset)
                        for offset, host in enumerate(chunk)
                    },
                    "strategy": self.strategy,
                    "epoch_s": self.epoch_s,
                    "warmup_s": self.warmup_s,
                    "observe_s": self.observe_s,
                    "telemetry": self.telemetry_enabled,
                }
            )
            cursor += size
        return plans


def load_fleet_toml(path: str) -> FleetSpec:
    """Load and validate a fleet spec from a TOML file."""
    return FleetSpec.load_toml(path)
