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
import tomllib
import typing

from repro.errors import ScenarioError
from repro.obs.slo import SLOSpec
from repro.scenario.spec import (
    STRATEGIES,
    FaultSpec,
    HostSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
    _as_dict,
    _check_keys,
    _construct,
    _number,
    _require,
    _sub_tables,
)

HOST_TEMPLATE = "host{i}"
"""Default host name template; ``{i}`` is the global host index, so a
host keeps its name (and therefore its RNG streams) in every sharding."""


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """A sharded rolling-rejuvenation fleet run."""

    name: str
    description: str = ""
    hosts: tuple[HostSpec, ...] = ()
    shards: int = 4
    profile: str = "paper"
    seed: int = 0
    workloads: tuple[WorkloadSpec, ...] = ()
    faults: FaultSpec | None = None
    policy: PolicySpec | None = None
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
        _require(bool(self.name), "name", "must be a non-empty string")
        _require(
            isinstance(self.telemetry, bool),
            "telemetry",
            f"must be a boolean, got {type(self.telemetry).__name__}",
        )
        _require(len(self.hosts) >= 1, "hosts", "need at least one host entry")
        _require(self.shards >= 1, "shards", f"must be >= 1, got {self.shards}")
        _require(
            self.strategy in STRATEGIES,
            "strategy",
            f"must be one of {', '.join(STRATEGIES)}, got {self.strategy!r}",
        )
        _require(
            self.hosts_per_epoch >= 1,
            "hosts_per_epoch",
            f"must be >= 1, got {self.hosts_per_epoch}",
        )
        _require(
            self.epoch_s > 0, "epoch_s", f"must be positive, got {self.epoch_s}"
        )
        _require(
            self.warmup_s > 0,
            "warmup_s",
            f"must be positive (it must cover shard bring-up), "
            f"got {self.warmup_s}",
        )
        _require(
            self.observe_s > 0,
            "observe_s",
            f"must be positive, got {self.observe_s}",
        )
        span = self.epochs * self.epoch_s
        _require(
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
        expanded: list[HostSpec] = []
        index = 0
        for host in self.hosts:
            template = host.name if host.name is not None else HOST_TEMPLATE
            if host.count > 1 and "{i" not in template:
                raise ScenarioError(
                    f"host name {template!r} has no '{{i}}' placeholder "
                    f"but count is {host.count}; the copies would collide"
                )
            for _ in range(host.count):
                expanded.append(
                    dataclasses.replace(
                        host, name=template.format(i=index), count=1
                    )
                )
                index += 1
        return expanded

    def schedule(self) -> dict[str, float]:
        """Absolute reboot start per host name (the epoch protocol)."""
        return {
            host.name: self.warmup_s
            + (index // self.hosts_per_epoch) * self.epoch_s
            for index, host in enumerate(self.expanded_hosts())
        }

    def shard_plans(self) -> list[dict]:
        """One plain-dict execution plan per shard (cell parameters).

        Hosts are partitioned contiguously and as evenly as possible;
        a host is never split across shards, so everything that couples
        clients — the shared machine pools under one host's VMs — stays
        shard-local.
        """
        expanded = self.expanded_hosts()
        schedule = self.schedule()
        shards = min(self.shards, len(expanded))
        base, extra = divmod(len(expanded), shards)
        plans: list[dict] = []
        cursor = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            chunk = expanded[cursor:cursor + size]
            cursor += size
            scenario = ScenarioSpec(
                name=f"{self.name}/shard{index}",
                hosts=tuple(chunk),
                force_cluster=True,
                profile=self.profile,
                seed=self.seed,
                workloads=self.workloads,
                faults=self.faults,
                policy=self.policy,
            )
            plans.append(
                {
                    "fleet": self.name,
                    "shard": index,
                    "spec_data": scenario.to_dict(),
                    "schedule": {
                        host.name: schedule[host.name] for host in chunk
                    },
                    "strategy": self.strategy,
                    "epoch_s": self.epoch_s,
                    "warmup_s": self.warmup_s,
                    "observe_s": self.observe_s,
                    "telemetry": self.telemetry_enabled,
                }
            )
        return plans

    # -- (de)serialization -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, where: str = "fleet") -> "FleetSpec":
        _check_keys(data, _FLEET_FIELDS, where)
        for key in ("shards", "seed", "hosts_per_epoch", "epoch_s",
                    "warmup_s", "observe_s"):
            _number(data, key, where)
        kwargs = dict(data)
        if "hosts" in kwargs:
            kwargs["hosts"] = tuple(
                HostSpec.from_dict(host, f"{where}.hosts[{i}]")
                for i, host in enumerate(
                    _sub_tables(kwargs["hosts"], f"{where}.hosts")
                )
            )
        if "workloads" in kwargs:
            kwargs["workloads"] = tuple(
                WorkloadSpec.from_dict(w, f"{where}.workloads[{i}]")
                for i, w in enumerate(
                    _sub_tables(kwargs["workloads"], f"{where}.workloads")
                )
            )
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultSpec.from_dict(
                kwargs["faults"], f"{where}.faults"
            )
        if kwargs.get("policy") is not None:
            kwargs["policy"] = PolicySpec.from_dict(
                kwargs["policy"], f"{where}.policy"
            )
        if kwargs.get("slo") is not None:
            kwargs["slo"] = SLOSpec.from_dict(kwargs["slo"], f"{where}.slo")
        return _construct(cls, kwargs, where)

    def to_dict(self) -> dict:
        out = _as_dict(self)
        out["hosts"] = [host.to_dict() for host in self.hosts]
        out["workloads"] = [w.to_dict() for w in self.workloads]
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.policy is not None:
            out["policy"] = self.policy.to_dict()
        if self.slo is not None:
            out["slo"] = self.slo.to_dict()
        return out


_FLEET_FIELDS = frozenset(f.name for f in dataclasses.fields(FleetSpec))


def load_fleet_toml(path: str) -> FleetSpec:
    """Load and validate a fleet spec from a TOML file."""
    try:
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    except FileNotFoundError:
        raise ScenarioError(f"{path}: no such fleet spec file") from None
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"{path}: invalid TOML: {exc}") from None
    return FleetSpec.from_dict(data, where=path)
