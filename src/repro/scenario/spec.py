"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, inert description of one simulated
setup: the host fleet (:class:`HostSpec` / :class:`VMSpec`), the attached
workloads (:class:`WorkloadSpec`), injected aging (:class:`FaultSpec`) and
the maintenance schedule (:class:`MaintenanceSpec`).  Specs are plain
frozen dataclasses, loadable from dicts (:meth:`ScenarioSpec.from_dict`)
and TOML files (:func:`load_toml`), and every stack in the repository —
the experiment testbeds, the cluster runs, the ``scenario run`` CLI — is
materialized from one by :class:`~repro.scenario.builder.ScenarioBuilder`.

Validation is strict and early: unknown keys, wrong types and out-of-range
values raise :class:`~repro.errors.ScenarioError` with a dotted path to
the offending field (``hosts[0].vms[1].memory_gib``), so a typo in a TOML
file fails at load time, not three simulated minutes into a run.
"""

from __future__ import annotations

import dataclasses
import tomllib
import typing

from repro.config import AgingFaults
from repro.errors import ScenarioError
from repro.obs.slo import SLOSpec
from repro.units import GiB, KiB

STRATEGIES = ("warm", "cold", "saved", "dom0-only")
"""VMM reboot strategies a maintenance spec may name."""

MAINTENANCE_KINDS = ("reboot", "rolling", "migration", "periodic")
WORKLOAD_KINDS = ("httperf", "fileread", "prober")
WORKLOAD_MODES = ("exact", "fluid")
"""``exact`` simulates every request; ``fluid`` advances session counts
at aggregation ticks (see :class:`repro.workloads.httperf.FluidHttperf`)."""
PROFILES = ("paper", "small")
FAULT_PRESETS = ("healthy", "paper-bugs")
POLICY_STRATEGIES = (
    "fleet-order",
    "first-fit-decreasing",
    "consolidation",
    "aging-aware",
)
"""Placement strategies a policy spec may name (the built-in entries of
:data:`repro.control.planner.STRATEGY_REGISTRY`)."""
POLICY_REJUVENATE = ("warm", "cold")


def _type_name(value: typing.Any) -> str:
    return type(value).__name__


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ScenarioError(f"{where}: {message}")


def _check_keys(
    data: typing.Mapping[str, typing.Any],
    fields: typing.Collection[str],
    where: str,
) -> None:
    _require(
        isinstance(data, dict), where, f"expected a table, got {_type_name(data)}"
    )
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(fields))}"
        )


def _number(data: dict, key: str, where: str) -> None:
    value = data.get(key)
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, (int, float))
    ):
        raise ScenarioError(
            f"{where}.{key}: expected a number, got {_type_name(value)}"
        )


def _string_tuple(value: typing.Any, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    _require(
        isinstance(value, (list, tuple)),
        where,
        f"expected a string or list of strings, got {_type_name(value)}",
    )
    for item in value:
        _require(
            isinstance(item, str), where, f"expected strings, got {_type_name(item)}"
        )
    return tuple(value)


def _sub_tables(value: typing.Any, where: str) -> list[dict]:
    _require(
        isinstance(value, (list, tuple)),
        where,
        f"expected an array of tables, got {_type_name(value)}",
    )
    return list(value)


def _construct(cls: type, kwargs: dict, where: str):
    """Instantiate ``cls`` rewriting validation errors with path context.

    ``__post_init__`` raises with a local field path ("vm.count: ...");
    re-anchor it under ``where`` so nested specs report the full dotted
    path into the loaded document.
    """
    try:
        return cls(**kwargs)
    except ScenarioError as exc:
        local = str(exc)
        field = local.split(":", 1)[0].rsplit(".", 1)[-1]
        rest = local.split(":", 1)[1] if ":" in local else local
        raise ScenarioError(f"{where}.{field}:{rest}") from None
    except TypeError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class VMSpec:
    """One kind of VM in a host's fleet (``count`` identical instances).

    ``name`` is a template: ``{i}`` expands to the VM's index within its
    host (``{i:02d}`` etc. work).  ``None`` picks the topology default —
    ``vm{i:02d}`` on a standalone host, ``{host}-vm{i}`` in a cluster —
    which is exactly what the paper experiments name their VMs.
    """

    name: str | None = None
    count: int = 1
    memory_gib: float = 1.0
    services: tuple[str, ...] = ("ssh",)
    vcpus: int = 1
    driver_domain: bool = False
    cpu_weight: int = 256
    cpu_cap_cores: float | None = None

    def __post_init__(self) -> None:
        _require(self.count >= 1, "vm.count", f"must be >= 1, got {self.count}")
        _require(
            self.cpu_weight >= 1,
            "vm.cpu_weight",
            f"must be >= 1, got {self.cpu_weight}",
        )
        _require(
            self.memory_gib > 0,
            "vm.memory_gib",
            f"must be positive, got {self.memory_gib}",
        )
        _require(self.vcpus >= 1, "vm.vcpus", f"must be >= 1, got {self.vcpus}")

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gib * GiB)

    @classmethod
    def from_dict(cls, data: dict, where: str = "vm") -> "VMSpec":
        _check_keys(data, _FIELDS[cls], where)
        for key in ("count", "memory_gib", "vcpus", "cpu_weight", "cpu_cap_cores"):
            _number(data, key, where)
        kwargs = dict(data)
        if "services" in kwargs:
            kwargs["services"] = _string_tuple(
                kwargs["services"], f"{where}.services"
            )
        return _construct(cls, kwargs, where)

    def to_dict(self) -> dict:
        return _as_dict(self)


@dataclasses.dataclass(frozen=True)
class HostSpec:
    """``count`` identical hosts, each running the same VM fleet."""

    name: str | None = None
    count: int = 1
    vms: tuple[VMSpec, ...] = ()

    def __post_init__(self) -> None:
        _require(self.count >= 1, "host.count", f"must be >= 1, got {self.count}")

    @classmethod
    def from_dict(cls, data: dict, where: str = "host") -> "HostSpec":
        _check_keys(data, _FIELDS[cls], where)
        _number(data, "count", where)
        kwargs = dict(data)
        if "vms" in kwargs:
            kwargs["vms"] = tuple(
                VMSpec.from_dict(vm, f"{where}.vms[{i}]")
                for i, vm in enumerate(_sub_tables(kwargs["vms"], f"{where}.vms"))
            )
        return _construct(cls, kwargs, where)

    def to_dict(self) -> dict:
        out = _as_dict(self)
        out["vms"] = [vm.to_dict() for vm in self.vms]
        return out


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One client workload attached at build time.

    ``vm`` pins the workload to a named VM; ``None`` attaches one client
    per VM running ``service`` (how Figure 9 load-balances one httperf
    stream per host).  ``httperf`` serves a generated corpus of ``files``
    files of ``file_kib`` KiB under ``directory``; ``fileread`` creates a
    single ``file_kib`` file at ``path``; ``prober`` polls reachability
    every ``interval_s``.

    ``mode`` selects the client model for ``httperf``: ``exact`` (the
    default) simulates every request; ``fluid`` models ``sessions``
    closed-loop clients as rates advanced every ``tick_s`` seconds, which
    is how fleet-scale scenarios carry millions of concurrent sessions.
    """

    kind: str = "httperf"
    vm: str | None = None
    service: str = "apache"
    directory: str = "/www"
    files: int = 30
    file_kib: float = 2048.0
    concurrency: int = 2
    warm_cache: bool = True
    path: str = "/data/file"
    interval_s: float = 0.5
    mode: str = "exact"
    sessions: int = 10
    tick_s: float = 1.0

    def __post_init__(self) -> None:
        _require(
            self.kind in WORKLOAD_KINDS,
            "workload.kind",
            f"must be one of {', '.join(WORKLOAD_KINDS)}, got {self.kind!r}",
        )
        _require(
            self.mode in WORKLOAD_MODES,
            "workload.mode",
            f"must be one of {', '.join(WORKLOAD_MODES)}, got {self.mode!r}",
        )
        _require(
            self.mode == "exact" or self.kind == "httperf",
            "workload.mode",
            f"fluid mode only applies to httperf, got kind {self.kind!r}",
        )
        _require(
            self.sessions >= 1,
            "workload.sessions",
            f"must be >= 1, got {self.sessions}",
        )
        _require(
            self.tick_s > 0,
            "workload.tick_s",
            f"must be positive, got {self.tick_s}",
        )
        _require(self.files >= 1, "workload.files", f"must be >= 1, got {self.files}")
        _require(
            self.file_kib > 0,
            "workload.file_kib",
            f"must be positive, got {self.file_kib}",
        )
        _require(
            self.concurrency >= 1,
            "workload.concurrency",
            f"must be >= 1, got {self.concurrency}",
        )
        _require(
            self.interval_s > 0,
            "workload.interval_s",
            f"must be positive, got {self.interval_s}",
        )

    @property
    def file_bytes(self) -> int:
        return int(self.file_kib * KiB)

    @classmethod
    def from_dict(cls, data: dict, where: str = "workload") -> "WorkloadSpec":
        _check_keys(data, _FIELDS[cls], where)
        for key in ("files", "file_kib", "concurrency", "interval_s",
                    "sessions", "tick_s"):
            _number(data, key, where)
        return _construct(cls, dict(data), where)

    def to_dict(self) -> dict:
        return _as_dict(self)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """Injected software aging: the §2 leak defects plus a heap-leak rate.

    ``preset`` selects a named :class:`~repro.config.AgingFaults`
    catalogue entry; the explicit ``*_kib`` knobs override individual
    magnitudes.  ``heap_leak_kib_per_hour`` additionally runs a
    :class:`~repro.aging.watchdog.HeapExhaustionCrasher` (plus a crash
    watchdog) during scenario runs, so aging scenarios can reach the crash
    that rejuvenation preempts.
    """

    preset: str | None = None
    domain_destroy_leak_kib: float = 0.0
    error_path_leak_kib: float = 0.0
    xenstore_leak_per_txn_kib: float = 0.0
    heap_leak_kib_per_hour: float = 0.0

    def __post_init__(self) -> None:
        _require(
            self.preset is None or self.preset in FAULT_PRESETS,
            "faults.preset",
            f"must be one of {', '.join(FAULT_PRESETS)}, got {self.preset!r}",
        )
        for field in (
            "domain_destroy_leak_kib",
            "error_path_leak_kib",
            "xenstore_leak_per_txn_kib",
            "heap_leak_kib_per_hour",
        ):
            value = getattr(self, field)
            _require(value >= 0, f"faults.{field}", f"must be >= 0, got {value}")

    def to_aging_faults(self):
        """The :class:`~repro.config.AgingFaults` this spec asks for."""

        base = (
            AgingFaults.paper_bugs()
            if self.preset == "paper-bugs"
            else AgingFaults.healthy()
        )
        overrides = {}
        if self.domain_destroy_leak_kib:
            overrides["leak_on_domain_destroy_bytes"] = int(
                self.domain_destroy_leak_kib * KiB
            )
        if self.error_path_leak_kib:
            overrides["leak_on_error_path_bytes"] = int(
                self.error_path_leak_kib * KiB
            )
        if self.xenstore_leak_per_txn_kib:
            overrides["xenstore_leak_per_txn_bytes"] = int(
                self.xenstore_leak_per_txn_kib * KiB
            )
        return dataclasses.replace(base, **overrides) if overrides else base

    @classmethod
    def from_dict(cls, data: dict, where: str = "faults") -> "FaultSpec":
        _check_keys(data, _FIELDS[cls], where)
        for key in _FIELDS[cls] - {"preset"}:
            _number(data, key, where)
        return _construct(cls, dict(data), where)

    def to_dict(self) -> dict:
        return _as_dict(self)


@dataclasses.dataclass(frozen=True)
class MaintenanceSpec:
    """What maintenance the scenario performs after warm-up.

    * ``reboot`` — one VMM reboot of the (single) host with ``strategy``;
    * ``rolling`` — a :func:`~repro.control.campaign` pass across the
      cluster, ``settle_s`` after each host;
    * ``migration`` — an evacuate-to-spare campaign (needs ``spare``;
      ``settle_s`` is ignored);
    * ``periodic`` — the :func:`~repro.control.periodic` schedule on the
      single host, driven for the scenario's observation window.
    """

    kind: str = "reboot"
    strategy: str = "warm"
    settle_s: float = 5.0
    os_interval_s: float = 0.0
    vmm_interval_s: float = 0.0

    def __post_init__(self) -> None:
        _require(
            self.kind in MAINTENANCE_KINDS,
            "maintenance.kind",
            f"must be one of {', '.join(MAINTENANCE_KINDS)}, got {self.kind!r}",
        )
        _require(
            self.strategy in STRATEGIES,
            "maintenance.strategy",
            f"must be one of {', '.join(STRATEGIES)}, got {self.strategy!r}",
        )
        _require(
            self.settle_s >= 0,
            "maintenance.settle_s",
            f"must be >= 0, got {self.settle_s}",
        )
        if self.kind == "periodic":
            _require(
                self.os_interval_s > 0 and self.vmm_interval_s > 0,
                "maintenance",
                "periodic maintenance needs positive os_interval_s and "
                "vmm_interval_s",
            )

    @classmethod
    def from_dict(cls, data: dict, where: str = "maintenance") -> "MaintenanceSpec":
        _check_keys(data, _FIELDS[cls], where)
        for key in ("settle_s", "os_interval_s", "vmm_interval_s"):
            _number(data, key, where)
        return _construct(cls, dict(data), where)

    def to_dict(self) -> dict:
        return _as_dict(self)


@dataclasses.dataclass(frozen=True)
class PolicySpec:
    """An autonomic control loop attached to the scenario (TOML table).

    Mirrors :class:`repro.control.ControlConfig` field for field:
    detector thresholds (``overload``/``underload`` in mean runnable
    jobs per core over the trailing ``window_s``;
    ``aging_threshold``/``aging_rearm`` in VMM heap utilization), the
    placement ``strategy``, SLA budgets, and the control ``interval_s``.
    Attaching a policy implies metrics collection for the run — the
    detectors are the metric registry's first in-simulation consumer.
    """

    strategy: str = "fleet-order"
    interval_s: float = 60.0
    window_s: float = 60.0
    overload: float = 4.0
    underload: float = 0.05
    aging_threshold: float = 0.8
    aging_rearm: float = 0.4
    cooldown_s: float = 300.0
    migration_budget: int = 4
    min_hosts_up: int = 1
    rejuvenate: str = "warm"
    net_overload_bps: float = 0.0
    disk_overload: float = 0.0

    def __post_init__(self) -> None:
        _require(
            self.strategy in POLICY_STRATEGIES,
            "policy.strategy",
            f"must be one of {', '.join(POLICY_STRATEGIES)}, "
            f"got {self.strategy!r}",
        )
        _require(
            self.interval_s > 0,
            "policy.interval_s",
            f"must be positive, got {self.interval_s}",
        )
        _require(
            self.window_s > 0,
            "policy.window_s",
            f"must be positive, got {self.window_s}",
        )
        _require(
            0 <= self.underload < self.overload,
            "policy.underload",
            f"need 0 <= underload < overload, got underload="
            f"{self.underload} overload={self.overload}",
        )
        _require(
            0 < self.aging_threshold <= 1,
            "policy.aging_threshold",
            f"must be in (0, 1], got {self.aging_threshold}",
        )
        _require(
            0 <= self.aging_rearm <= self.aging_threshold,
            "policy.aging_rearm",
            f"must be in [0, aging_threshold], got {self.aging_rearm}",
        )
        _require(
            self.cooldown_s >= 0,
            "policy.cooldown_s",
            f"must be >= 0, got {self.cooldown_s}",
        )
        _require(
            self.migration_budget >= 0,
            "policy.migration_budget",
            f"must be >= 0, got {self.migration_budget}",
        )
        _require(
            self.min_hosts_up >= 0,
            "policy.min_hosts_up",
            f"must be >= 0, got {self.min_hosts_up}",
        )
        _require(
            self.rejuvenate in POLICY_REJUVENATE,
            "policy.rejuvenate",
            f"must be one of {', '.join(POLICY_REJUVENATE)}, "
            f"got {self.rejuvenate!r}",
        )
        _require(
            self.net_overload_bps >= 0,
            "policy.net_overload_bps",
            f"must be >= 0 (0 disables), got {self.net_overload_bps}",
        )
        _require(
            0 <= self.disk_overload <= 1,
            "policy.disk_overload",
            f"must be a busy fraction in [0, 1] (0 disables), "
            f"got {self.disk_overload}",
        )

    def to_control_config(self):
        """The :class:`repro.control.ControlConfig` this spec asks for."""
        from repro.control.loop import ControlConfig

        return ControlConfig(
            **{
                field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)
            }
        )

    @classmethod
    def from_dict(cls, data: dict, where: str = "policy") -> "PolicySpec":
        _check_keys(data, _FIELDS[cls], where)
        for key in _FIELDS[cls] - {"strategy", "rejuvenate"}:
            _number(data, key, where)
        return _construct(cls, dict(data), where)

    def to_dict(self) -> dict:
        return _as_dict(self)


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    description: str = ""
    hosts: tuple[HostSpec, ...] = (HostSpec(vms=(VMSpec(),)),)
    spare: bool = False
    force_cluster: bool = False
    profile: str = "paper"
    seed: int = 0
    workloads: tuple[WorkloadSpec, ...] = ()
    faults: FaultSpec | None = None
    maintenance: MaintenanceSpec | None = None
    policy: PolicySpec | None = None
    slo: SLOSpec | None = None
    """Service-level objectives evaluated over the observation window
    (the ``[slo]`` TOML table); attaching one implies metrics collection
    for the run, exactly like ``[policy]``."""
    warmup_s: float = 0.0
    observe_s: float = 0.0

    def __post_init__(self) -> None:
        _require(bool(self.name), "name", "must be a non-empty string")
        _require(
            self.profile in PROFILES,
            "profile",
            f"must be one of {', '.join(PROFILES)}, got {self.profile!r}",
        )
        _require(len(self.hosts) >= 1, "hosts", "need at least one host entry")
        _require(self.warmup_s >= 0, "warmup_s", f"must be >= 0, got {self.warmup_s}")
        _require(
            self.observe_s >= 0, "observe_s", f"must be >= 0, got {self.observe_s}"
        )
        m = self.maintenance
        if m is not None:
            if m.kind in ("rolling", "migration"):
                _require(
                    self.is_cluster,
                    "maintenance.kind",
                    f"{m.kind!r} maintenance needs a cluster "
                    "(more than one host, or spare = true)",
                )
            else:
                _require(
                    not self.is_cluster,
                    "maintenance.kind",
                    f"{m.kind!r} maintenance acts on a single host; use "
                    "'rolling' or 'migration' for clusters",
                )
            if m.kind == "migration":
                _require(
                    self.spare,
                    "spare",
                    "migration maintenance needs a spare host (spare = true)",
                )

    @property
    def host_count(self) -> int:
        return sum(host.count for host in self.hosts)

    @property
    def is_cluster(self) -> bool:
        """Whether this spec materializes as a Cluster (vs one RootHammer).

        ``force_cluster`` makes even a single host build as a Cluster —
        fleet shards use it so a one-host shard keeps cluster VM naming
        and RNG streams, and shard partitioning never changes results.
        """
        return self.host_count > 1 or self.spare or self.force_cluster

    @classmethod
    def from_dict(cls, data: dict, where: str = "scenario") -> "ScenarioSpec":
        _check_keys(data, _FIELDS[cls], where)
        for key in ("seed", "warmup_s", "observe_s"):
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
        if kwargs.get("maintenance") is not None:
            kwargs["maintenance"] = MaintenanceSpec.from_dict(
                kwargs["maintenance"], f"{where}.maintenance"
            )
        if kwargs.get("policy") is not None:
            kwargs["policy"] = PolicySpec.from_dict(
                kwargs["policy"], f"{where}.policy"
            )
        if kwargs.get("slo") is not None:
            kwargs["slo"] = SLOSpec.from_dict(kwargs["slo"], f"{where}.slo")
        return _construct(cls, kwargs, where)

    def to_dict(self) -> dict:
        """A plain-dict form that round-trips through :meth:`from_dict`.

        Field order is the dataclass declaration order, so ``repr`` of the
        result is deterministic — the parallel sweep uses it as
        content-address material for scenario cells.
        """
        out = _as_dict(self)
        out["hosts"] = [host.to_dict() for host in self.hosts]
        out["workloads"] = [w.to_dict() for w in self.workloads]
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.maintenance is not None:
            out["maintenance"] = self.maintenance.to_dict()
        if self.policy is not None:
            out["policy"] = self.policy.to_dict()
        if self.slo is not None:
            out["slo"] = self.slo.to_dict()
        return out


def _as_dict(spec: typing.Any) -> dict:
    """Shallow dataclass -> dict with tuples as lists (TOML-shaped)."""
    out: dict[str, typing.Any] = {}
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if isinstance(value, tuple) and all(isinstance(v, str) for v in value):
            value = list(value)
        out[field.name] = value
    return out


_FIELDS: dict[type, frozenset[str]] = {
    cls: frozenset(f.name for f in dataclasses.fields(cls))
    for cls in (
        VMSpec,
        HostSpec,
        WorkloadSpec,
        FaultSpec,
        MaintenanceSpec,
        PolicySpec,
        ScenarioSpec,
    )
}


def load_toml(path: str) -> ScenarioSpec:
    """Load and validate a scenario spec from a TOML file."""
    try:
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    except FileNotFoundError:
        raise ScenarioError(f"{path}: no such spec file") from None
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"{path}: invalid TOML: {exc}") from None
    return ScenarioSpec.from_dict(data, where=path)
