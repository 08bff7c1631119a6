"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, inert description of one simulated
setup: the host fleet (:class:`HostSpec` / :class:`VMSpec`), the attached
workloads (:class:`WorkloadSpec`), injected aging (:class:`FaultSpec`) and
the maintenance schedule (:class:`MaintenanceSpec`); its ``[policy]``
table is a :class:`~repro.control.ControlConfig`.  Specs are frozen
:class:`~repro.config.Table` dataclasses, loadable from dicts
(:meth:`ScenarioSpec.from_dict`) and TOML files (:func:`load_toml`), and
every stack in the repository — the experiment testbeds, the cluster
runs, the ``scenario run`` CLI — is materialized from one by
:class:`~repro.scenario.builder.ScenarioBuilder`.

Validation is strict and early: unknown keys, wrong types, out-of-range
values, name templates that cannot render, names given twice and
workloads that no VM can take raise :class:`~repro.errors.ScenarioError`
with a dotted path to the offending field (``hosts[0].vms[1].memory_gib``),
so a typo in a TOML file fails at load time, not three simulated minutes
into a run.
"""

from __future__ import annotations

import dataclasses
import math
import string
import typing

from repro.config import AgingFaults, Table, require, require_one_of
from repro.control.actions import REBOOT_KINDS
from repro.control.loop import ControlConfig
from repro.errors import ScenarioError
from repro.guest.services import SERVICE_FACTORIES
from repro.obs.slo import SLOSpec
from repro.units import GiB, KiB

MAINTENANCE_KINDS = ("reboot", "rolling", "migration", "periodic")
WORKLOAD_KINDS = ("httperf", "fileread", "prober")
WORKLOAD_MODES = ("exact", "fluid")
"""``exact`` simulates every request; ``fluid`` advances session counts
at aggregation ticks (see :class:`repro.workloads.httperf.FluidHttperf`)."""
PROFILES = ("paper", "small")
FAULT_PRESETS = ("healthy", "paper-bugs")

HOST_TEMPLATE = "host{i}"
"""Default host name in a cluster or fleet; ``{i}`` is the host's index
across every host entry, so a fleet host keeps its name (and therefore
its RNG streams) in every sharding."""

STANDALONE_VM_TEMPLATE = "vm{i:02d}"
"""Default VM name on a standalone host — the experiments' ``vm00``.."""

CLUSTER_VM_TEMPLATE = "{host}-vm{i}"
"""Default VM name in a cluster — Figure 9's ``host0-vm0``.."""


def _check_name_template(template: str, count: int, where: str, **fields: str) -> None:
    """Reject a name template that expansion cannot render.

    A name renders as ``template.format(i=index, **fields)``, where
    ``fields`` holds a stand-in for each other name the template may use
    (``host`` in a VM name).  A field may not index into a name or read
    its attributes, so a name depends on nothing else.  A rendered name
    carries no braces, because a fleet shard reads its expanded host
    names as templates again, and ``count`` copies need ``{i}`` to get
    distinct names.
    """
    try:
        parsed = string.Formatter().parse(template)
        used = {field for _, field, _, _ in parsed if field is not None}
        first, second = (template.format(i=i, **fields) for i in (0, 1))
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(
            f"{where}: name {template!r} does not render "
            f"({type(exc).__name__}: {exc})"
        ) from None
    if not used <= {"i", *fields}:
        raise ScenarioError(
            f"{where}: name {template!r} may use only the fields "
            f"{', '.join(sorted({'i', *fields}))}"
        )
    if "{" in first or "}" in first:
        raise ScenarioError(
            f"{where}: name {template!r} renders {first!r}; "
            "a name may not contain braces"
        )
    if count > 1 and first == second:
        raise ScenarioError(
            f"{where}: name {template!r} has no '{{i}}' placeholder but count "
            f"is {count}; the copies would collide"
        )


@dataclasses.dataclass(frozen=True)
class VMSpec(Table):
    """One kind of VM in a host's fleet (``count`` identical instances).

    ``name`` is a template: ``{i}`` expands to the VM's index within its
    host (``{i:02d}`` etc. work) and ``{host}`` to the host's name.
    ``None`` picks the topology default — ``vm{i:02d}`` on a standalone
    host, ``{host}-vm{i}`` in a cluster — which is exactly what the paper
    experiments name their VMs.
    """

    TABLE = "vm"
    name: str | None = None
    count: int = 1
    memory_gib: float = 1.0
    services: tuple[str, ...] = ("ssh",)
    vcpus: int = 1
    driver_domain: bool = False

    def __post_init__(self) -> None:
        require(self.count >= 1, "vm.count", f"must be >= 1, got {self.count}")
        if self.name is not None:
            _check_name_template(
                self.name, self.count, "vm.name", host=HOST_TEMPLATE.format(i=0)
            )
        require(
            0 < self.memory_gib * GiB < math.inf,
            "vm.memory_gib",
            f"must be positive and finite in bytes, got {self.memory_gib}",
        )
        require(self.vcpus >= 1, "vm.vcpus", f"must be >= 1, got {self.vcpus}")
        for service in self.services:
            require_one_of(service, SERVICE_FACTORIES, "vm.services")

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gib * GiB)


@dataclasses.dataclass(frozen=True)
class HostSpec(Table):
    """``count`` identical hosts, each running the same VM fleet.

    ``name`` is a template like :attr:`VMSpec.name`: ``{i}`` expands to
    the host's index across every host entry (:func:`expand_hosts`).
    """

    TABLE = "host"
    name: str | None = None
    count: int = 1
    vms: tuple[VMSpec, ...] = ()

    def __post_init__(self) -> None:
        require(self.count >= 1, "host.count", f"must be >= 1, got {self.count}")
        if self.name is not None:
            _check_name_template(self.name, self.count, "host.name")


def expand_hosts(
    hosts: typing.Iterable[HostSpec], default: str = HOST_TEMPLATE
) -> list[HostSpec]:
    """One ``count = 1`` spec per host, its name template rendered.

    ``default`` names entries without a ``name``.  The builder and the
    fleet's shard planner both name hosts here, so a fleet host gets the
    same name in every sharding and in a serial run.
    """
    expanded: list[HostSpec] = []
    for host in hosts:
        template = host.name if host.name is not None else default
        for _ in range(host.count):
            name = template.format(i=len(expanded))
            if host.count > 1 or name != host.name:
                expanded.append(dataclasses.replace(host, name=name, count=1))
            else:  # already expanded, as in a fleet shard's spec
                expanded.append(host)
    return expanded


def layout(
    hosts: typing.Iterable[HostSpec], cluster: bool, spare: bool = False
) -> list[tuple[str, list[tuple[str, VMSpec]]]]:
    """Every host's name with its VMs' names and specs, in build order.

    Hosts and VMs share one namespace, the spare host included: names key
    span tracks, RNG streams and the cluster's lookups, so a name given
    twice raises :class:`~repro.errors.ScenarioError`.
    """
    if cluster:
        host_template, vm_template = HOST_TEMPLATE, CLUSTER_VM_TEMPLATE
    else:
        host_template, vm_template = "server", STANDALONE_VM_TEMPLATE
    seen = {"spare"} if spare else set()
    named: list[tuple[str, list[tuple[str, VMSpec]]]] = []
    for host in expand_hosts(hosts, host_template):
        vms: list[tuple[str, VMSpec]] = []
        for vm in host.vms:
            template = vm.name if vm.name is not None else vm_template
            for _ in range(vm.count):
                vms.append((template.format(i=len(vms), host=host.name), vm))
        for name in [host.name, *(name for name, _ in vms)]:
            if name in seen:
                raise ScenarioError(f"hosts: the name {name!r} is given twice")
            seen.add(name)
        named.append((host.name, vms))
    return named


@dataclasses.dataclass(frozen=True)
class WorkloadSpec(Table):
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

    TABLE = "workload"
    kind: str = "httperf"
    vm: str | None = None
    service: str = "apache"
    directory: str = "/www"
    files: int = 30
    file_kib: float = 2048.0
    concurrency: int = 2
    path: str = "/data/file"
    interval_s: float = 0.5
    mode: str = "exact"
    sessions: int = 10
    tick_s: float = 1.0

    def __post_init__(self) -> None:
        require_one_of(self.kind, WORKLOAD_KINDS, "workload.kind")
        require_one_of(self.mode, WORKLOAD_MODES, "workload.mode")
        require(
            self.mode == "exact" or self.kind == "httperf",
            "workload.mode",
            f"fluid mode only applies to httperf, got kind {self.kind!r}",
        )
        require(
            self.sessions >= 1,
            "workload.sessions",
            f"must be >= 1, got {self.sessions}",
        )
        require(
            self.tick_s > 0,
            "workload.tick_s",
            f"must be positive, got {self.tick_s}",
        )
        require(self.files >= 1, "workload.files", f"must be >= 1, got {self.files}")
        require(
            0 < self.file_kib * KiB < math.inf,
            "workload.file_kib",
            f"must be positive and finite in bytes, got {self.file_kib}",
        )
        require(
            self.concurrency >= 1,
            "workload.concurrency",
            f"must be >= 1, got {self.concurrency}",
        )
        require(
            self.interval_s > 0,
            "workload.interval_s",
            f"must be positive, got {self.interval_s}",
        )

    @property
    def file_bytes(self) -> int:
        return int(self.file_kib * KiB)


def check_workloads(
    workloads: typing.Sequence[WorkloadSpec],
    named: list[tuple[str, list[tuple[str, VMSpec]]]],
) -> None:
    """Reject workloads the builder could not attach, given the hosts'
    :func:`layout`: a ``vm`` that names no VM, a ``service`` that no VM
    runs, or fluid workloads that disagree on ``tick_s`` (one tick driver
    advances every fluid client of a simulation)."""
    vms = {name: vm for _, host_vms in named for name, vm in host_vms}
    services = {service for vm in vms.values() for service in vm.services}
    ticks = [w.tick_s for w in workloads if w.mode == "fluid"]
    for index, workload in enumerate(workloads):
        where = f"workloads[{index}]"
        if workload.vm is not None:
            require(
                workload.vm in vms, f"{where}.vm", f"no VM is named {workload.vm!r}"
            )
        else:
            require(
                workload.service in services,
                f"{where}.service",
                f"no VM runs {workload.service!r} and no vm was named",
            )
        if workload.mode == "fluid" and workload.tick_s != ticks[0]:
            raise ScenarioError(
                f"{where}.tick_s: all fluid workloads in one simulation must "
                f"share tick_s; got {ticks[0]} and {workload.tick_s}"
            )


@dataclasses.dataclass(frozen=True)
class FaultSpec(Table):
    """Injected software aging: the §2 leak defects plus a heap-leak rate.

    ``preset`` selects a named :class:`~repro.config.AgingFaults`
    catalogue entry.  ``heap_leak_kib_per_hour`` additionally runs a
    :class:`~repro.aging.watchdog.HeapExhaustionCrasher` (plus a crash
    watchdog) during scenario runs, so aging scenarios can reach the crash
    that rejuvenation preempts.
    """

    TABLE = "faults"
    preset: str | None = None
    heap_leak_kib_per_hour: float = 0.0

    def __post_init__(self) -> None:
        if self.preset is not None:
            require_one_of(self.preset, FAULT_PRESETS, "faults.preset")
        require(
            0 <= self.heap_leak_kib_per_hour * KiB < math.inf,
            "faults.heap_leak_kib_per_hour",
            f"must be >= 0 and finite in bytes, got {self.heap_leak_kib_per_hour}",
        )

    def to_aging_faults(self) -> AgingFaults:
        """The :class:`~repro.config.AgingFaults` preset this spec names."""
        if self.preset == "paper-bugs":
            return AgingFaults.paper_bugs()
        return AgingFaults.healthy()


@dataclasses.dataclass(frozen=True)
class MaintenanceSpec(Table):
    """What maintenance the scenario performs after warm-up.

    * ``reboot`` — one VMM reboot of the (single) host with ``strategy``;
    * ``rolling`` — a :func:`~repro.control.campaign` pass across the
      cluster, ``settle_s`` after each host;
    * ``migration`` — an evacuate-to-spare campaign (needs ``spare``;
      ``settle_s`` is ignored);
    * ``periodic`` — the :func:`~repro.control.periodic` schedule on the
      single host, driven for the scenario's observation window.
    """

    TABLE = "maintenance"
    kind: str = "reboot"
    strategy: str = "warm"
    settle_s: float = 5.0
    os_interval_s: float = 0.0
    vmm_interval_s: float = 0.0

    def __post_init__(self) -> None:
        require_one_of(self.kind, MAINTENANCE_KINDS, "maintenance.kind")
        require_one_of(self.strategy, REBOOT_KINDS, "maintenance.strategy")
        require(
            self.settle_s >= 0,
            "maintenance.settle_s",
            f"must be >= 0, got {self.settle_s}",
        )
        if self.kind == "periodic":
            require(
                self.os_interval_s > 0 and self.vmm_interval_s > 0,
                "maintenance",
                "periodic maintenance needs positive os_interval_s and "
                "vmm_interval_s",
            )


@dataclasses.dataclass(frozen=True)
class ScenarioSpec(Table):
    """A complete declarative scenario."""

    TABLE = "scenario"
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
    policy: ControlConfig | None = None
    """The autonomic control loop (the ``[policy]`` TOML table); attaching
    one implies metrics collection for the run, because its detectors
    read the metric series."""
    slo: SLOSpec | None = None
    """Service-level objectives evaluated over the observation window
    (the ``[slo]`` TOML table); attaching one implies metrics collection
    for the run, exactly like ``[policy]``."""
    warmup_s: float = 0.0
    observe_s: float = 0.0

    def __post_init__(self) -> None:
        require(bool(self.name), "name", "must be a non-empty string")
        require_one_of(self.profile, PROFILES, "profile")
        require(len(self.hosts) >= 1, "hosts", "need at least one host entry")
        named = layout(self.hosts, self.is_cluster, self.spare)  # no name given twice
        check_workloads(self.workloads, named)
        require(self.warmup_s >= 0, "warmup_s", f"must be >= 0, got {self.warmup_s}")
        require(
            self.observe_s >= 0, "observe_s", f"must be >= 0, got {self.observe_s}"
        )
        m = self.maintenance
        if m is not None:
            if m.kind in ("rolling", "migration"):
                require(
                    self.is_cluster,
                    "maintenance.kind",
                    f"{m.kind!r} maintenance needs a cluster "
                    "(more than one host, or spare = true)",
                )
            else:
                require(
                    not self.is_cluster,
                    "maintenance.kind",
                    f"{m.kind!r} maintenance acts on a single host; use "
                    "'rolling' or 'migration' for clusters",
                )
            if m.kind == "migration":
                require(
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


def load_toml(path: str) -> ScenarioSpec:
    """Load and validate a scenario spec from a TOML file."""
    return ScenarioSpec.load_toml(path)
