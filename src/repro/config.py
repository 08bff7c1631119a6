"""Calibrated configuration profiles for the simulated testbed.

Every timing constant used by the hardware, VMM and guest models lives
here, grouped into small spec dataclasses and aggregated by
:class:`TimingProfile`.  The :func:`paper_testbed` profile is calibrated to
the DSN 2007 testbed (dual Dual-Core Opteron 280, 12 GB PC3200, 15 krpm
U320 SCSI disk, gigabit Ethernet) by back-solving the paper's own
measurements — see DESIGN.md "Calibration anchors" for the derivations.

Nothing outside this module hard-codes a paper number: experiments *run*
on these physical parameters and the paper's results emerge (or fail to).

It also holds :class:`Table`, the one loader for the declarative specs
(scenario, fleet, ``[policy]``, ``[slo]``): each spec is a frozen
dataclass whose field annotations are its TOML schema.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import tomllib
import types
import typing

from repro.errors import ConfigError, ReproError, ScenarioError
from repro.units import GiB, KiB, MiB, gib, mib


def require(condition: bool, where: str, message: str) -> None:
    """Raise ``ScenarioError(f"{where}: {message}")`` unless ``condition``."""
    if not condition:
        raise ScenarioError(f"{where}: {message}")


def require_one_of(value: str, choices: typing.Collection[str], where: str) -> None:
    """Raise ``ScenarioError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        message = f"must be one of {', '.join(choices)}, got {value!r}"
        raise ScenarioError(f"{where}: {message}")


_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}

Reader = typing.Callable[[typing.Any, str], typing.Any]


def _reader(hint: typing.Any) -> Reader:
    """The function that checks a value against the field annotation ``hint``."""
    if isinstance(hint, types.UnionType):  # X | None
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        read = _reader(inner)
        return lambda value, where: None if value is None else read(value, where)
    if typing.get_origin(hint) is tuple:  # tuple[str, ...] or tuple[Table, ...]
        item = typing.get_args(hint)[0]
        read_item = _reader(item)
        what = "a string or list of strings" if item is str else "an array of tables"

        def read_tuple(value: typing.Any, where: str) -> tuple:
            if item is str and isinstance(value, str):
                return (value,)
            if not isinstance(value, (list, tuple)):
                raise ScenarioError(
                    f"{where}: expected {what}, got {type(value).__name__}"
                )
            return tuple(
                read_item(entry, f"{where}[{index}]")
                for index, entry in enumerate(value)
            )

        return read_tuple
    if issubclass(hint, Table):
        return hint.from_dict
    accepted = (int, float) if hint is float else hint

    def read_scalar(value: typing.Any, where: str) -> typing.Any:
        # bool is an int subclass: a bool is a boolean and nothing else
        if not isinstance(value, accepted) or isinstance(value, bool) != (hint is bool):
            raise ScenarioError(
                f"{where}: expected {_EXPECTED[hint]}, got {type(value).__name__}"
            )
        if hint is float and not abs(value) <= sys.float_info.max:  # inf, nan, 10**400
            raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
        return value

    return read_scalar


@functools.cache
def _readers(cls: type) -> dict[str, Reader]:
    """Field name -> reader, in declaration order, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {field.name: _reader(hints[field.name]) for field in dataclasses.fields(cls)}


def _plain(value: typing.Any) -> typing.Any:
    if isinstance(value, Table):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


class Table:
    """A TOML table as a frozen dataclass, read by one typed loader.

    Subclasses are ``@dataclasses.dataclass(frozen=True)`` classes whose
    field annotations are the schema.  :meth:`from_dict` checks every key
    against its annotation before the constructor runs: ``bool``,
    ``int`` (not a bool), ``float`` (an int or a float, finite), ``str``,
    ``tuple[str, ...]`` (a string or a list of strings), a nested
    ``Table`` (a sub-table), ``tuple[Table, ...]`` (an array of tables),
    and any of these ``| None``.  A rejected key raises
    :class:`~repro.errors.ScenarioError` with its dotted path
    (``scenario.hosts[0].vms[0].count: expected an integer, got float``);
    :meth:`to_dict` is the inverse.
    """

    TABLE = "table"
    """The table's name: the default ``where`` of :meth:`from_dict`, and
    the path prefix its ``__post_init__`` messages carry (``vm.count:
    ...``), which loading replaces with the table's place in the
    document."""

    @classmethod
    def from_dict(cls, data: typing.Any, where: str | None = None) -> typing.Self:
        """Check ``data`` key by key and construct the table."""
        where = cls.TABLE if where is None else where
        if not isinstance(data, dict):
            raise ScenarioError(f"{where}: expected a table, got {type(data).__name__}")
        readers = _readers(cls)
        unknown = sorted(map(repr, data.keys() - readers.keys()))
        if unknown:
            raise ScenarioError(
                f"{where}: unknown key(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(readers))}"
            )
        kwargs = {
            key: readers[key](value, f"{where}.{key}") for key, value in data.items()
        }
        try:
            return cls(**kwargs)
        except ReproError as exc:
            # "vm.count: ..." from __post_init__ becomes "<where>.count: ..."
            path, _, message = str(exc).partition(": ")
            path = "" if path == cls.TABLE else path.removeprefix(cls.TABLE + ".")
            raise ScenarioError(
                f"{where}.{path}: {message}" if path else f"{where}: {message}"
            ) from None
        except TypeError as exc:  # a required key is missing
            raise ScenarioError(f"{where}: {exc}") from None

    def to_dict(self) -> dict:
        """Plain TOML-shaped data that :meth:`from_dict` reads back.

        Keys follow the field declaration order, so ``repr`` of the result
        is deterministic: the sweep engine uses it as content-address
        material, and fleet shards receive their specs in this form.
        """
        return {name: _plain(getattr(self, name)) for name in _readers(type(self))}

    @classmethod
    def load_toml(cls, path: str) -> typing.Self:
        """Load and check one table from a TOML file; errors name the file."""
        try:
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        except FileNotFoundError:
            raise ScenarioError(f"{path}: no such spec file") from None
        except OSError as exc:
            raise ScenarioError(f"{path}: cannot read: {exc.strerror}") from None
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"{path}: invalid TOML: {exc}") from None
        return cls.from_dict(data, where=path)


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")


@dataclasses.dataclass(frozen=True)
class CpuSpec:
    """Physical CPU package description."""

    cores: int = 4
    """Total hardware threads usable by guests and dom0."""

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")


@dataclasses.dataclass(frozen=True)
class DiskSpec:
    """Rotational-disk service-time model.

    A transfer is split into ``chunk_bytes`` requests served FIFO; a request
    pays ``seek_s`` whenever the head was last positioned for a *different*
    stream (or for the first chunk of a stream).  This makes single-stream
    transfers run at full ``read_bw``/``write_bw`` while interleaved streams
    degrade — the emergent behaviour behind the paper's Figure 5 slopes and
    the 69 % random-read web-server degradation.
    """

    read_bw: float = 88 * MiB
    """Sequential read bandwidth, bytes/second."""

    write_bw: float = 85 * MiB
    """Sequential write bandwidth, bytes/second."""

    seek_s: float = 0.008
    """Average positioning time (seek + rotational latency), seconds."""

    chunk_bytes: int = 2 * MiB
    """Request granularity for long transfers."""

    def __post_init__(self) -> None:
        _positive("read_bw", self.read_bw)
        _positive("write_bw", self.write_bw)
        _non_negative("seek_s", self.seek_s)
        _positive("chunk_bytes", self.chunk_bytes)


@dataclasses.dataclass(frozen=True)
class NicSpec:
    """Network interface: a shared-bandwidth link."""

    bandwidth: float = 117 * MiB
    """Effective gigabit payload bandwidth, bytes/second."""

    latency_s: float = 0.0002
    """One-way propagation + stack latency, seconds."""

    def __post_init__(self) -> None:
        _positive("bandwidth", self.bandwidth)
        _non_negative("latency_s", self.latency_s)


@dataclasses.dataclass(frozen=True)
class RamDiskSpec:
    """An i-RAM-like non-volatile RAM disk (related work, §7).

    DRAM speed internally but attached over SATA, so bandwidth-limited
    and seek-free.  Used only by the ``ramdisk`` save variant.
    """

    bandwidth: float = 150 * MiB
    """SATA-limited transfer rate, bytes/second."""

    access_s: float = 0.0001
    """Per-request access latency (no mechanical seek)."""

    def __post_init__(self) -> None:
        _positive("bandwidth", self.bandwidth)
        _non_negative("access_s", self.access_s)


@dataclasses.dataclass(frozen=True)
class MemorySpec:
    """Machine memory and its bandwidth as seen by file-cache reads."""

    total_bytes: int = 12 * GiB
    cached_read_bw: float = 930 * MiB
    """Throughput of reading file data already in the guest page cache;
    back-solved from the paper's 91 % first-read degradation (§5.5)."""

    def __post_init__(self) -> None:
        _positive("total_bytes", self.total_bytes)
        _positive("cached_read_bw", self.cached_read_bw)


@dataclasses.dataclass(frozen=True)
class BiosSpec:
    """Power-on self-test model: the cost of a hardware reset.

    ``post_base_s + mem_check_s_per_gib * installed_gib + scsi_init_s``
    reproduces the paper's ``reset_hw = 47 s`` for 12 GB (§5.6) and scales
    with installed memory as §2 argues it must.
    """

    post_base_s: float = 8.0
    mem_check_s_per_gib: float = 2.25
    scsi_init_s: float = 12.0

    def __post_init__(self) -> None:
        _non_negative("post_base_s", self.post_base_s)
        _non_negative("mem_check_s_per_gib", self.mem_check_s_per_gib)
        _non_negative("scsi_init_s", self.scsi_init_s)

    def reset_duration(self, installed_bytes: int) -> float:
        """Seconds for a full hardware reset of a machine with this BIOS."""
        return (
            self.post_base_s
            + self.mem_check_s_per_gib * (installed_bytes / GiB)
            + self.scsi_init_s
        )


@dataclasses.dataclass(frozen=True)
class VmmSpec:
    """Hypervisor timing and sizing constants (Xen 3.0.0-alike)."""

    heap_bytes: int = 16 * MiB
    """VMM heap size — 16 MB by default in Xen regardless of RAM (§2)."""

    shutdown_s: float = 0.8
    """Tearing down the VMM itself (after dom0 is down)."""

    boot_fixed_s: float = 4.0
    """VMM initialization excluding free-memory scrubbing."""

    scrub_s_per_gib: float = 0.55
    """Scrubbing/initializing each GiB of *free* machine memory at boot.

    Memory reserved for suspended domains is skipped, which is why the
    paper's ``reboot_vmm(n)`` *decreases* with n (slope −0.55 s/VM·GiB)."""

    image_load_s: float = 0.15
    """xexec hypercall: loading the new VMM+dom0 executable image."""

    reload_jump_s: float = 0.05
    """Quick reload control transfer (copy image, jump to entry point)."""

    state_save_bytes: int = 16 * KiB
    """Per-domain execution-state save area (§4.2: 16 KB)."""

    p2m_bytes_per_gib: int = 2 * MiB
    """P2M table footprint per GiB of pseudo-physical memory (§4.1)."""

    suspend_base_s: float = 0.03
    """Per-domain on-memory suspend fixed cost (suspend handler + hypercall)."""

    suspend_s_per_gib: float = 0.0045
    """Per-GiB component of on-memory suspend (freeze bookkeeping)."""

    resume_create_s: float = 0.25
    """Per-domain toolstack cost to create the resumed domain (serialized
    through dom0's management daemon, like xend)."""

    resume_devices_s: float = 0.10
    """Per-domain device re-attach in the guest resume handler."""

    resume_s_per_gib: float = 0.055
    """Per-GiB on-memory resume cost (walking the preserved P2M table)."""

    create_domain_s: float = 0.43
    """Per-domain toolstack cost to create a *fresh* domain (cold boot path),
    serialized through dom0's management daemon."""

    shutdown_signal_s: float = 0.5
    """Per-domain latency of dom0 signalling a guest to shut down
    (``xm shutdown`` issued serially by the shutdown script), which
    staggers when each VM's services drop during a cold/saved reboot."""

    def __post_init__(self) -> None:
        for field in (
            "shutdown_s",
            "boot_fixed_s",
            "scrub_s_per_gib",
            "image_load_s",
            "reload_jump_s",
            "suspend_base_s",
            "suspend_s_per_gib",
            "resume_create_s",
            "resume_devices_s",
            "resume_s_per_gib",
            "create_domain_s",
        ):
            _non_negative(field, getattr(self, field))
        _positive("heap_bytes", self.heap_bytes)


@dataclasses.dataclass(frozen=True)
class Dom0Spec:
    """The privileged domain (domain 0)."""

    memory_bytes: int = 512 * MiB
    shutdown_s: float = 13.5
    """Stopping dom0's services and kernel (the paper's Figure 7 shows the
    web server running ~14 s past the reboot command before suspend)."""

    boot_s: float = 31.7
    """dom0 kernel boot plus management-daemon start (xend, xenstored)."""

    def __post_init__(self) -> None:
        _positive("memory_bytes", self.memory_bytes)
        _non_negative("shutdown_s", self.shutdown_s)
        _non_negative("boot_s", self.boot_s)


@dataclasses.dataclass(frozen=True)
class GuestSpec:
    """Guest operating-system boot/shutdown cost model."""

    boot_read_bytes: int = 215 * MiB
    """Disk bytes read during kernel + userland boot; under full contention
    this yields the paper's 3.4 s/VM boot slope."""

    boot_cpu_s: float = 2.6
    """CPU work during boot (overlapped with the disk reads)."""

    boot_fixed_s: float = 2.8
    """Non-overlappable boot latency (kernel handoff, device probes)."""

    shutdown_sync_bytes: int = 25 * MiB
    """Dirty data synced to disk on shutdown (0.4 s/VM slope)."""

    shutdown_fixed_s: float = 10.2
    """Service-stop timeouts and unmount waits."""

    shutdown_service_stop_s: float = 3.0
    """How long after shutdown begins the network services drop (the init
    system works through its stop scripts before reaching them)."""

    suspend_handler_s: float = 0.02
    """Guest suspend handler: detach devices, quiesce."""

    resume_handler_s: float = 0.02
    """Guest resume handler: re-establish channels, attach devices."""

    def __post_init__(self) -> None:
        _positive("boot_read_bytes", self.boot_read_bytes)
        for field in (
            "boot_cpu_s",
            "boot_fixed_s",
            "shutdown_fixed_s",
            "shutdown_service_stop_s",
            "suspend_handler_s",
            "resume_handler_s",
        ):
            _non_negative(field, getattr(self, field))


@dataclasses.dataclass(frozen=True)
class ServiceCosts:
    """Start/stop costs for the services used in the paper's evaluation."""

    ssh_read_bytes: int = 5 * MiB
    ssh_cpu_s: float = 0.2
    apache_read_bytes: int = 12 * MiB
    apache_cpu_s: float = 0.5
    jboss_read_bytes: int = 350 * MiB
    """JBoss application server: jar loading from disk at start (§5.3)."""
    jboss_cpu_s: float = 12.5
    """JBoss deploy-time CPU work (class loading, service wiring)."""
    request_cpu_s: float = 0.0002
    """Per-HTTP-request CPU cost in the server."""

    checkpoint_bytes: int = 64 * MiB
    """Process-checkpoint image size (the §7 Randell-style alternative:
    checkpoint processes to disk so an OS reboot can restore rather than
    restart them)."""

    checkpoint_restore_cpu_s: float = 1.0
    """CPU work to rebuild a process from its checkpoint."""

    def __post_init__(self) -> None:
        for field in (
            "ssh_cpu_s",
            "apache_cpu_s",
            "jboss_cpu_s",
            "request_cpu_s",
            "checkpoint_restore_cpu_s",
        ):
            _non_negative(field, getattr(self, field))
        if self.checkpoint_bytes < 0:
            raise ConfigError("checkpoint_bytes must be >= 0")


@dataclasses.dataclass(frozen=True)
class QuirkSpec:
    """Faithfully reproduced implementation artifacts of Xen 3.0.0.

    The paper attributes the 25 s post-resume throughput dip (Fig. 7) to a
    Xen bug where network performance degrades for a while after many VMs
    are created simultaneously.  Modelled here so Figure 7 reproduces; turn
    off to see the idealized warm reboot.
    """

    post_create_network_slump_s: float = 25.0
    post_create_network_factor: float = 0.55
    """Multiplier on NIC bandwidth during the slump."""

    min_vms_for_slump: int = 2
    """The slump needs 'simultaneous' creations; a single VM is unaffected."""

    def __post_init__(self) -> None:
        _non_negative("post_create_network_slump_s", self.post_create_network_slump_s)
        if not 0 < self.post_create_network_factor <= 1:
            raise ConfigError("post_create_network_factor must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class AgingFaults:
    """Which historical Xen defects are active, and how hard they bite.

    §2 grounds the need for VMM rejuvenation in real Xen defects:

    * changeset 9392 — heap memory lost every time a VM is rebooted;
    * changeset 11752 — heap lost on certain error paths;
    * changeset 8640 — xenstored (in domain 0) leaking per transaction.

    This spec switches those defects on in the simulated stack so aging
    experiments can drive the VMM toward exhaustion; all default to off
    (a healthy hypervisor).  It lives here with the other spec dataclasses
    because the VMM and xenstore (platform layer) consult it — the aging
    package layers *above* them and could not be imported from there.
    """

    leak_on_domain_destroy_bytes: int = 0
    """VMM heap bytes leaked each time a domain is destroyed (cs 9392:
    'available heap memory decreased whenever a VM was rebooted')."""

    leak_on_error_path_bytes: int = 0
    """VMM heap bytes leaked when an error path executes (cs 11752)."""

    xenstore_leak_per_txn_bytes: int = 0
    """Bytes leaked by xenstored per transaction (cs 8640)."""

    def __post_init__(self) -> None:
        for field in (
            "leak_on_domain_destroy_bytes",
            "leak_on_error_path_bytes",
            "xenstore_leak_per_txn_bytes",
        ):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be >= 0")

    @classmethod
    def healthy(cls) -> "AgingFaults":
        """No active defects."""
        return cls()

    @classmethod
    def paper_bugs(cls) -> "AgingFaults":
        """All three cited defects on, at magnitudes that exhaust the 16 MB
        heap after many domain reboots — aggressive enough to observe in
        simulated weeks, faithful in *kind* to the cited changesets."""
        return cls(
            leak_on_domain_destroy_bytes=64 * KiB,
            leak_on_error_path_bytes=16 * KiB,
            xenstore_leak_per_txn_bytes=4 * KiB,
        )


@dataclasses.dataclass(frozen=True)
class TimingProfile:
    """Aggregate machine + software profile for one simulated host."""

    cpu: CpuSpec = dataclasses.field(default_factory=CpuSpec)
    disk: DiskSpec = dataclasses.field(default_factory=DiskSpec)
    ramdisk: RamDiskSpec = dataclasses.field(default_factory=RamDiskSpec)
    nic: NicSpec = dataclasses.field(default_factory=NicSpec)
    memory: MemorySpec = dataclasses.field(default_factory=MemorySpec)
    bios: BiosSpec = dataclasses.field(default_factory=BiosSpec)
    vmm: VmmSpec = dataclasses.field(default_factory=VmmSpec)
    dom0: Dom0Spec = dataclasses.field(default_factory=Dom0Spec)
    guest: GuestSpec = dataclasses.field(default_factory=GuestSpec)
    services: ServiceCosts = dataclasses.field(default_factory=ServiceCosts)
    quirks: QuirkSpec = dataclasses.field(default_factory=QuirkSpec)
    jitter_fraction: float = 0.0
    """Uniform multiplicative noise on modelled durations; 0 = exact."""

    def __post_init__(self) -> None:
        if not 0 <= self.jitter_fraction < 1:
            raise ConfigError("jitter_fraction must be in [0, 1)")
        if self.dom0.memory_bytes >= self.memory.total_bytes:
            raise ConfigError("dom0 memory must be smaller than machine memory")

    def replace(self, **changes: object) -> "TimingProfile":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)


def paper_testbed(**overrides: object) -> TimingProfile:
    """The DSN 2007 server machine: 2×Dual-Core Opteron 280, 12 GB RAM,
    15 krpm U320 SCSI, gigabit Ethernet (§5).

    Keyword overrides replace top-level :class:`TimingProfile` fields,
    e.g. ``paper_testbed(memory=MemorySpec(total_bytes=gib(24)))``.
    """
    return TimingProfile(**overrides)


def small_testbed(**overrides: object) -> TimingProfile:
    """A smaller host (2 cores, 4 GiB) for fast unit tests and examples."""
    defaults: dict[str, object] = {
        "cpu": CpuSpec(cores=2),
        "memory": MemorySpec(total_bytes=gib(4)),
        "dom0": Dom0Spec(memory_bytes=mib(256), shutdown_s=2.0, boot_s=4.0),
    }
    defaults.update(overrides)
    return TimingProfile(**defaults)
