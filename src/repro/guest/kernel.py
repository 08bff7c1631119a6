"""The guest operating-system image.

A :class:`GuestKernel` is everything that lives *inside a VM's memory*:
kernel state, the page cache, running services, and the content sentinels
used to verify image integrity.  Its identity tracks the memory image:

* **warm-VM reboot / saved-VM reboot** keep the same ``GuestKernel``
  object (the image survives, on RAM or on disk) and merely ``rebind`` it
  to the successor hypervisor's new domain record;
* a **cold boot** constructs a fresh ``GuestKernel`` — empty page cache,
  services stopped — because the old image is simply gone.

Boot and shutdown charge the calibrated disk/CPU costs through the shared
hardware models, so running many guests in parallel contends naturally
(Figure 5's slopes are emergent, not scripted).
"""

from __future__ import annotations

import enum
import itertools
import typing

from repro.config import TimingProfile
from repro.errors import GuestError
from repro.guest.filesystem import Filesystem
from repro.guest.page_cache import PageCache
from repro.guest.services import Service
from repro.units import MiB

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.machine import PhysicalMachine
    from repro.simkernel import Simulator
    from repro.vmm.domain import Domain
    from repro.vmm.hypervisor import Hypervisor

_KERNEL_RESERVED_BYTES = 128 * MiB
"""Guest memory not usable as page cache (kernel text/data, slabs)."""

_SENTINEL_PFNS = (0, 1, 2)
"""PFNs fingerprinted to verify image preservation across reboots."""

_boot_epochs = itertools.count(1)


class GuestState(enum.Enum):
    OFF = "off"
    BOOTING = "booting"
    RUNNING = "running"
    SHUTTING_DOWN = "shutting-down"
    SUSPENDED = "suspended"
    DEAD = "dead"


class GuestKernel:
    """One guest OS image (a Xen-modified Linux, in the paper)."""

    def __init__(
        self,
        name: str,
        memory_bytes: int,
        profile: TimingProfile,
        filesystem: Filesystem | None = None,
        services: typing.Iterable[Service] = (),
    ) -> None:
        if memory_bytes <= _KERNEL_RESERVED_BYTES:
            raise GuestError(
                f"guest {name!r} needs more than "
                f"{_KERNEL_RESERVED_BYTES} bytes of memory"
            )
        self.name = name
        self.memory_bytes = memory_bytes
        self.profile = profile
        self.filesystem = filesystem if filesystem is not None else Filesystem()
        self.page_cache = PageCache(memory_bytes - _KERNEL_RESERVED_BYTES)
        self.services: list[Service] = list(services)
        self.state = GuestState.OFF
        self.vmm: "Hypervisor | None" = None
        self.domain: "Domain | None" = None
        self.boot_epoch = 0
        self._sentinel_token: typing.Any = None
        self._grant_refs: list[int] = []

    # -- bindings ---------------------------------------------------------------

    def rebind(self, vmm: "Hypervisor", domain: "Domain") -> None:
        """Attach this image to a (possibly new) hypervisor's domain."""
        self.vmm = vmm
        self.domain = domain
        domain.guest = self
        vmm.sim.placement_version += 1

    def _require_bound(self) -> tuple["Hypervisor", "Domain"]:
        if self.vmm is None or self.domain is None:
            raise GuestError(f"guest {self.name!r} is not bound to a domain")
        return self.vmm, self.domain

    @property
    def machine(self) -> "PhysicalMachine":
        vmm = self.vmm
        if vmm is None or self.domain is None:
            raise GuestError(f"guest {self.name!r} is not bound to a domain")
        return vmm.machine

    @property
    def sim(self) -> "Simulator":
        return self.machine.sim

    @property
    def is_network_reachable(self) -> bool:
        """Guest answers network traffic right now."""
        if self.state is not GuestState.RUNNING:
            return False
        vmm = self.vmm
        return vmm is not None and vmm.machine.nic._up

    def duration(self, stream: str, base: float) -> float:
        """A modelled duration with this guest's jitter stream applied."""
        return self.machine.duration(f"{self.name}.{stream}", base)

    def cpu_execute(self, core_seconds: float):
        """Run guest CPU work on the machine's shared CPU pool, as one
        single-threaded context with an equal share of the cores."""
        vmm = self.vmm
        if vmm is None or self.domain is None:
            raise GuestError(f"guest {self.name!r} is not bound to a domain")
        return vmm.machine.cpu.execute(core_seconds)

    # -- grant tables (split-driver I/O rings) ---------------------------------------

    def establish_grants(self) -> None:
        """Grant one I/O-ring page per device to dom0's backends and let
        them map it — the split-driver plumbing that must exist while
        devices are attached and must be gone before suspend."""
        vmm, domain = self._require_bound()
        from repro.vmm.hypervisor import DOM0_NAME

        if self.name == DOM0_NAME:  # pragma: no cover - dom0 has no frontends
            return
        for index, device in enumerate(domain.devices.all()):
            entry = vmm.grant_table.grant(
                self.name, DOM0_NAME, pfn=16 + index, writable=True
            )
            vmm.grant_table.map_grant(entry.reference, DOM0_NAME)
            self._grant_refs.append(entry.reference)

    def revoke_grants(self) -> None:
        """Tear the ring grants down (device detach / orderly stop)."""
        vmm, _ = self._require_bound()
        for reference in self._grant_refs:
            vmm.grant_table.unmap_grant(reference)
            vmm.grant_table.revoke(reference)
        self._grant_refs.clear()

    # -- memory-image sentinels ----------------------------------------------------

    def write_sentinels(self) -> None:
        """Fingerprint a few pages of the image (boot and suspend paths)."""
        _, domain = self._require_bound()
        self._sentinel_token = (self.name, self.boot_epoch, self.sim.now)
        for pfn in _SENTINEL_PFNS:
            mfn = domain.p2m.mfn_of(pfn)
            self.machine.memory.write_token(mfn, self._sentinel_token)

    def verify_memory_image(self) -> None:
        """Raise :class:`GuestError` if the image was scrubbed or lost —
        the corruption quick reload exists to prevent (§3.1)."""
        _, domain = self._require_bound()
        if self._sentinel_token is None:
            raise GuestError(f"guest {self.name!r} has no sentinels to verify")
        for pfn in _SENTINEL_PFNS:
            mfn = domain.p2m.mfn_of(pfn)
            token = self.machine.memory.read_token(mfn)
            if token != self._sentinel_token:
                raise GuestError(
                    f"guest {self.name!r}: memory image corrupted at PFN "
                    f"{pfn} (expected {self._sentinel_token!r}, found {token!r})"
                )

    # -- boot / shutdown -------------------------------------------------------------

    def boot(self) -> typing.Generator:
        """Cold boot: kernel load from disk + init, then start services."""
        if self.state is not GuestState.OFF:
            raise GuestError(
                f"guest {self.name!r} cannot boot from {self.state.value}"
            )
        machine = self.machine
        guest_spec = self.profile.guest
        sim = self.sim
        self.state = GuestState.BOOTING
        self.boot_epoch = next(_boot_epochs)
        # guests boot concurrently: own actor track, causal parent is the
        # host's enclosing reboot/maintenance span when one is open
        with sim.spans.span(
            "guest.boot",
            actor=self.name,
            parent=sim.spans.current(machine.name),
        ):
            sim.trace.record("guest.boot.start", domain=self.name)
            yield sim.timeout(self.duration("boot.fixed", guest_spec.boot_fixed_s))
            disk_phase = machine.disk.read(
                f"boot:{self.name}", guest_spec.boot_read_bytes
            )
            cpu_phase = self.cpu_execute(
                self.duration("boot.cpu", guest_spec.boot_cpu_s)
            )
            yield sim.all_of([disk_phase, cpu_phase])
            self.write_sentinels()
            self.establish_grants()
            for service in self.services:
                yield from service.start(self)
            self.state = GuestState.RUNNING
            sim.trace.record("guest.boot.done", domain=self.name)
        return self

    def shutdown(self) -> typing.Generator:
        """Orderly shutdown: stop services, sync dirty data, halt."""
        if self.state is not GuestState.RUNNING:
            raise GuestError(
                f"guest {self.name!r} cannot shut down from {self.state.value}"
            )
        machine = self.machine
        guest_spec = self.profile.guest
        sim = self.sim
        self.state = GuestState.SHUTTING_DOWN
        with sim.spans.span(
            "guest.shutdown",
            actor=self.name,
            parent=sim.spans.current(machine.name),
        ):
            sim.trace.record("guest.shutdown.start", domain=self.name)
            yield sim.timeout(
                self.duration("shutdown.stop", guest_spec.shutdown_service_stop_s)
            )
            for service in self.services:
                service.mark_stopped(reason="shutdown")
            self.revoke_grants()
            # Unmount path: sync dirty data, then the remaining fixed
            # teardown.  Sequential on purpose — concurrent shutdowns then
            # contend on the disk, giving the paper's ~0.4 s/VM slope.
            yield machine.disk.write(
                f"sync:{self.name}", guest_spec.shutdown_sync_bytes
            )
            remainder = max(
                0.0,
                guest_spec.shutdown_fixed_s - guest_spec.shutdown_service_stop_s,
            )
            yield sim.timeout(self.duration("shutdown.fixed", remainder))
            self.state = GuestState.OFF
            sim.trace.record("guest.shutdown.done", domain=self.name)

    # -- suspend / resume handlers (§4.2) ----------------------------------------------

    def run_suspend_handler(self) -> typing.Generator:
        """The kernel's suspend handler: detach devices, quiesce, freeze.

        Runs just before the suspend hypercall (on-memory path) or the
        toolstack save (disk path).  Services become unreachable here —
        this is where the paper's downtime clock starts for warm reboots.
        """
        if self.state is not GuestState.RUNNING:
            raise GuestError(
                f"guest {self.name!r} cannot suspend from {self.state.value}"
            )
        _, domain = self._require_bound()
        yield self.sim.timeout(
            self.duration("suspend.handler", self.profile.guest.suspend_handler_s)
        )
        self.revoke_grants()
        domain.devices.detach_all()
        for service in self.services:
            if service.is_up:
                self.sim.trace.record(
                    "service.down",
                    service=service.name,
                    service_kind=service.kind,
                    domain=self.name,
                    reason="suspend",
                )
        self.write_sentinels()
        self.state = GuestState.SUSPENDED

    def run_resume_handler(self) -> typing.Generator:
        """The kernel's resume handler: re-establish channels, re-attach
        devices, and verify the memory image actually survived."""
        if self.state is not GuestState.SUSPENDED:
            raise GuestError(
                f"guest {self.name!r} cannot resume from {self.state.value}"
            )
        _, domain = self._require_bound()
        yield self.sim.timeout(
            self.duration("resume.handler", self.profile.guest.resume_handler_s)
        )
        domain.devices.attach_all()
        self.establish_grants()
        self.verify_memory_image()
        self.state = GuestState.RUNNING
        for service in self.services:
            if service.is_up:
                self.sim.trace.record(
                    "service.up",
                    service=service.name,
                    service_kind=service.kind,
                    domain=self.name,
                    reason="resume",
                )

    def mark_dead(self) -> None:
        """The image is gone (cold reboot tore the domain down)."""
        for service in self.services:
            service.mark_stopped(reason="killed")
        self.state = GuestState.DEAD

    # -- file I/O through the page cache ------------------------------------------------

    def read_file(
        self, path: str, nbytes: int | None = None
    ) -> typing.Generator:
        """Read (part of) a file; hits go over the memory bus, misses to
        disk and into the cache.  Returns bytes read."""
        if self.state is not GuestState.RUNNING:
            raise GuestError(f"guest {self.name!r} is not running")
        size = self.filesystem.size_of(path)
        nbytes = size if nbytes is None else min(nbytes, size)
        cached, uncached = self.page_cache.split_read(path, nbytes)
        machine = self.machine
        metrics = self.sim.metrics
        if cached:
            yield machine.membus.execute(float(cached))
            self.page_cache.touch(path)
            metrics.counter(
                "guest.page_cache_hit_bytes", domain=self.name
            ).inc(cached)
        if uncached:
            yield machine.disk.read(f"{self.name}:{path}", uncached)
            self.page_cache.insert(path, uncached)
            metrics.counter(
                "guest.page_cache_miss_bytes", domain=self.name
            ).inc(uncached)
        return nbytes

    def warm_file_cache(self, paths: typing.Iterable[str]) -> typing.Generator:
        """Read files once so they are resident (experiment setup)."""
        for path in paths:
            yield from self.read_file(path)

    def service(self, name: str) -> Service:
        """Look a service up by name; raises :class:`GuestError`."""
        for candidate in self.services:
            if candidate.name == name:
                return candidate
        raise GuestError(f"guest {self.name!r} has no service {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GuestKernel {self.name} {self.state.value}>"
