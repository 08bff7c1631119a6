"""The hypervisor (VMM) model — a Xen-3.0.0-alike.

One :class:`Hypervisor` object is one *VMM instance*: it owns a frame
allocator built over the machine's memory, a 16 MB heap, the domain table,
event channels and (via dom0) xenstore.  Rebooting the VMM means this
object dies and a successor is constructed over the same
:class:`~repro.hardware.PhysicalMachine` — which is exactly how the
warm-VM reboot's preservation guarantees become testable: whatever the
successor can see, it sees through machine RAM (the preserved store) or
the disk, never through Python references to the dead instance.

The baseline hypervisor supports everything original Xen 3.0.0 does in
this story: domain lifecycle, event channels, grant tables, xenstore, the
hypercall dispatcher and **save/restore through the disk** (the
``saved-VM reboot`` baseline).
The RootHammer mechanisms — on-memory suspend/resume and quick reload —
live in :class:`repro.core.roothammer.RootHammerHypervisor`, a subclass,
mirroring how the paper's system is a modified Xen.
"""

from __future__ import annotations

import enum
import itertools
import typing

from repro.config import AgingFaults
from repro.config import TimingProfile
from repro.errors import (
    DomainError,
    HypercallError,
    VMMCrashed,
    VMMError,
)
from repro.hardware.machine import PhysicalMachine
from repro.memory import FrameAllocator, VmmHeap
from repro.simkernel import Resource
from repro.units import GiB, KiB, MiB, pages
from repro.vmm.domain import Domain, DomainState
from repro.vmm.event_channels import EventChannelTable
from repro.vmm.grant_tables import GrantTable
from repro.vmm.scheduler import CreditScheduler, SchedulerParams
from repro.vmm.xenstore import Xenstore

_VMM_OWN_BYTES = 32 * MiB
"""Machine memory reserved for the VMM text/data/heap itself."""

_DOMAIN_STRUCT_BYTES = 8 * KiB
"""Heap bytes consumed per live domain (struct domain and friends)."""

DOM0_NAME = "Domain-0"


class VmmState(enum.Enum):
    INITIALIZING = "initializing"
    RUNNING = "running"
    SHUTTING_DOWN = "shutting-down"
    DEAD = "dead"
    CRASHED = "crashed"


class Hypervisor:
    """One VMM instance bound to a physical machine."""

    def __init__(
        self,
        machine: PhysicalMachine,
        profile: TimingProfile,
        faults: AgingFaults | None = None,
        generation: int = 1,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.profile = profile
        self.faults = faults if faults is not None else AgingFaults.healthy()
        self.generation = generation
        self.state = VmmState.INITIALIZING
        self.allocator = FrameAllocator(machine.memory)
        self.heap = VmmHeap(
            profile.vmm.heap_bytes,
            metrics=self.sim.metrics,
            owner=machine.name,
        )
        self.domains: dict[str, Domain] = {}
        self.event_channels = EventChannelTable(metrics=self.sim.metrics)
        self.grant_table = GrantTable()
        self.scheduler = CreditScheduler(machine.cpu)
        self.xenstore: Xenstore | None = None
        self.toolstack = Resource(self.sim, capacity=1, name="toolstack")
        self.hypercall_counts: dict[str, int] = {}
        self._domids = itertools.count(0)
        self._domain_heap: dict[str, typing.Any] = {}
        self._domain_list_cache: list[Domain] | None = None

    # -- small helpers -----------------------------------------------------------

    def _trace(self, kind: str, **fields: typing.Any) -> None:
        self.sim.trace.record(kind, vmm_generation=self.generation, **fields)

    def _duration(self, stream: str, base: float) -> float:
        return self.machine.duration(stream, base)

    def require_running(self) -> None:
        """Raise unless this VMM instance is alive and well."""
        if self.state is VmmState.CRASHED:
            raise VMMCrashed(f"VMM generation {self.generation} has crashed")
        if self.state is not VmmState.RUNNING:
            raise VMMError(
                f"VMM generation {self.generation} is {self.state.value}"
            )

    @property
    def domain_list(self) -> list[Domain]:
        """All domains, dom0 first then by domid.

        Cached until domain membership changes — cluster schedulers walk
        this list on every request, and re-sorting per call dominated the
        FIG9 profile.  Callers receive a copy they may mutate freely.
        """
        cache = self._domain_list_cache
        if cache is None:
            cache = self._domain_list_cache = sorted(
                self.domains.values(), key=lambda d: (not d.is_dom0, d.domid)
            )
        return list(cache)

    @property
    def domus(self) -> list[Domain]:
        """The unprivileged domains, by domid."""
        return [d for d in self.domain_list if not d.is_dom0]

    def _membership_changed(self) -> None:
        """A domain joined or left: drop the sorted-list cache and bump the
        simulation's placement version (see ``Simulator.placement_version``)."""
        self._domain_list_cache = None
        self.sim.placement_version += 1

    def domain(self, name: str) -> Domain:
        """Look a domain up by name; raises :class:`DomainError`."""
        try:
            return self.domains[name]
        except KeyError:
            raise DomainError(f"no domain named {name!r}") from None

    def free_bytes(self) -> int:
        """Unallocated machine memory in bytes."""
        return self.allocator.free_pages * 4096

    # -- boot ----------------------------------------------------------------------

    def boot(self) -> typing.Generator:
        """Initialize this VMM instance.  Yield-from as a process.

        Charges fixed init plus scrubbing of all *free* machine memory.
        Subclasses that preserve domain memory re-reserve it before calling
        this (see RootHammer), shrinking the scrub — the physical origin of
        the paper's negative ``reboot_vmm(n)`` slope.

        Returns the boot duration charged.
        """
        if self.state is not VmmState.INITIALIZING:
            raise VMMError("a VMM instance can only boot once")
        started = self.sim.now
        self._trace("vmm.boot.start")
        self.allocator.allocate(pages(_VMM_OWN_BYTES), "vmm")
        fixed = self._duration("vmm.boot", self.profile.vmm.boot_fixed_s)
        yield self.sim.timeout(fixed)
        self._reserve_preserved_images()
        yield from self._scrub_free_memory()
        self.state = VmmState.RUNNING
        self._trace("vmm.boot.done", duration=self.sim.now - started)
        return self.sim.now - started

    def _reserve_preserved_images(self) -> None:
        """Hook: re-reserve memory of preserved (suspended) domains before
        the boot-time scrub.  The baseline VMM preserves nothing — Xen
        3.0.4's kexec 'does not have any support to preserve the memory
        images of domain Us while a new VMM is initialized' (§4.3) — so
        this is a no-op here and overridden by RootHammer."""

    def _scrub_free_memory(self) -> typing.Generator:
        """Zero every free frame (Xen scrubs at boot); charges scrub time."""
        free_extents = self.allocator.free_extents()
        free_gib = sum(e.nbytes for e in free_extents) / GiB
        scrub = self._duration(
            "vmm.scrub", self.profile.vmm.scrub_s_per_gib * free_gib
        )
        yield self.sim.timeout(scrub)
        for extent in free_extents:
            self.machine.memory.scrub(extent)
        self._trace("vmm.scrub.done", gib=free_gib, duration=scrub)

    # -- domain lifecycle --------------------------------------------------------------

    def create_dom0(self) -> Domain:
        """Build the privileged domain (instantaneous bookkeeping; dom0's
        *boot* time is charged by the host orchestration layer)."""
        self.require_running()
        if DOM0_NAME in self.domains:
            raise DomainError("dom0 already exists")
        dom0 = Domain(
            next(self._domids),
            DOM0_NAME,
            self.profile.dom0.memory_bytes,
            privileged=True,
        )
        self._install_domain_memory(dom0)
        self.xenstore = Xenstore(faults=self.faults, metrics=self.sim.metrics)
        self.xenstore.register_domain(dom0.domid, dom0.name, dom0.memory_bytes)
        self.domains[dom0.name] = dom0
        self._membership_changed()
        dom0.transition(DomainState.RUNNING)
        self._trace("vmm.dom0.created")
        return dom0

    def create_domain(
        self, name: str, memory_bytes: int, vcpus: int = 1
    ) -> typing.Generator:
        """Create a fresh domU (the cold path).  Yield-from as a process.

        Serialized through the dom0 toolstack (the paper's per-domain
        creation cost); returns the new :class:`Domain` in RUNNING state
        with scrubbed memory — the guest must then boot.
        """
        self.require_running()
        if name in self.domains:
            raise DomainError(f"domain {name!r} already exists")
        with self.toolstack.request() as grant:
            yield grant
            yield self.sim.timeout(
                self._duration("toolstack.create", self.profile.vmm.create_domain_s)
            )
            domain = Domain(next(self._domids), name, memory_bytes, vcpus=vcpus)
            self._install_domain_memory(domain)
            self._register_domain(domain)
            domain.transition(DomainState.RUNNING)
            self._trace("vmm.domain.created", domain=name, domid=domain.domid)
        return domain

    def _install_domain_memory(self, domain: Domain) -> None:
        """Allocate machine frames and build the P2M mapping."""
        extents = self.allocator.allocate_scattered(
            pages(domain.memory_bytes), domain.name
        )
        pfn = 0
        for extent in extents:
            domain.p2m.map_extent(pfn, extent)
            pfn += extent.npages

    def _register_domain(self, domain: Domain, bind_channels: bool = True) -> None:
        """Heap, xenstore and event-channel bookkeeping for a new domain.

        ``bind_channels=False`` is used by restore/resume paths, which
        re-establish channels from the saved snapshot instead.
        """
        self._domain_heap[domain.name] = self.heap.allocate(
            _DOMAIN_STRUCT_BYTES, tag=f"domain:{domain.name}"
        )
        if self.xenstore is not None:
            self.xenstore.register_domain(
                domain.domid, domain.name, domain.memory_bytes
            )
        if bind_channels:
            self.event_channels.bind(domain.name, DOM0_NAME, "console")
            self.event_channels.bind(domain.name, DOM0_NAME, "xenstore")
        self.scheduler.set_params(domain.name, SchedulerParams())
        self.domains[domain.name] = domain
        self._membership_changed()

    def destroy_domain(self, name: str, scrub: bool = True) -> None:
        """Tear down a domain and release its resources.

        With the changeset-9392 fault active, part of the heap allocation
        leaks instead of being released — the paper's aging driver.
        """
        domain = self.domain(name)
        if domain.is_dom0:
            raise DomainError("dom0 cannot be destroyed while the VMM runs")
        domain.require_state(
            DomainState.SHUTDOWN,
            DomainState.SUSPENDED,
            DomainState.RUNNING,
            DomainState.BUILDING,
        )
        self.allocator.free_all(name, scrub=scrub)
        allocation = self._domain_heap.pop(name, None)
        if allocation is not None:
            if self.faults.leak_on_domain_destroy_bytes:
                self.heap.leak(allocation)
                self.heap.leak_bytes(
                    max(
                        0,
                        self.faults.leak_on_domain_destroy_bytes
                        - allocation.nbytes,
                    )
                )
            else:
                self.heap.release(allocation)
        self.event_channels.close_domain(name)
        self.grant_table.purge(name)
        self.scheduler.remove_domain(name)
        if self.xenstore is not None:
            self.xenstore.unregister_domain(domain.domid)
        domain.transition(DomainState.DEAD)
        del self.domains[name]
        self._membership_changed()
        self._trace("vmm.domain.destroyed", domain=name)

    # -- hypercalls ---------------------------------------------------------------------

    def hypercall(self, name: str, caller: Domain, **kwargs: typing.Any) -> typing.Any:
        """Dispatch a synchronous hypercall to its ``_hc_<name>`` handler.

        The baseline VMM defines no handlers; RootHammer adds ``xexec``
        and ``suspend``.  An unknown name charges the error-path leak.
        """
        self.require_running()
        handler = getattr(self, f"_hc_{name}", None)
        if handler is None:
            self._record_error_path()
            raise HypercallError(f"unknown hypercall {name!r}")
        self.hypercall_counts[name] = self.hypercall_counts.get(name, 0) + 1
        self.sim.metrics.counter("vmm.hypercalls", type=name).inc()
        return handler(caller, **kwargs)

    def _record_error_path(self) -> None:
        """Charge the changeset-11752 error-path leak if active."""
        if self.faults.leak_on_error_path_bytes:
            self.heap.leak_bytes(self.faults.leak_on_error_path_bytes)

    # -- save/restore through the disk (original Xen; the saved-VM baseline) ------------

    def save_domain_to_disk(
        self, name: str, variant: typing.Any = None
    ) -> typing.Generator:
        """``xm save``: write a domain's whole memory image to disk (§3.1's
        'traditional suspend/resume ... analogous to ACPI S4').

        Duration is dominated by writing ``memory_bytes`` through the disk
        model; with many concurrent saves the streams interleave and pay
        seeks — the Figure 5 behaviour.

        ``variant`` (a :class:`repro.core.save_variants.SaveVariant`)
        selects the §7 related-work accelerations: incremental saves,
        compressed images, or an i-RAM-like RAM disk.  ``None`` is the
        plain original-Xen path.
        """
        domain = self.domain(name)
        spans = self.sim.spans
        # concurrent saves get their own actor tracks; causally children
        # of the host's enclosing reboot span when one is open.
        with spans.span(
            "vmm.save", actor=name, parent=spans.current(self.machine.name)
        ):
            domain.require_state(DomainState.RUNNING)
            domain.transition(DomainState.SUSPENDING)
            self._trace("vmm.save.start", domain=name)
            if domain.guest is not None:
                yield from domain.guest.run_suspend_handler()
            tokens = self.collect_domain_tokens(domain)
            if variant is None:
                yield self.machine.disk.write(f"save:{name}", domain.memory_bytes)
            else:
                if variant.compression_cpu_s_per_gib:
                    yield self.machine.cpu.execute(
                        variant.codec_cpu_s(domain.memory_bytes)
                    )
                medium = (
                    self.machine.ramdisk if variant.medium == "ramdisk"
                    else self.machine.disk
                )
                yield medium.write(
                    f"save:{name}", variant.save_bytes(domain.memory_bytes)
                )
            self.machine.disk_store[f"saved:{name}"] = {
                "configuration": domain.configuration(),
                "execution_context": dict(domain.execution_context),
                "event_channels": self.event_channels.snapshot_domain(name),
                "tokens_by_pfn": tokens,
                "guest": domain.guest,
                "variant": variant,
            }
            domain.transition(DomainState.SUSPENDED)
            self._trace("vmm.save.done", domain=name)
            self.destroy_domain(name, scrub=False)

    def restore_domain_from_disk(self, name: str) -> typing.Generator:
        """``xm restore``: read the image back and rebuild the domain.

        Uses whatever save variant the image was written with; note that
        (as §7 observes for incremental checkpointing) restores always
        read the *full* image.
        """
        self.require_running()
        record = self.machine.disk_store.pop(f"saved:{name}", None)
        if record is None:
            raise DomainError(f"no saved image for domain {name!r} on disk")
        config = record["configuration"]
        variant = record.get("variant")
        spans = self.sim.spans
        with spans.span(
            "vmm.restore", actor=name, parent=spans.current(self.machine.name)
        ):
            with self.toolstack.request() as grant:
                yield grant
                yield self.sim.timeout(
                    self._duration(
                        "toolstack.restore", self.profile.vmm.create_domain_s
                    )
                )
                domain = Domain(
                    next(self._domids),
                    name,
                    config["memory_bytes"],
                    vcpus=config["vcpus"],
                )
                self._install_domain_memory(domain)
                self._register_domain(domain, bind_channels=False)
            if variant is None:
                yield self.machine.disk.read(f"restore:{name}", domain.memory_bytes)
            else:
                medium = (
                    self.machine.ramdisk if variant.medium == "ramdisk"
                    else self.machine.disk
                )
                yield medium.read(
                    f"restore:{name}", variant.restore_bytes(domain.memory_bytes)
                )
                if variant.compression_cpu_s_per_gib:
                    yield self.machine.cpu.execute(
                        variant.codec_cpu_s(domain.memory_bytes)
                    )
            self.write_domain_tokens(domain, record["tokens_by_pfn"])
            domain.execution_context = dict(record["execution_context"])
            self.event_channels.restore_domain(record["event_channels"])
            domain.guest = record["guest"]
            domain.transition(DomainState.RUNNING)
            if domain.guest is not None:
                domain.guest.rebind(self, domain)
                yield from domain.guest.run_resume_handler()
            self._trace("vmm.restore.done", domain=name)
        return domain

    def collect_domain_tokens(self, domain: Domain) -> dict[int, typing.Any]:
        """Snapshot the domain's memory-content sentinels, keyed by PFN.

        Content sentinels are sparse, so only the written frames are
        reverse-translated (one search of the P2M runs per frame)
        instead of building a full MFN→PFN map of the whole domain per
        save.
        """
        written = self.machine.memory._tokens
        if not written:
            return {}
        mfn_to_pfn = domain.p2m.mfn_to_pfn(written.keys())
        return {
            pfn: written[mfn]
            for mfn, pfn in mfn_to_pfn.items()
        }

    def write_domain_tokens(
        self, domain: Domain, tokens_by_pfn: dict[int, typing.Any]
    ) -> None:
        """Rewrite content sentinels into a (re)built domain's frames."""
        for pfn, token in tokens_by_pfn.items():
            self.machine.memory.write_token(domain.p2m.mfn_of(pfn), token)

    # -- shutdown ------------------------------------------------------------------------

    def shutdown(self) -> typing.Generator:
        """Tear down this VMM instance (domains must already be gone or
        suspended-with-preservation by the caller)."""
        self.require_running()
        self.state = VmmState.SHUTTING_DOWN
        self._trace("vmm.shutdown.start")
        yield self.sim.timeout(
            self._duration("vmm.shutdown", self.profile.vmm.shutdown_s)
        )
        self.state = VmmState.DEAD
        self._trace("vmm.shutdown.done")
