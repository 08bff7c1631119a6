"""RootHammer: the paper's modified hypervisor (§4).

:class:`RootHammerHypervisor` extends the baseline Xen-alike with the two
mechanisms the warm-VM reboot is built from:

* **on-memory suspend/resume** (§4.2): :meth:`suspend_domain_on_memory`
  freezes a domain's memory image *in place* — the P2M snapshot and the
  16 KB execution state go to the preserved store, the frames are never
  freed and never written to disk — and :meth:`resume_domain_on_memory`
  rebuilds a domain record around the untouched image.  Suspend cost is
  therefore (nearly) independent of memory size, the property Figure 4
  demonstrates.

* **quick reload** (§4.3): the ``xexec`` hypercall loads a successor
  VMM+dom0 image into memory; :meth:`_reserve_preserved_images` makes the
  successor re-adopt every preserved extent *before* its boot-time scrub,
  so initialization cannot corrupt frozen images — and scrubs less, which
  is why ``reboot_vmm(n)`` *falls* as more memory is preserved.
"""

from __future__ import annotations

import typing

from repro.errors import DomainError, HypercallError, RejuvenationError
from repro.memory import P2MTable, SuspendImage
from repro.units import GiB
from repro.vmm.domain import Domain, DomainState
from repro.vmm.hypervisor import Hypervisor


class RootHammerHypervisor(Hypervisor):
    """A Xen 3.0.0 with the RootHammer modifications applied."""

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        self.loaded_successor_image: dict[str, typing.Any] | None = None

    # -- xexec: loading the successor VMM (§4.3) --------------------------------------

    def _hc_xexec(self, caller: Domain, image: dict[str, typing.Any] | None = None) -> None:
        """Load a new executable image (VMM + dom0 kernel + initrd) into
        memory, ready for the quick reload jump.  dom0-only."""
        if not caller.is_dom0:
            self._record_error_path()
            raise HypercallError("xexec may only be issued by domain 0")
        self.loaded_successor_image = image or {
            "vmm": f"roothammer-gen{self.generation + 1}",
            "dom0_kernel": "vmlinuz-2.6.12-xen0",
            "initrd": "initrd-2.6.12-xen0.img",
        }
        self._trace("vmm.xexec.loaded")

    def xexec_load(self) -> typing.Generator:
        """dom0's xexec system call: charges the image-load time and issues
        the xexec hypercall (§4.3)."""
        dom0 = self.domain("Domain-0")
        yield self.sim.timeout(
            self._duration("vmm.xexec", self.profile.vmm.image_load_s)
        )
        self.hypercall("xexec", dom0)

    @property
    def ready_for_quick_reload(self) -> bool:
        return self.loaded_successor_image is not None

    # -- the suspend hypercall + on-memory suspend (§4.2) -------------------------------

    def _hc_suspend(self, caller: Domain) -> SuspendImage:
        """Freeze the calling domain's memory image in place.

        Issued by the guest kernel at the end of its suspend handler.  The
        frames stay allocated (maintained via the P2M table); only the
        16 KB execution state and the domain configuration are written to
        the preserved area.
        """
        caller.require_state(DomainState.SUSPENDING)
        # The handler must have drained I/O: no live grants may remain
        # (otherwise dom0 backends could scribble on a frozen image).
        self.grant_table.require_quiesced(caller.name)
        image = SuspendImage(
            domain_name=caller.name,
            p2m_snapshot=caller.p2m.snapshot(),
            execution_state={
                "context": dict(caller.execution_context),
                "event_channels": self.event_channels.snapshot_domain(caller.name),
            },
            configuration={
                **caller.configuration(),
                "guest_image": caller.guest,
            },
        )
        self.machine.preserved.save(image)
        caller.transition(DomainState.SUSPENDED)
        self._trace("vmm.onmem.suspended", domain=caller.name)
        return image

    def suspend_domain_on_memory(self, name: str) -> typing.Generator:
        """On-memory suspend of one domU: send the suspend event, run the
        guest handler, take the suspend hypercall.  The VMM (not dom0)
        drives this, so it can run after dom0 has already shut down — the
        delay that keeps services up longer (§4.2)."""
        domain = self.domain(name)
        if domain.is_dom0:
            raise DomainError("dom0 cannot be on-memory suspended (§8 future work)")
        spans = self.sim.spans
        # domains suspend concurrently, so each is its own span actor; the
        # causal parent is the host's enclosing reboot span (if any).
        with spans.span(
            "vmm.suspend",
            actor=name,
            parent=spans.current(self.machine.name),
        ):
            domain.require_state(DomainState.RUNNING)
            domain.transition(DomainState.SUSPENDING)
            if domain.guest is not None:
                yield from domain.guest.run_suspend_handler()
            freeze = self.profile.vmm.suspend_base_s + (
                self.profile.vmm.suspend_s_per_gib * (domain.memory_bytes / GiB)
            )
            yield self.sim.timeout(self._duration("onmem.suspend", freeze))
            self.hypercall("suspend", domain)

    def suspend_all_domus(self) -> typing.Generator:
        """Suspend every domU in parallel (the pre-reboot step of Fig. 3)."""
        names = [d.name for d in self.domus if d.state is DomainState.RUNNING]
        procs = [
            self.sim.spawn(
                self.suspend_domain_on_memory(name), name=f"suspend:{name}"
            )
            for name in names
        ]
        if procs:
            yield self.sim.all_of(procs)
        return names

    # -- quick-reload boot path (§4.3) ----------------------------------------------------

    def _reserve_preserved_images(self) -> None:
        """Replay preserved P2M tables into the fresh allocator before the
        boot-time scrub — the new VMM 'first reserves the memory for the
        P2M-mapping table [and] the memory pages that have been allocated
        to domain Us' (§4.3)."""
        for image in self.machine.preserved.images():
            p2m = P2MTable.from_snapshot(image.domain_name, image.p2m_snapshot)
            for extent in p2m.machine_extents():
                self.allocator.reserve_exact(extent, image.domain_name)
            self._trace("vmm.preserved.reserved", domain=image.domain_name)

    # -- on-memory resume (§4.2) ------------------------------------------------------------

    def resume_domain_on_memory(self, name: str) -> typing.Generator:
        """Rebuild a domain around its preserved, untouched memory image.

        dom0 'creates a new domain U, allocates the memory pages recorded
        in the P2M-mapping table ... and restores its memory image' — here
        the allocation step is adoption of the extents already re-reserved
        at boot, and 'restoring' the image is free because it never moved.
        Serialized through the dom0 toolstack like any domain creation.
        """
        self.require_running()
        image = self.machine.preserved.load(name)
        if name in self.domains:
            raise DomainError(f"domain {name!r} already exists")
        config = image.configuration
        guest = config.get("guest_image")
        spans = self.sim.spans
        with spans.span(
            "vmm.resume",
            actor=name,
            parent=spans.current(self.machine.name),
        ):
            with self.toolstack.request() as grant:
                yield grant
                per_domain = (
                    self.profile.vmm.resume_create_s
                    + self.profile.vmm.resume_s_per_gib
                    * (config["memory_bytes"] / GiB)
                    + self.profile.vmm.resume_devices_s
                )
                yield self.sim.timeout(self._duration("onmem.resume", per_domain))
                domain = Domain(
                    next(self._domids),
                    name,
                    config["memory_bytes"],
                    vcpus=config["vcpus"],
                )
                domain.p2m = P2MTable.from_snapshot(name, image.p2m_snapshot)
                self._register_domain(domain, bind_channels=False)
                self.event_channels.restore_domain(
                    image.execution_state["event_channels"]
                )
                domain.execution_context = dict(image.execution_state["context"])
                # The new record reflects reality: frontends are still detached.
                domain.devices.detach_all()
                domain.state = DomainState.SUSPENDED  # adopted mid-suspend
            if guest is not None:
                guest.rebind(self, domain)
                yield from guest.run_resume_handler()
            domain.transition(DomainState.RUNNING)
            self.machine.preserved.discard(name)
            self._trace("vmm.onmem.resumed", domain=name)
        return domain

    def resume_all_preserved(self) -> typing.Generator:
        """Resume every preserved domain (serialized by the toolstack)."""
        resumed = []
        for name in list(self.machine.preserved.domain_names):
            domain = yield from self.resume_domain_on_memory(name)
            resumed.append(domain)
        return resumed

    def verify_no_preserved_overlap(self) -> None:
        """Invariant check: preserved images must map disjoint frames.

        Sorted by start MFN, extents overlap anywhere only if some
        neighbouring pair does, and the first such pair's later start
        is the lowest shared MFN, which the error names.
        """
        extents = sorted(
            extent
            for image in self.machine.preserved.images()
            for extent in P2MTable.from_snapshot(
                image.domain_name, image.p2m_snapshot
            ).machine_extents()
        )
        for extent, successor in zip(extents, extents[1:]):
            if successor.start < extent.end:
                raise RejuvenationError(
                    f"preserved images overlap at MFN {successor.start}"
                )
