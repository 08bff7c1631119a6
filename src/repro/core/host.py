"""One consolidated server host: machine + hypervisor + VMs.

:class:`Host` owns the orchestration that the paper's experiments exercise:
bringing up the full stack, cold-booting guests, and dispatching the three
reboot strategies.  Hypervisor *instances* come and go across reboots; the
host, like the physical machine, persists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing

from repro.config import AgingFaults, TimingProfile, paper_testbed
from repro.core.roothammer import RootHammerHypervisor
from repro.errors import RejuvenationError
from repro.guest.filesystem import Filesystem
from repro.guest.kernel import GuestKernel
from repro.guest.services import make_service
from repro.hardware.machine import PhysicalMachine
from repro.simkernel import Event, RandomStreams, Simulator
from repro.units import GiB
from repro.vmm.domain import Domain, DomainState
from repro.vmm.hypervisor import DOM0_NAME, Hypervisor, VmmState


@dataclasses.dataclass(frozen=True)
class VMSpec:
    """Static description of one VM the host should run.

    ``driver_domain=True`` marks a domU running device drivers (§7):
    such domains cannot be suspended, so a warm reboot must cold-cycle
    them — the downtime cost the paper attributes to driver domains.
    """

    name: str
    memory_bytes: int = 1 * GiB
    services: tuple[str, ...] = ("ssh",)
    vcpus: int = 1
    driver_domain: bool = False

    def build_guest(
        self, profile: TimingProfile, filesystem: Filesystem
    ) -> GuestKernel:
        """A fresh guest image for this spec (cold-boot path)."""
        return GuestKernel(
            self.name,
            self.memory_bytes,
            profile,
            filesystem=filesystem,
            services=[make_service(kind, profile.services) for kind in self.services],
        )


class Host:
    """A consolidated server: the unit the reboot strategies act on."""

    def __init__(
        self,
        sim: Simulator,
        profile: TimingProfile | None = None,
        name: str = "host",
        faults: AgingFaults | None = None,
        hypervisor_cls: type[Hypervisor] = RootHammerHypervisor,
        streams: RandomStreams | None = None,
    ) -> None:
        self.sim = sim
        self.profile = profile if profile is not None else paper_testbed()
        self.name = name
        self.faults = faults if faults is not None else AgingFaults.healthy()
        self.hypervisor_cls = hypervisor_cls
        self.machine = PhysicalMachine(sim, self.profile, name=name, streams=streams)
        self.vm_specs: dict[str, VMSpec] = {}
        self.vmm: Hypervisor | None = None
        self.generation = 0
        self.started = False
        self.rebooting = False
        """True while a :meth:`reboot` or :meth:`reboot_guest` is in
        flight on this host."""
        self._reboot_waiters: list[Event] = []
        self._crash_waiters: list[Event] = []

    # -- configuration ------------------------------------------------------------

    def install_vm(self, spec: VMSpec) -> None:
        """Register a VM and provision its virtual disk."""
        if self.started:
            raise RejuvenationError(
                "install VMs before start(); hotplug is out of scope"
            )
        if spec.name in self.vm_specs or spec.name == DOM0_NAME:
            raise RejuvenationError(f"duplicate VM name {spec.name!r}")
        self.vm_specs[spec.name] = spec
        self.machine.disk_store[f"fs:{spec.name}"] = Filesystem()

    def install_vms(self, specs: typing.Iterable[VMSpec]) -> None:
        """Register several VMs (see :meth:`install_vm`)."""
        for spec in specs:
            self.install_vm(spec)

    def filesystem(self, name: str) -> Filesystem:
        """The persistent virtual-disk catalogue of one VM."""
        try:
            return self.machine.disk_store[f"fs:{name}"]
        except KeyError:
            raise RejuvenationError(f"no VM named {name!r} installed") from None

    # -- accessors ------------------------------------------------------------------

    def require_vmm(self) -> Hypervisor:
        """The running hypervisor; raises if none (mid-reboot)."""
        if self.vmm is None:
            raise RejuvenationError(f"host {self.name!r} has no running VMM")
        return self.vmm

    def domain(self, name: str) -> Domain:
        """Look a domain up on the current hypervisor."""
        return self.require_vmm().domain(name)

    def guest(self, name: str) -> GuestKernel:
        """The named VM's guest image; raises if it has none."""
        guest = self.domain(name).guest
        if guest is None:
            raise RejuvenationError(f"domain {name!r} has no guest image")
        return guest

    def guests(self) -> list[GuestKernel]:
        """Every domU's guest image, by domain id."""
        return [
            d.guest
            for d in self.require_vmm().domus
            if d.guest is not None
        ]

    @property
    def vm_count(self) -> int:
        return len(self.vm_specs)

    # -- bring-up ----------------------------------------------------------------------

    def start(self) -> typing.Generator:
        """Power-on bring-up: VMM, dom0, then all installed VMs (cold)."""
        if self.started:
            raise RejuvenationError(f"host {self.name!r} already started")
        yield from self.boot_vmm_instance()
        yield from self.boot_dom0()
        yield from self.cold_boot_guests(self.vm_specs.values())
        self.started = True
        self.sim.trace.record("host.started", host=self.name)

    def boot_vmm_instance(self) -> Hypervisor | typing.Generator:
        """Construct and boot the next hypervisor generation."""
        self.generation += 1
        self.vmm = self.hypervisor_cls(
            self.machine,
            self.profile,
            faults=self.faults,
            generation=self.generation,
        )
        self.sim.placement_version += 1
        yield from self.vmm.boot()
        return self.vmm

    def boot_dom0(self) -> typing.Generator:
        """Create dom0 and charge its kernel + toolstack boot time."""
        vmm = self.require_vmm()
        dom0 = vmm.create_dom0()
        yield self.sim.timeout(
            self.machine.duration("dom0.boot", self.profile.dom0.boot_s)
        )
        self.sim.trace.record("host.dom0.booted", host=self.name)
        return dom0

    def shutdown_dom0(self) -> typing.Generator:
        """dom0's orderly shutdown (its services stop, kernel halts)."""
        vmm = self.require_vmm()
        dom0 = vmm.domain(DOM0_NAME)
        dom0.transition(DomainState.SHUTTING_DOWN)
        yield self.sim.timeout(
            self.machine.duration("dom0.shutdown", self.profile.dom0.shutdown_s)
        )
        dom0.transition(DomainState.SHUTDOWN)
        self.sim.trace.record("host.dom0.shutdown", host=self.name)

    def cold_boot_guests(
        self, specs: typing.Iterable[VMSpec]
    ) -> typing.Generator:
        """Create domains (serialized by the toolstack) and boot fresh
        guest images in parallel; applies the simultaneous-creation
        network quirk when several domains start at once."""
        vmm = self.require_vmm()
        specs = list(specs)
        boots = []
        for spec in specs:
            domain = yield from vmm.create_domain(
                spec.name, spec.memory_bytes, vcpus=spec.vcpus
            )
            guest = spec.build_guest(self.profile, self.filesystem(spec.name))
            guest.rebind(vmm, domain)
            boots.append(self.sim.spawn(guest.boot(), name=f"boot:{spec.name}"))
        self.apply_creation_quirk(len(specs))
        if boots:
            yield self.sim.all_of(boots)
        return [proc.value for proc in boots]

    def apply_creation_quirk(self, created_count: int) -> None:
        """The Xen 3.0.0 artifact behind Figure 7's post-resume dip:
        creating several VMs at once degrades network performance for a
        while.  Modelled as a temporary NIC bandwidth factor."""
        quirks = self.profile.quirks
        if (
            created_count < quirks.min_vms_for_slump
            or quirks.post_create_network_slump_s <= 0
        ):
            return
        self.machine.nic.set_degradation(quirks.post_create_network_factor)
        self.sim.trace.record("host.quirk.slump.start", host=self.name)
        self.sim.call_in(
            quirks.post_create_network_slump_s, self._end_network_slump
        )

    def _end_network_slump(self) -> None:
        """The slump timer: bound to this host, so the sanitizer treats
        hosts whose slumps end at the same instant as independent."""
        self.machine.nic.clear_degradation()
        self.sim.trace.record("host.quirk.slump.end", host=self.name)

    def crash(self, reason: str = "aging") -> None:
        """The failure rejuvenation exists to preempt: the VMM dies.

        A crashed VMM freezes every domain: their services stop answering
        instantly (recorded so downtime measurement sees the outage begin
        at the crash, not at its later detection).  Then every event
        :meth:`vmm_crashed` handed out fires.
        """
        vmm = self.require_vmm()
        vmm.state = VmmState.CRASHED
        self.sim.trace.record(
            "vmm.crash", vmm_generation=vmm.generation, reason=reason
        )
        for domain in vmm.domus:
            guest = domain.guest
            if guest is None:
                continue
            for service in guest.services:
                if service.is_up:
                    self.sim.trace.record(
                        "service.down",
                        service=service.name,
                        service_kind=service.kind,
                        domain=domain.name,
                        reason="vmm-crash",
                    )
        waiters, self._crash_waiters = self._crash_waiters, []
        for waiter in waiters:
            waiter.succeed()

    def vmm_crashed(self) -> Event:
        """An event that fires at this host's next :meth:`crash`, whatever
        VMM generation it hits.  Like :meth:`reboot_finished`, only an
        asked-for event is ever scheduled."""
        waiter = self.sim.event(name=f"vmm-crashed:{self.name}")
        self._crash_waiters.append(waiter)
        return waiter

    def recover_from_crash(self) -> typing.Generator:
        """Unplanned recovery after a VMM crash (the reactive path that
        rejuvenation exists to preempt): no orderly shutdown is possible,
        so the machine is hardware-reset and everything cold-boots.

        Returns the recovery duration.
        """
        vmm = self.require_vmm()
        if vmm.state is not VmmState.CRASHED:
            raise RejuvenationError("recover_from_crash needs a crashed VMM")
        started = self.sim.now
        self.sim.trace.record("host.crash_recovery.start", host=self.name)
        for domain in vmm.domus:
            if domain.guest is not None:
                domain.guest.mark_dead()
        yield from self.machine.hardware_reset()
        yield from self.boot_vmm_instance()
        yield from self.boot_dom0()
        yield from self.cold_boot_guests(self.vm_specs.values())
        self.sim.trace.record(
            "host.crash_recovery.done",
            host=self.name,
            duration=self.sim.now - started,
        )
        return self.sim.now - started

    def reboot_guest(
        self, name: str, checkpoint_processes: bool = False
    ) -> typing.Generator:
        """OS rejuvenation of a single VM (§3.2): orderly shutdown, destroy,
        fresh create + boot.  The VMM keeps running; other VMs are
        untouched.  Returns the new guest image.

        ``checkpoint_processes=True`` applies the §7 Randell-style
        alternative one level down: service processes are checkpointed to
        the virtual disk before the reboot and *restored* instead of
        cold-started afterwards — the OS is rejuvenated but the
        application state (and its expensive start) is not repaid.

        A guest reboot holds the same exclusion as :meth:`reboot`.
        """
        with self._exclusive():
            guest = yield from self._reboot_guest(name, checkpoint_processes)
        return guest

    def _reboot_guest(
        self, name: str, checkpoint_processes: bool
    ) -> typing.Generator:
        vmm = self.require_vmm()
        spec = self.vm_specs.get(name)
        if spec is None:
            raise RejuvenationError(f"no VM named {name!r} installed")
        domain = vmm.domain(name)
        started = self.sim.now
        spans = self.sim.spans
        with spans.span(
            "guest.rejuvenation",
            actor=name,
            parent=spans.current(self.name),
        ):
            self.sim.trace.record("guest.rejuvenation.start", domain=name)
            checkpoints: list[dict[str, typing.Any]] = []
            if checkpoint_processes and domain.guest is not None:
                costs = self.profile.services
                for service in domain.guest.services:
                    if service.is_up:
                        checkpoints.append(service.checkpoint())
                        yield self.machine.disk.write(
                            f"{name}:ckpt:{service.name}", costs.checkpoint_bytes
                        )
            domain.transition(DomainState.SHUTTING_DOWN)
            if domain.guest is not None:
                yield from domain.guest.shutdown()
                domain.guest.mark_dead()
            domain.transition(DomainState.SHUTDOWN)
            vmm.destroy_domain(name)
            if not checkpoints:
                guests = yield from self.cold_boot_guests([spec])
                guest = guests[0]
            else:
                guest = yield from self._boot_guest_from_checkpoints(
                    spec, checkpoints
                )
            self.sim.trace.record(
                "guest.rejuvenation.done",
                domain=name,
                duration=self.sim.now - started,
            )
        return guest

    def _boot_guest_from_checkpoints(
        self, spec: VMSpec, checkpoints: list[dict[str, typing.Any]]
    ) -> typing.Generator:
        """Boot a fresh kernel but restore services from checkpoints."""
        vmm = self.require_vmm()
        domain = yield from vmm.create_domain(
            spec.name, spec.memory_bytes, vcpus=spec.vcpus
        )
        guest = spec.build_guest(self.profile, self.filesystem(spec.name))
        # Detach the pre-built service objects: the kernel boots bare and
        # the processes come back from their checkpoints instead.
        services, guest.services = guest.services, []
        guest.rebind(vmm, domain)
        yield from guest.boot()
        guest.services = services
        by_kind: dict[str, list[dict[str, typing.Any]]] = {}
        for state in checkpoints:
            by_kind.setdefault(state["kind"], []).append(state)
        for service in services:
            saved = by_kind.get(service.kind)
            if saved:
                yield from service.start_from_checkpoint(guest, saved.pop(0))
            else:
                yield from service.start(guest)
        return guest

    def restart_service(self, vm_name: str, service_name: str) -> typing.Generator:
        """Microreboot (§7, Candea et al.): restart one service process in
        place — the finest rejuvenation granularity.  Nothing else on the
        VM (let alone the host) is touched."""
        guest = self.guest(vm_name)
        service = guest.service(service_name)
        self.sim.trace.record(
            "service.microreboot", domain=vm_name, service=service_name
        )
        service.mark_stopped(reason="microreboot")
        yield from service.start(guest)
        return service

    # -- rejuvenation entry point -------------------------------------------------------

    def reboot(
        self, strategy: "str | typing.Any", **options: typing.Any
    ) -> typing.Generator:
        """Reboot the VMM using a strategy name or RebootStrategy value.

        ``options`` are forwarded to the strategy (e.g. ``variant=`` to
        pick a §7 save acceleration for the saved-VM reboot).  Returns the
        strategy's :class:`~repro.core.strategies.RebootReport`.

        Reboots of one host — this and :meth:`reboot_guest` — are
        mutually exclusive: starting one while another is in flight
        raises :class:`RejuvenationError` before anything happens.  A
        caller that must reboot next waits on :meth:`reboot_finished`
        first.
        """
        from repro.core import strategies  # local import: cycle guard

        with self._exclusive():
            report = yield from strategies.execute(self, strategy, **options)
        return report

    @contextlib.contextmanager
    def _exclusive(self) -> typing.Iterator[None]:
        """Hold this host's reboot exclusion; wake waiters on release."""
        if self.rebooting:
            raise RejuvenationError(f"host {self.name!r} is already rebooting")
        self.rebooting = True
        try:
            yield
        finally:
            self.rebooting = False
            waiters, self._reboot_waiters = self._reboot_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def reboot_finished(self) -> Event:
        """An event that fires when the reboot in flight ends, however it
        ends.  Only an asked-for event is ever scheduled, so a reboot
        nobody waits on adds nothing to the simulation's schedule."""
        if not self.rebooting:
            raise RejuvenationError(f"host {self.name!r} is not rebooting")
        waiter = self.sim.event(name=f"reboot-finished:{self.name}")
        self._reboot_waiters.append(waiter)
        return waiter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Host {self.name} gen={self.generation} vms={self.vm_count}>"
