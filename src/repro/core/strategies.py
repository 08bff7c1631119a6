"""The three VMM rejuvenation strategies the paper compares (§5.3).

* :func:`warm_reboot` — the contribution: on-memory suspend, quick reload,
  on-memory resume.  No disk I/O for images, no hardware reset, no guest
  reboot, page caches intact.
* :func:`saved_reboot` — original Xen's suspend/resume: every VM's memory
  image is written to and read back from disk around a normal (hardware
  reset) reboot.
* :func:`cold_reboot` — a plain reboot: orderly guest shutdown, hardware
  reset, fresh guest boot; all memory state is lost.

Each strategy returns a :class:`RebootReport` with a named phase timeline
(the raw material for the paper's Figure 7 breakdown and §5.6 model fits).
Service downtimes are *not* in the report — they are measured from trace
records by :mod:`repro.analysis.downtime`, exactly as the paper measures
from the client side.

Every strategy also runs inside a ``reboot`` causal span (actor = host
name, detail = strategy) with one ``reboot.phase`` child span per phase,
so the Perfetto exporter shows the same breakdown Figure 7 tabulates and
:func:`repro.analysis.obs.reboot_critical_path` can reconcile the two.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import typing

from repro.errors import RejuvenationError
from repro.core.roothammer import RootHammerHypervisor
from repro.vmm.domain import DomainState

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.host import Host


class RebootStrategy(enum.Enum):
    WARM = "warm"
    SAVED = "saved"
    COLD = "cold"
    DOM0_ONLY = "dom0-only"
    """Extension (§8 future work): rejuvenate only the privileged VM."""


@dataclasses.dataclass(frozen=True)
class Phase:
    """One named interval of a reboot."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class RebootReport:
    """Timeline of one completed VMM reboot."""

    strategy: RebootStrategy
    host: str
    vm_count: int
    started: float
    finished: float = 0.0
    phases: list[Phase] = dataclasses.field(default_factory=list)

    @property
    def total(self) -> float:
        return self.finished - self.started

    def phase(self, name: str) -> Phase:
        """The named phase; raises :class:`RejuvenationError` if absent."""
        for candidate in self.phases:
            if candidate.name == name:
                return candidate
        raise RejuvenationError(f"no phase named {name!r}")

    def phase_duration(self, name: str) -> float:
        """Duration of the named phase in seconds."""
        return self.phase(name).duration

    def has_phase(self, name: str) -> bool:
        """True if the reboot included the named phase."""
        return any(p.name == name for p in self.phases)

    def vmm_reboot_duration(self) -> float:
        """The paper's ``reboot_vmm`` quantity: everything between the end
        of suspend/shutdown work and the moment dom0 is back (§3.2)."""
        names = {"vmm-shutdown", "quick-reload", "hardware-reset", "vmm-boot", "dom0-boot"}
        return sum(p.duration for p in self.phases if p.name in names)


class _PhaseClock:
    """Records named phases against the simulation clock.

    :meth:`phase` is the primary API: a ``with`` block that opens a
    ``reboot.phase`` child span, runs the phase body (the enclosing
    generator keeps yielding inside it), and on exit appends the
    :class:`Phase` and the ``reboot.phase`` trace record — so the span
    tree and the report are two views of the same measured intervals by
    construction.
    """

    def __init__(self, host: "Host", report: RebootReport) -> None:
        self._host = host
        self._report = report

    def mark(self, name: str, start: float) -> None:
        now = self._host.sim.now
        self._report.phases.append(Phase(name, start, now))
        self._host.sim.trace.record(
            "reboot.phase",
            host=self._host.name,
            strategy=self._report.strategy.value,
            phase=name,
            start=start,
            end=now,
        )

    @contextlib.contextmanager
    def phase(self, name: str) -> typing.Iterator[None]:
        sim = self._host.sim
        start = sim.now
        with sim.spans.span("reboot.phase", actor=self._host.name, detail=name):
            yield
            # inside the span, so the record is causally contained in it
            self.mark(name, start)


def _begin(host: "Host", strategy: RebootStrategy) -> tuple[RebootReport, _PhaseClock]:
    if not host.started:
        raise RejuvenationError("host must be started before rebooting")
    report = RebootReport(
        strategy=strategy,
        host=host.name,
        vm_count=len(host.require_vmm().domus),
        started=host.sim.now,
    )
    host.sim.trace.record(
        "reboot.start", host=host.name, strategy=strategy.value
    )
    return report, _PhaseClock(host, report)


def _finish(host: "Host", report: RebootReport) -> RebootReport:
    report.finished = host.sim.now
    host.sim.trace.record(
        "reboot.done",
        host=host.name,
        strategy=report.strategy.value,
        total=report.total,
    )
    return report


# ---------------------------------------------------------------------------
# warm-VM reboot (the contribution, §3.1/§4)
# ---------------------------------------------------------------------------

def warm_reboot(host: "Host") -> typing.Generator:
    """On-memory suspend → quick reload → on-memory resume.

    Driver domains (§7) cannot be suspended: they are shut down before and
    cold-booted after the reload, partially re-introducing guest downtime —
    which is why the paper notes their existence 'increases the downtime'.
    """
    vmm = host.require_vmm()
    if not isinstance(vmm, RootHammerHypervisor):
        raise RejuvenationError(
            "warm reboot needs the RootHammer hypervisor (on-memory "
            "suspend/resume and quick reload are its modifications)"
        )
    report, clock = _begin(host, RebootStrategy.WARM)
    sim = host.sim
    with sim.spans.span("reboot", actor=host.name, detail="warm"):

        driver_specs = [
            spec for spec in host.vm_specs.values() if spec.driver_domain
        ]
        if driver_specs:
            with clock.phase("driver-domain-shutdown"):
                shutdowns = [
                    sim.spawn(
                        host.guest(spec.name).shutdown(),
                        name=f"shutdown:{spec.name}",
                    )
                    for spec in driver_specs
                    if spec.name in vmm.domains
                ]
                if shutdowns:
                    yield sim.all_of(shutdowns)
                for spec in driver_specs:
                    if spec.name in vmm.domains:
                        host.guest(spec.name).mark_dead()
                        vmm.destroy_domain(spec.name)

        with clock.phase("xexec-load"):
            yield from vmm.xexec_load()

        # dom0 shuts down while domU services are still running (§4.2's
        # downtime-reducing delay: the VMM, not dom0, will do the suspends).
        with clock.phase("dom0-shutdown"):
            yield from host.shutdown_dom0()

        with clock.phase("suspend"):
            yield from vmm.suspend_all_domus()

        with clock.phase("vmm-shutdown"):
            yield from vmm.shutdown()

        with clock.phase("quick-reload"):
            yield from host.machine.quick_reload_window()
            yield sim.timeout(
                host.machine.duration(
                    "quick.reload", host.profile.vmm.reload_jump_s
                )
            )

        with clock.phase("vmm-boot"):
            yield from host.boot_vmm_instance()

        with clock.phase("dom0-boot"):
            yield from host.boot_dom0()

        with clock.phase("resume"):
            new_vmm = host.require_vmm()
            if not isinstance(new_vmm, RootHammerHypervisor):
                raise RejuvenationError(
                    "warm reboot requires a RootHammerHypervisor, got "
                    f"{type(new_vmm).__name__}"
                )
            resumed = yield from new_vmm.resume_all_preserved()
            host.apply_creation_quirk(len(resumed))

        if driver_specs:
            with clock.phase("driver-domain-boot"):
                yield from host.cold_boot_guests(driver_specs)

    return _finish(host, report)


# ---------------------------------------------------------------------------
# saved-VM reboot (original Xen suspend/resume baseline, §5.3)
# ---------------------------------------------------------------------------

def saved_reboot(host: "Host", variant: typing.Any = None) -> typing.Generator:
    """Save every VM image to disk, hardware-reset, restore from disk.

    ``variant`` selects a §7 related-work acceleration (see
    :mod:`repro.core.save_variants`); ``None`` is original Xen's plain
    full-image path.
    """
    vmm = host.require_vmm()
    report, clock = _begin(host, RebootStrategy.SAVED)
    sim = host.sim
    with sim.spans.span("reboot", actor=host.name, detail="saved"):

        names = [d.name for d in vmm.domus if d.state is DomainState.RUNNING]
        with clock.phase("save"):
            saves = []
            for name in names:
                # The save of each domain is kicked off serially by dom0's
                # scripts but the disk transfers themselves overlap.
                yield sim.timeout(
                    host.machine.duration(
                        "dom0.signal", host.profile.vmm.shutdown_signal_s
                    )
                )
                saves.append(
                    sim.spawn(
                        vmm.save_domain_to_disk(name, variant=variant),
                        name=f"save:{name}",
                    )
                )
            if saves:
                yield sim.all_of(saves)

        with clock.phase("dom0-shutdown"):
            yield from host.shutdown_dom0()

        with clock.phase("vmm-shutdown"):
            yield from vmm.shutdown()

        with clock.phase("hardware-reset"):
            yield from host.machine.hardware_reset()

        with clock.phase("vmm-boot"):
            yield from host.boot_vmm_instance()

        with clock.phase("dom0-boot"):
            yield from host.boot_dom0()

        with clock.phase("restore"):
            new_vmm = host.require_vmm()
            restores = [
                sim.spawn(
                    new_vmm.restore_domain_from_disk(name),
                    name=f"restore:{name}",
                )
                for name in names
            ]
            if restores:
                yield sim.all_of(restores)
            host.apply_creation_quirk(len(restores))

    return _finish(host, report)


# ---------------------------------------------------------------------------
# cold-VM reboot (plain reboot baseline, §5.3)
# ---------------------------------------------------------------------------

def cold_reboot(host: "Host") -> typing.Generator:
    """Orderly guest shutdown, hardware reset, fresh guest boot."""
    vmm = host.require_vmm()
    report, clock = _begin(host, RebootStrategy.COLD)
    sim = host.sim
    with sim.spans.span("reboot", actor=host.name, detail="cold"):

        domus = [d for d in vmm.domus if d.state is DomainState.RUNNING]
        with clock.phase("guest-shutdown"):
            shutdowns = []
            for domain in domus:
                # dom0's shutdown script signals the guests one at a time.
                yield sim.timeout(
                    host.machine.duration(
                        "dom0.signal", host.profile.vmm.shutdown_signal_s
                    )
                )
                domain.transition(DomainState.SHUTTING_DOWN)
                if domain.guest is not None:
                    shutdowns.append(
                        sim.spawn(
                            domain.guest.shutdown(),
                            name=f"shutdown:{domain.name}",
                        )
                    )
            if shutdowns:
                yield sim.all_of(shutdowns)
            for domain in domus:
                domain.transition(DomainState.SHUTDOWN)
                if domain.guest is not None:
                    domain.guest.mark_dead()
                vmm.destroy_domain(domain.name)

        with clock.phase("dom0-shutdown"):
            yield from host.shutdown_dom0()

        with clock.phase("vmm-shutdown"):
            yield from vmm.shutdown()

        with clock.phase("hardware-reset"):
            yield from host.machine.hardware_reset()

        with clock.phase("vmm-boot"):
            yield from host.boot_vmm_instance()

        with clock.phase("dom0-boot"):
            yield from host.boot_dom0()

        with clock.phase("guest-boot"):
            specs = [host.vm_specs[d.name] for d in domus]
            yield from host.cold_boot_guests(specs)

    return _finish(host, report)


# ---------------------------------------------------------------------------
# dom0-only reboot (extension: §8 lists rebooting the privileged VM without
# the VMM as future work)
# ---------------------------------------------------------------------------

def dom0_reboot(host: "Host") -> typing.Generator:
    """Reboot only domain 0; the VMM and all domUs keep their state.

    Rejuvenates dom0's aging (e.g. xenstored leaks, §2) without touching
    the hypervisor.  Because dom0 hosts the I/O backends, domU services
    are unreachable while it is down — so this is cheaper than any full
    VMM reboot in *state lost*, and comparable to the warm reboot in
    downtime.
    """
    host.require_vmm()
    report, clock = _begin(host, RebootStrategy.DOM0_ONLY)
    sim = host.sim

    guests = host.guests()

    def mark(direction: str, reason: str) -> None:
        for guest in guests:
            for service in guest.services:
                if service.is_up:
                    sim.trace.record(
                        f"service.{direction}",
                        service=service.name,
                        service_kind=service.kind,
                        domain=guest.name,
                        reason=reason,
                    )

    with sim.spans.span("reboot", actor=host.name, detail="dom0-only"):

        with clock.phase("dom0-shutdown"):
            mark("down", "dom0-reboot")
            yield from host.shutdown_dom0()

        with clock.phase("dom0-boot"):
            vmm = host.require_vmm()
            dom0 = vmm.domain("Domain-0")
            dom0.state = DomainState.BUILDING  # rebuilt in place by the VMM
            dom0.transition(DomainState.RUNNING)
            vmm.xenstore = type(vmm.xenstore)(  # fresh daemon
                faults=host.faults, metrics=sim.metrics
            )
            yield sim.timeout(
                host.machine.duration("dom0.boot", host.profile.dom0.boot_s)
            )
            mark("up", "dom0-reboot")

    return _finish(host, report)


_STRATEGY_FUNCTIONS: dict[RebootStrategy, typing.Callable] = {
    RebootStrategy.WARM: warm_reboot,
    RebootStrategy.SAVED: saved_reboot,
    RebootStrategy.COLD: cold_reboot,
    RebootStrategy.DOM0_ONLY: dom0_reboot,
}


def execute(
    host: "Host",
    strategy: "str | RebootStrategy",
    **options: typing.Any,
) -> typing.Generator:
    """Run the named strategy on ``host``; returns its RebootReport.

    ``options`` are forwarded to the strategy function (currently only
    ``variant=`` for the saved-VM reboot).
    """
    if isinstance(strategy, str):
        try:
            strategy = RebootStrategy(strategy.lower())
        except ValueError:
            raise RejuvenationError(f"unknown reboot strategy {strategy!r}") from None
    function = _STRATEGY_FUNCTIONS[strategy]
    if options and strategy is not RebootStrategy.SAVED:
        raise RejuvenationError(
            f"strategy {strategy.value!r} takes no options, got {sorted(options)}"
        )
    report = yield from function(host, **options)
    return report
