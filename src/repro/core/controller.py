"""RootHammer controller: the library's high-level public API.

Wraps a simulator + host + hypervisor into one object a user can drive
imperatively (build, start, rejuvenate, measure) without writing simulation
processes::

    from repro.core import RootHammer, VMSpec

    rh = RootHammer.started(vms=[VMSpec(f"vm{i}") for i in range(4)])
    report = rh.rejuvenate("warm")
    print(report.total, rh.downtime_summary(since=report.started).mean)
"""

from __future__ import annotations

import typing

from repro.analysis.downtime import (
    DowntimeInterval,
    DowntimeSummary,
    extract_downtimes,
    reboot_downtime_summary,
)
from repro.config import AgingFaults, TimingProfile, paper_testbed
from repro.core.host import Host, VMSpec
from repro.core.roothammer import RootHammerHypervisor
from repro.core.strategies import RebootReport, RebootStrategy
from repro.errors import RejuvenationError
from repro.simkernel import RandomStreams, Simulator
from repro.vmm.hypervisor import Hypervisor


class RootHammer:
    """A simulated consolidated server under RootHammer's control."""

    def __init__(
        self,
        profile: TimingProfile | None = None,
        faults: AgingFaults | None = None,
        seed: int = 0,
        hypervisor_cls: type[Hypervisor] = RootHammerHypervisor,
        host_name: str = "server",
        backend: typing.Any = None,
        metrics: bool | None = None,
    ) -> None:
        self.sim = Simulator(backend=backend, metrics=metrics)
        self.streams = RandomStreams(seed)
        self.host = Host(
            self.sim,
            profile=profile if profile is not None else paper_testbed(),
            name=host_name,
            faults=faults,
            hypervisor_cls=hypervisor_cls,
            streams=self.streams,
        )

    # -- construction ------------------------------------------------------------

    @classmethod
    def started(
        cls,
        vms: typing.Iterable[VMSpec],
        **kwargs: typing.Any,
    ) -> "RootHammer":
        """Build a controller, install ``vms`` and run the bring-up."""
        controller = cls(**kwargs)
        controller.host.install_vms(vms)
        controller.run_process(controller.host.start())
        return controller

    # -- simulation drivers -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run_process(self, generator: typing.Generator) -> typing.Any:
        """Spawn a process and run the simulation until it completes."""
        return self.sim.run(self.sim.spawn(generator))

    def run_for(self, seconds: float) -> None:
        """Advance simulated time (e.g. to age the system or let a
        workload produce steady-state throughput)."""
        if seconds < 0:
            raise RejuvenationError(f"cannot run for negative time {seconds}")
        self.sim.run(until=self.sim.now + seconds)

    # -- rejuvenation --------------------------------------------------------------------

    def rejuvenate(
        self, strategy: "str | RebootStrategy", **options: typing.Any
    ) -> RebootReport:
        """Execute a VMM reboot with the given strategy, to completion.

        ``options`` are forwarded to the strategy, e.g.
        ``rejuvenate("saved", variant=save_variants.COMPRESSED)``.
        """
        return self.run_process(self.host.reboot(strategy, **options))

    # -- measurement -----------------------------------------------------------------------

    def downtimes(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        **filters: typing.Any,
    ) -> list[DowntimeInterval]:
        """Per-service outage intervals extracted from the trace."""
        return extract_downtimes(self.sim.trace, since=since, until=until, **filters)

    def downtime_summary(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        service: str | None = None,
    ) -> DowntimeSummary:
        """Mean/min/max downtime across VMs (the Figure 6 quantity)."""
        return reboot_downtime_summary(
            self.sim.trace, since=since, until=until, service=service
        )

    # -- convenience passthroughs ---------------------------------------------------------

    def guest(self, name: str):
        """The named VM's guest image (see :meth:`Host.guest`)."""
        return self.host.guest(name)

    def vmm(self) -> Hypervisor:
        """The currently running hypervisor instance."""
        return self.host.require_vmm()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RootHammer host={self.host.name} t={self.sim.now:.6g}>"
