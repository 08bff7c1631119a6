"""Guest services: sshd, Apache, JBoss — the paper's workloads.

A service is reachable only while it is UP, its guest is RUNNING, and the
host NIC is up; downtime experiments measure exactly the gaps in that
predicate (via ``service.down``/``service.up`` trace records emitted here
and by the guest kernel on suspend/resume).

Start costs are two-phase (disk reads, then CPU), which is what makes
JBoss so much more expensive to restart than sshd — the Figure 6(b)
versus 6(a) difference — and what makes parallel restarts contend.
"""

from __future__ import annotations

import enum
import typing

from repro.config import ServiceCosts
from repro.errors import ServiceError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.guest.kernel import GuestKernel


class ServiceState(enum.Enum):
    STOPPED = "stopped"
    STARTING = "starting"
    UP = "up"
    STOPPING = "stopping"


class Service:
    """Base class: a long-running server process inside a guest."""

    kind = "generic"

    def __init__(self, name: str, read_bytes: int, cpu_s: float) -> None:
        self.name = name
        self.read_bytes = read_bytes
        self.cpu_s = cpu_s
        self.state = ServiceState.STOPPED
        self.guest: "GuestKernel | None" = None
        self.start_count = 0
        self.requests_served = 0
        self.restored_from_checkpoint = False

    # -- reachability -----------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state is ServiceState.UP

    @property
    def reachable(self) -> bool:
        """Can a remote client get a response right now?"""
        guest = self.guest
        if guest is None or self.state is not ServiceState.UP:
            return False
        return guest.is_network_reachable

    # -- lifecycle ----------------------------------------------------------------

    def start(self, guest: "GuestKernel") -> typing.Generator:
        """Start inside ``guest``; charges disk then CPU phases."""
        if self.state is not ServiceState.STOPPED:
            raise ServiceError(f"{self.name} cannot start from {self.state.value}")
        self.guest = guest
        self.state = ServiceState.STARTING
        machine = guest.machine
        machine.sim.placement_version += 1
        if self.read_bytes:
            yield machine.disk.read(f"{guest.name}:svc:{self.name}", self.read_bytes)
        if self.cpu_s:
            yield guest.cpu_execute(guest.duration(f"svc.{self.kind}", self.cpu_s))
        # A cold start is a brand-new process: in-memory application
        # state does not survive (that's what checkpoints are for).
        self.requests_served = 0
        self.restored_from_checkpoint = False
        self.state = ServiceState.UP
        self.start_count += 1
        guest.sim.trace.record(
            "service.up",
            service=self.name,
            service_kind=self.kind,
            domain=guest.name,
            reason="start",
        )
        return self

    def mark_stopped(self, reason: str) -> None:
        """Process killed (guest shutdown): immediate, connection-resetting."""
        if self.state in (ServiceState.UP, ServiceState.STARTING):
            self.state = ServiceState.STOPPED
            if self.guest is not None:
                self.guest.sim.trace.record(
                    "service.down",
                    service=self.name,
                    service_kind=self.kind,
                    domain=self.guest.name,
                    reason=reason,
                )

    # -- process checkpointing (§7, Randell-style) -----------------------------------

    def checkpoint(self) -> dict[str, typing.Any]:
        """Snapshot the process's application state (taken while UP)."""
        if not self.is_up:
            raise ServiceError(f"cannot checkpoint stopped {self.name}")
        return {
            "name": self.name,
            "kind": self.kind,
            "requests_served": self.requests_served,
        }

    def start_from_checkpoint(
        self, guest: "GuestKernel", state: dict[str, typing.Any]
    ) -> typing.Generator:
        """Rebuild the process from a checkpoint: reads the (much smaller)
        checkpoint image instead of cold-starting, and resumes application
        state.  Connections are still lost (the network stack's state is
        not checkpointed), so ``start_count`` advances."""
        if self.state is not ServiceState.STOPPED:
            raise ServiceError(
                f"{self.name} cannot restore from {self.state.value}"
            )
        if state.get("kind") != self.kind:
            raise ServiceError(
                f"checkpoint of kind {state.get('kind')!r} does not fit "
                f"{self.kind!r}"
            )
        self.guest = guest
        self.state = ServiceState.STARTING
        costs = guest.profile.services
        machine = guest.machine
        machine.sim.placement_version += 1
        if costs.checkpoint_bytes:
            yield machine.disk.read(
                f"{guest.name}:ckpt:{self.name}", costs.checkpoint_bytes
            )
        if costs.checkpoint_restore_cpu_s:
            yield guest.cpu_execute(costs.checkpoint_restore_cpu_s)
        self.requests_served = int(state.get("requests_served", 0))
        self.restored_from_checkpoint = True
        self.state = ServiceState.UP
        self.start_count += 1
        guest.sim.trace.record(
            "service.up",
            service=self.name,
            service_kind=self.kind,
            domain=guest.name,
            reason="checkpoint-restore",
        )
        return self

    # -- requests -----------------------------------------------------------------

    def handle_request(self, **kwargs: typing.Any) -> typing.Generator:
        """Serve one client request (subclasses define the work)."""
        raise ServiceError(f"{self.kind} serves no requests")
        yield  # pragma: no cover


class SshServer(Service):
    """A lightweight always-on service (Figure 6(a))."""

    kind = "ssh"

    def __init__(self, costs: ServiceCosts, name: str = "sshd") -> None:
        super().__init__(name, costs.ssh_read_bytes, costs.ssh_cpu_s)

    def handle_request(self, payload_bytes: int = 256) -> typing.Generator:
        """An interactive keystroke echo: tiny CPU + NIC."""
        # Reachability inlined: this predicate runs once per request, and
        # the property chain is measurable in the serving experiments.
        guest = self.guest
        if (
            guest is None
            or self.state is not ServiceState.UP
            or not guest.is_network_reachable
        ):
            raise ServiceError(f"{self.name} unreachable")
        yield guest.cpu_execute(1e-5)
        yield guest.machine.nic.transmit(payload_bytes)
        self.requests_served += 1
        return payload_bytes


class ApacheServer(Service):
    """The web server of Figures 7 and 8(b): serves files through the
    guest page cache and the host NIC."""

    kind = "apache"

    def __init__(
        self, costs: ServiceCosts, name: str = "apache"
    ) -> None:
        super().__init__(name, costs.apache_read_bytes, costs.apache_cpu_s)
        self._request_cpu_s = costs.request_cpu_s

    def handle_request(self, path: str = "") -> typing.Generator:
        """GET ``path``: read (cache or disk), then transmit the body."""
        # Reachability inlined — the hottest request path in FIG7/8/9.
        guest = self.guest
        if (
            guest is None
            or self.state is not ServiceState.UP
            or not guest.is_network_reachable
        ):
            raise ServiceError(f"{self.name} unreachable")
        if self._request_cpu_s:
            yield guest.cpu_execute(self._request_cpu_s)
        nbytes = yield from guest.read_file(path)
        yield guest.machine.nic.transmit(nbytes)
        self.requests_served += 1
        return nbytes


class JBossServer(Service):
    """A heavyweight application server: slow to start (§5.3), which is
    what stretches the cold-VM reboot's downtime to 241 s at 11 VMs."""

    kind = "jboss"

    def __init__(self, costs: ServiceCosts, name: str = "jboss") -> None:
        super().__init__(name, costs.jboss_read_bytes, costs.jboss_cpu_s)

    def handle_request(self, work_cpu_s: float = 0.002) -> typing.Generator:
        """One application request: CPU-bound business logic + small reply."""
        guest = self.guest
        if (
            guest is None
            or self.state is not ServiceState.UP
            or not guest.is_network_reachable
        ):
            raise ServiceError(f"{self.name} unreachable")
        yield guest.cpu_execute(work_cpu_s)
        yield guest.machine.nic.transmit(2048)
        self.requests_served += 1
        return 2048


SERVICE_FACTORIES: dict[str, typing.Callable[[ServiceCosts], Service]] = {
    "ssh": SshServer,
    "apache": ApacheServer,
    "jboss": JBossServer,
}


def make_service(kind: str, costs: ServiceCosts) -> Service:
    """Instantiate a service by kind name (``ssh``/``apache``/``jboss``)."""
    try:
        factory = SERVICE_FACTORIES[kind]
    except KeyError:
        raise ServiceError(f"unknown service kind {kind!r}") from None
    return factory(costs)
