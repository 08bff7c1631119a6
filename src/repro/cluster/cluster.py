"""A cluster of consolidated-server hosts behind a load balancer (§6).

All hosts share one simulator but own separate machines, hypervisors and
VMs.  The load balancer dispatches each request to the next *reachable*
replica, so a host mid-rejuvenation simply drops out of rotation — the
cluster keeps serving at ``(m-1)p`` while one host reboots, exactly the
Figure 9 geometry.
"""

from __future__ import annotations

import itertools
import typing

from repro.config import TimingProfile, paper_testbed
from repro.core.host import Host, VMSpec
from repro.errors import ClusterError
from repro.guest.services import Service
from repro.simkernel import RandomStreams, Simulator


class Cluster:
    """``size`` hosts behind one load balancer.

    By default every host runs the same ``vms_per_host`` × ``services``
    fleet; pass ``vm_layout`` (one sequence of :class:`VMSpec` per host)
    for heterogeneous fleets, and ``host_names`` to override the
    ``host{i}`` naming (names also key each host's RNG stream).
    """

    def __init__(
        self,
        sim: Simulator,
        size: int,
        vms_per_host: int = 1,
        services: tuple[str, ...] = ("apache",),
        profile: TimingProfile | None = None,
        spare: bool = False,
        seed: int = 0,
        vm_layout: typing.Sequence[typing.Sequence[VMSpec]] | None = None,
        host_names: typing.Sequence[str] | None = None,
        **host_kwargs: typing.Any,
    ) -> None:
        if size < 1:
            raise ClusterError("a cluster needs at least one host")
        if vms_per_host < 1:
            raise ClusterError("each host needs at least one VM")
        if vm_layout is not None and len(vm_layout) != size:
            raise ClusterError(
                f"vm_layout describes {len(vm_layout)} hosts, size is {size}"
            )
        if host_names is not None and len(host_names) != size:
            raise ClusterError(
                f"host_names names {len(host_names)} hosts, size is {size}"
            )
        self.sim = sim
        self.profile = profile if profile is not None else paper_testbed()
        streams = RandomStreams(seed)
        self.hosts: list[Host] = []
        for index in range(size):
            name = host_names[index] if host_names is not None else f"host{index}"
            host = Host(
                sim,
                profile=self.profile,
                name=name,
                streams=streams.spawn(name),
                **host_kwargs,
            )
            if vm_layout is not None:
                host.install_vms(vm_layout[index])
            else:
                host.install_vms(
                    VMSpec(f"host{index}-vm{v}", services=services)
                    for v in range(vms_per_host)
                )
            self.hosts.append(host)
        self.spare: Host | None = None
        if spare:
            self.spare = Host(
                sim,
                profile=self.profile,
                name="spare",
                streams=streams.spawn("spare"),
                **host_kwargs,
            )
        self._index: dict[tuple[str, str], Service] = {}
        self._index_version = -1

    @property
    def size(self) -> int:
        return len(self.hosts)

    def start(self) -> typing.Generator:
        """Bring up every host (and the spare) in parallel."""
        procs = [
            self.sim.spawn(host.start(), name=f"start:{host.name}")
            for host in self.hosts
        ]
        if self.spare is not None:
            procs.append(self.sim.spawn(self.spare.start(), name="start:spare"))
        yield self.sim.all_of(procs)

    def host(self, name: str) -> Host:
        """Look a host up by name (including the spare)."""
        for candidate in self.hosts:
            if candidate.name == name:
                return candidate
        if self.spare is not None and self.spare.name == name:
            return self.spare
        raise ClusterError(f"no host named {name!r}")

    def services(self, service_name: str | None = None) -> list[Service]:
        """Every replica of the (or any) service across live hosts."""
        replicas: list[Service] = []
        for host in self.hosts + ([self.spare] if self.spare else []):
            if host.vmm is None:
                continue
            for domain in list(host.vmm.domus):
                guest = domain.guest
                if guest is None:
                    continue
                for service in guest.services:
                    if service_name is None or service.name == service_name:
                        replicas.append(service)
        return replicas

    def replica(self, service_name: str, vm_name: str) -> Service | None:
        """The replica of ``service_name`` whose guest is ``vm_name``, if any.

        Answered from an index that one pass over :meth:`services` builds,
        keeping each (service, guest) pair's first match in host order —
        exactly what scanning :meth:`services` for it returns.  The pass
        runs lazily, on the first read after the simulation's
        ``placement_version`` moved, so a host that stays down costs one
        dict read per lookup, not a scan of every host.
        """
        version = self.sim.placement_version
        if version != self._index_version:
            index: dict[tuple[str, str], Service] = {}
            for service in self.services():
                guest = service.guest
                if guest is not None:
                    index.setdefault((service.name, guest.name), service)
            self._index = index
            self._index_version = version
        return self._index.get((service_name, vm_name))


class LoadBalancer:
    """Round-robin dispatch over reachable replicas."""

    def __init__(
        self,
        sim: Simulator,
        replicas: typing.Callable[[], list[Service]],
        name: str = "lb",
    ) -> None:
        self.sim = sim
        self.replicas = replicas
        self.name = name
        self._rotation = itertools.count()
        self.dispatched = 0
        self.rejected = 0

    def pick(self) -> Service:
        """The next reachable replica; raises ClusterError if none."""
        candidates = self.replicas()
        if not candidates:
            self.rejected += 1
            raise ClusterError("no replicas registered")
        offset = next(self._rotation)
        for i in range(len(candidates)):
            service = candidates[(offset + i) % len(candidates)]
            if service.reachable:
                self.dispatched += 1
                return service
        self.rejected += 1
        raise ClusterError("no reachable replica")

    def dispatch(self, **request: typing.Any) -> typing.Generator:
        """Route one request to a replica and serve it."""
        service = self.pick()
        result = yield from service.handle_request(**request)
        return result
