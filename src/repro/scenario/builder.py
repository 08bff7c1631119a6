"""Materialize a :class:`~repro.scenario.spec.ScenarioSpec` into a stack.

:class:`ScenarioBuilder` is the one place in the repository that turns a
declarative spec into running simulation objects: a single-host
:class:`~repro.core.RootHammer` or a multi-host
:class:`~repro.cluster.Cluster`, with the fleet installed, the bring-up
run, workload clients attached and fault/maintenance machinery ready.
Experiment modules, the parallel sweep engine and the ``scenario run``
CLI all construct their testbeds through it, so serial, pooled and cached
runs of the same spec are bit-identical by construction.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cluster import Cluster
from repro.cluster.migration import MigrationSpec, live_migrate
from repro.config import TimingProfile, paper_testbed, small_testbed
from repro.control import PlanExecutor, campaign
from repro.core import RootHammer
from repro.core.host import Host
from repro.core.host import VMSpec as CoreVMSpec
from repro.errors import ReproError, ScenarioError
from repro.guest.kernel import GuestKernel
from repro.scenario.spec import ScenarioSpec, VMSpec, WorkloadSpec, layout
from repro.simkernel import Simulator
from repro.workloads.httperf import FluidCoordinator, FluidHttperf, Httperf
from repro.workloads.prober import PingProber


def resolve_profile(name: str) -> TimingProfile:
    """The calibrated :class:`TimingProfile` a spec names."""
    if name == "paper":
        return paper_testbed()
    if name == "small":
        return small_testbed()
    raise ScenarioError(f"unknown profile {name!r}")


@dataclasses.dataclass
class AttachedWorkload:
    """One client attached to one VM by the builder."""

    spec: WorkloadSpec
    host: Host
    vm_name: str
    paths: list[str]
    client: "Httperf | FluidHttperf | PingProber | None"
    """The started client process owner; ``None`` for ``fileread`` (the
    runner drives timed reads imperatively)."""

    def stop(self) -> None:
        if self.client is not None:
            self.client.stop()


@dataclasses.dataclass
class BuiltScenario:
    """A started stack plus handles to everything a runner needs."""

    spec: ScenarioSpec
    sim: Simulator
    controller: RootHammer | None
    cluster: Cluster | None
    workloads: list[AttachedWorkload]
    fluid: FluidCoordinator | None = None
    """The fluid-workload tick driver; created on first fluid attach."""

    @property
    def hosts(self) -> list[Host]:
        if self.cluster is not None:
            return list(self.cluster.hosts)
        assert_controller = self.controller
        if assert_controller is None:  # pragma: no cover - builder invariant
            raise ScenarioError("built scenario has neither controller nor cluster")
        return [assert_controller.host]

    def host_of(self, vm_name: str) -> Host:
        """The host a named VM is installed on."""
        for host in self.hosts:
            if vm_name in host.vm_specs:
                return host
        raise ScenarioError(f"no VM named {vm_name!r} in scenario {self.spec.name!r}")

    def guest(self, vm_name: str) -> GuestKernel:
        """The named VM's current guest image."""
        return self.host_of(vm_name).guest(vm_name)

    def _hosts_and_spare(self) -> list[Host]:
        spare = self.cluster.spare if self.cluster is not None else None
        return self.hosts + ([spare] if spare is not None else [])

    def migrate(self, source: str, target: str, vm: str) -> typing.Generator:
        """Live-migrate ``vm`` between two named hosts, the spare included
        (the executor's migration mechanism; a process body)."""
        hosts = {host.name: host for host in self._hosts_and_spare()}
        yield from live_migrate(hosts[source], hosts[target], vm, MigrationSpec())

    def executor(self) -> PlanExecutor:
        """A maintenance :class:`~repro.control.PlanExecutor` over every
        host plus the spare, on its own ``maintenance`` span track."""
        return PlanExecutor(
            self.sim,
            {host.name: host for host in self._hosts_and_spare()},
            migrate=self.migrate,
            actor="maintenance",
        )

    def campaign(self, executor: PlanExecutor) -> typing.Generator:
        """The spec's rolling or migration pass, run by ``executor``."""
        maintenance = self.spec.maintenance
        if maintenance is None or maintenance.kind not in ("rolling", "migration"):
            raise ScenarioError(
                f"scenario {self.spec.name!r} has no cluster maintenance"
            )
        if self.cluster is None:  # pragma: no cover - spec validation bars this
            raise ScenarioError("cluster maintenance on a single-host scenario")
        if maintenance.kind == "migration":
            return campaign(
                executor, self.hosts, maintenance.strategy, spare=self.cluster.spare
            )
        return campaign(
            executor,
            self.hosts,
            maintenance.strategy,
            settle_s=maintenance.settle_s,
        )

    def stop_workloads(self) -> None:
        """Stop every attached client (pending requests are abandoned)."""
        for workload in self.workloads:
            workload.stop()


class ScenarioBuilder:
    """Builds the stack a spec describes; see the module docstring.

    ``profile`` overrides the spec's named profile with an explicit
    :class:`TimingProfile` instance (the experiment helpers use this to
    forward caller-supplied profiles without widening the spec schema).
    ``backend`` is the simulator's test seam: ``None`` (every production
    caller) builds on the batched scheduler, and a fresh backend instance
    (the heap oracle, in tests) is handed to the built
    :class:`~repro.simkernel.kernel.Simulator` for one build.  A string
    raises :class:`~repro.errors.SimulationError`.
    ``metrics`` forces the built simulator's metrics registry on (or off)
    regardless of what the spec implies — fleet shards use it when
    telemetry collection is requested without a policy; ``None`` keeps
    the spec-driven default (on when a ``[policy]`` or ``[slo]`` table
    is attached, else the ``REPRO_METRICS`` environment default).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        profile: TimingProfile | None = None,
        backend: typing.Any = None,
        metrics: bool | None = None,
    ) -> None:
        self.spec = spec
        self.profile = profile if profile is not None else resolve_profile(
            spec.profile
        )
        self.backend = backend
        self.metrics = metrics

    def _metrics_mode(self) -> bool | None:
        """The registry mode for the built simulator (see class docs)."""
        if self.metrics is not None:
            return self.metrics
        if self.spec.policy is not None or self.spec.slo is not None:
            # A control policy needs the metric series its detectors
            # read, and an SLO implies metrics just as a policy does.
            return True
        return None

    def _layout(self) -> list[tuple[str, list[CoreVMSpec]]]:
        """Every host's name and concrete VM specs, in build order."""
        return [
            (host_name, [_core_vm(name, vm) for name, vm in vms])
            for host_name, vms in layout(self.spec.hosts, self.spec.is_cluster)
        ]

    # -- materialization -------------------------------------------------------------

    def build(self) -> BuiltScenario:
        """Materialize and start the stack, then attach the workloads."""
        spec = self.spec
        faults = spec.faults.to_aging_faults() if spec.faults is not None else None
        if spec.is_cluster:
            built = self._build_cluster(faults)
        else:
            built = self._build_standalone(faults)
        for workload in spec.workloads:
            self._attach(built, workload)
        return built

    def _build_standalone(self, faults: typing.Any) -> BuiltScenario:
        ((host_name, fleet),) = self._layout()
        controller = RootHammer.started(
            vms=fleet,
            profile=self.profile,
            seed=self.spec.seed,
            faults=faults,
            host_name=host_name,
            backend=self.backend,
            metrics=self._metrics_mode(),
        )
        return BuiltScenario(
            spec=self.spec,
            sim=controller.sim,
            controller=controller,
            cluster=None,
            workloads=[],
        )

    def _build_cluster(self, faults: typing.Any) -> BuiltScenario:
        names, layouts = zip(*self._layout())
        sim = Simulator(
            backend=self.backend,
            metrics=self._metrics_mode(),
        )
        cluster = Cluster(
            sim,
            size=len(layouts),
            vm_layout=layouts,
            host_names=names,
            profile=self.profile,
            spare=self.spec.spare,
            seed=self.spec.seed,
            faults=faults,
        )
        sim.run(sim.spawn(cluster.start()))
        return BuiltScenario(
            spec=self.spec,
            sim=sim,
            controller=None,
            cluster=cluster,
            workloads=[],
        )

    # -- workload attachment ----------------------------------------------------------

    def _targets(
        self, built: BuiltScenario, workload: WorkloadSpec
    ) -> list[tuple[Host, str]]:
        """The (host, vm) pairs a workload spec attaches to, in build order."""
        if workload.vm is not None:
            return [(built.host_of(workload.vm), workload.vm)]
        return [
            (host, vm_spec.name)
            for host in built.hosts
            for vm_spec in host.vm_specs.values()
            if workload.service in vm_spec.services
        ]

    def _service_name(
        self, built: BuiltScenario, vm_name: str, kind: str
    ) -> str:
        """The concrete service *name* for a spec's service *kind*.

        Specs name service kinds (``ssh``/``apache``/``jboss``, matching
        :data:`~repro.guest.services.SERVICE_FACTORIES`), but lookups and
        the cluster's replica scan match on instance names (``sshd``).
        Names are deterministic per kind, so resolving once at attach
        time stays valid across reboots.
        """
        for candidate in built.guest(vm_name).services:
            if candidate.kind == kind or candidate.name == kind:
                return candidate.name
        raise ScenarioError(f"VM {vm_name!r} runs no {kind!r} service")

    def _lookup(
        self, built: BuiltScenario, host: Host, vm_name: str, service: str
    ) -> typing.Callable[[], typing.Any]:
        """A per-request service resolver for one VM.

        On a cluster the service object is re-resolved per call — after a
        cold reboot it is new, after a migration it lives on another host
        (possibly the spare) — through the cluster's service index, which
        rescans only after the placement changed.
        """
        cluster = built.cluster
        if cluster is None:

            def lookup() -> typing.Any:
                return host.guest(vm_name).service(service)

            return lookup

        def cluster_lookup() -> typing.Any:
            replica = cluster.replica(service, vm_name)
            if replica is None:
                raise ReproError(f"{vm_name} has no live {service} replica")
            return replica

        return cluster_lookup

    def _attach(self, built: BuiltScenario, workload: WorkloadSpec) -> None:
        sim = built.sim
        for host, vm_name in self._targets(built, workload):
            guest = built.guest(vm_name)
            directory = workload.directory.format(host=host.name, vm=vm_name)
            if workload.kind == "fileread":
                path = workload.path.format(host=host.name, vm=vm_name)
                guest.filesystem.create(path, workload.file_bytes)
                sim.run(sim.spawn(guest.read_file(path)))
                built.workloads.append(
                    AttachedWorkload(workload, host, vm_name, [path], None)
                )
                continue
            service_name = self._service_name(built, vm_name, workload.service)
            lookup = self._lookup(built, host, vm_name, service_name)
            if workload.kind == "prober":
                prober = PingProber(
                    sim,
                    lookup,
                    interval_s=workload.interval_s,
                    name=f"probe-{vm_name}",
                ).start()
                built.workloads.append(
                    AttachedWorkload(workload, host, vm_name, [], prober)
                )
                continue
            paths = guest.filesystem.create_many(
                directory, workload.files, workload.file_bytes
            )
            sim.run(sim.spawn(guest.warm_file_cache(paths)))
            client_name = (
                f"lb-{host.name}" if built.cluster is not None
                else f"httperf-{vm_name}"
            )
            client: Httperf | FluidHttperf
            if workload.mode == "fluid":
                if built.fluid is None:  # the spec checked one tick_s for all
                    built.fluid = FluidCoordinator(sim, tick_s=workload.tick_s)
                client = FluidHttperf(
                    built.fluid,
                    lookup,
                    paths,
                    sessions=workload.sessions,
                    name=client_name,
                )
            else:
                client = Httperf(
                    sim,
                    lookup,
                    paths,
                    concurrency=workload.concurrency,
                    name=client_name,
                ).start()
            built.workloads.append(
                AttachedWorkload(workload, host, vm_name, paths, client)
            )


def _core_vm(name: str, vm: VMSpec) -> CoreVMSpec:
    """The host layer's spec for one named VM."""
    return CoreVMSpec(
        name,
        memory_bytes=vm.memory_bytes,
        services=vm.services,
        vcpus=vm.vcpus,
        driver_domain=vm.driver_domain,
    )


def build_scenario(
    spec: ScenarioSpec, profile: TimingProfile | None = None
) -> BuiltScenario:
    """Convenience wrapper: ``ScenarioBuilder(spec, profile).build()``."""
    return ScenarioBuilder(spec, profile=profile).build()
