"""Live migration of VMs between hosts (Clark et al., the paper's [8]).

Pre-copy migration: transfer the whole memory image while the VM runs,
then iteratively re-send pages dirtied during the previous round, and
finally stop the VM for a brief stop-and-copy of the residue.  §6 uses
two published observations to reason about migration as an alternative to
the warm-VM reboot:

* a single 800 MB VM took **72 s** to migrate — an effective ~11 MB/s,
  far below gigabit line rate (the migration daemon rate-limits to bound
  its interference), which is why migrating 11 GB takes ~17 minutes;
* Apache throughput degraded **12 %** on the source host during
  migration.

Both are first-class parameters of :class:`MigrationSpec`, defaulting to
those published values.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.host import Host
from repro.errors import MigrationError
from repro.units import MiB
from repro.vmm.domain import DomainState


@dataclasses.dataclass(frozen=True)
class MigrationSpec:
    """Tunables of the pre-copy algorithm."""

    rate_bytes_per_s: float = 11.4 * MiB
    """Effective transfer rate (800 MB / 72 s, per Clark et al.)."""

    dirty_ratio: float = 0.12
    """Fraction of transferred memory re-dirtied per pre-copy round."""

    max_rounds: int = 4
    """Pre-copy rounds before stop-and-copy."""

    source_degradation: float = 0.88
    """Source-host NIC factor during migration (the 12 % Apache hit)."""

    stop_copy_downtime_s: float = 0.165
    """Service downtime during the final stop-and-copy."""

    def __post_init__(self) -> None:
        if self.rate_bytes_per_s <= 0:
            raise MigrationError("migration rate must be positive")
        if not 0 <= self.dirty_ratio < 1:
            raise MigrationError("dirty ratio must be in [0, 1)")
        if self.max_rounds < 1:
            raise MigrationError("need at least one pre-copy round")
        if not 0 < self.source_degradation <= 1:
            raise MigrationError("source degradation must be in (0, 1]")
        if self.stop_copy_downtime_s < 0:
            raise MigrationError("stop-and-copy downtime must be >= 0")

    def total_transfer_bytes(self, memory_bytes: int) -> int:
        """Image + all pre-copy residues."""
        total = 0.0
        residue = float(memory_bytes)
        for _ in range(self.max_rounds):
            total += residue
            residue *= self.dirty_ratio
        return int(total + residue)

    def expected_duration(self, memory_bytes: int) -> float:
        """Analytic end-to-end migration time for one VM."""
        return (
            self.total_transfer_bytes(memory_bytes) / self.rate_bytes_per_s
            + self.stop_copy_downtime_s
        )


def live_migrate(
    source: Host,
    destination: Host,
    name: str,
    spec: MigrationSpec | None = None,
) -> typing.Generator:
    """Migrate VM ``name`` from ``source`` to ``destination`` (a process).

    The guest image object moves wholesale — memory, page cache, running
    services — with only the stop-and-copy gap visible to clients.
    Assumes shared storage for the virtual disk, as the paper's cluster
    discussion (and Xen live migration itself) does.
    """
    spec = spec if spec is not None else MigrationSpec()
    src_vmm = source.require_vmm()
    dst_vmm = destination.require_vmm()
    domain = src_vmm.domain(name)
    domain.require_state(DomainState.RUNNING)
    guest = domain.guest
    if guest is None:
        raise MigrationError(f"domain {name!r} has no guest image to migrate")
    vm_spec = source.vm_specs.get(name)
    if vm_spec is None:
        raise MigrationError(f"no VMSpec for {name!r} on {source.name}")
    sim = source.sim
    spans = sim.spans
    # Own actor track (the migrating domain); causal parent is whatever
    # cluster maintenance is driving the source host, when any.
    with spans.span(
        "migration.vm",
        actor=name,
        detail=f"{source.name}->{destination.name}",
        parent=spans.current(source.name),
    ):
        sim.trace.record(
            "migration.start", domain=name, source=source.name,
            destination=destination.name,
        )
        source.machine.nic.set_degradation(spec.source_degradation)
        try:
            # Pre-copy rounds: the VM keeps running and serving.
            residue = float(domain.memory_bytes)
            for _ in range(spec.max_rounds):
                yield sim.timeout(residue / spec.rate_bytes_per_s)
                residue *= spec.dirty_ratio
            # Stop-and-copy: the only client-visible downtime.
            for service in guest.services:
                if service.is_up:
                    sim.trace.record(
                        "service.down", service=service.name,
                        service_kind=service.kind, domain=name,
                        reason="migration",
                    )
            yield sim.timeout(
                residue / spec.rate_bytes_per_s + spec.stop_copy_downtime_s
            )
            # Rebuild on the destination and hand over the live image,
            # including the copied memory contents (sentinels travel too).
            tokens = src_vmm.collect_domain_tokens(domain)
            new_domain = yield from dst_vmm.create_domain(
                name, domain.memory_bytes, vcpus=domain.vcpus
            )
            new_domain.execution_context = dict(domain.execution_context)
            dst_vmm.write_domain_tokens(new_domain, tokens)
            # Source-side ring grants die with the source domain; fresh
            # ones are established against the destination's backends.
            guest._grant_refs.clear()
            guest.rebind(dst_vmm, new_domain)
            guest.establish_grants()
            destination.vm_specs[name] = vm_spec
            destination.machine.disk_store[f"fs:{name}"] = guest.filesystem
            del source.vm_specs[name]
            # Tear down the source copy.
            src_vmm.destroy_domain(name, scrub=True)
            for service in guest.services:
                if service.is_up:
                    sim.trace.record(
                        "service.up", service=service.name,
                        service_kind=service.kind, domain=name,
                        reason="migration",
                    )
        finally:
            source.machine.nic.clear_degradation()
        sim.trace.record(
            "migration.done", domain=name, source=source.name,
            destination=destination.name,
        )
    return guest
