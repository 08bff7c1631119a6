"""System-level property tests: arbitrary rejuvenation histories keep the
whole stack consistent.

These are the repository's strongest correctness statements: whatever
sequence of warm/saved/cold/dom0-only reboots and single-guest
rejuvenations a host goes through, afterwards

* every installed VM is running with a verifiable memory image,
* the frame allocator's bookkeeping is intact and conserves pages,
* no preserved or saved images are left dangling,
* the healthy VMM never leaks heap,
* and trace-measured downtime intervals are all closed and positive.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.downtime import extract_downtimes
from repro.config import small_testbed
from repro.core import COMPRESSED, Host, INCREMENTAL, RAMDISK, VMSpec
from repro.guest import GuestState
from repro.simkernel import Simulator
from repro.units import mib
from repro.vmm import DOM0_NAME

_OPERATIONS = st.sampled_from(
    [
        ("reboot", "warm", {}),
        ("reboot", "cold", {}),
        ("reboot", "saved", {}),
        ("reboot", "saved", {"variant": INCREMENTAL}),
        ("reboot", "saved", {"variant": COMPRESSED}),
        ("reboot", "saved", {"variant": RAMDISK}),
        ("reboot", "dom0-only", {}),
        ("guest", "vm0", {}),
        ("guest", "vm1", {}),
        ("idle", 100.0, {}),
    ]
)


def _build_host(sim):
    host = Host(sim, profile=small_testbed())
    host.install_vms(
        [
            VMSpec("vm0", memory_bytes=mib(256)),
            VMSpec("vm1", memory_bytes=mib(384), services=("ssh", "apache")),
        ]
    )
    sim.run(sim.spawn(host.start()))
    return host


def _check_invariants(host):
    vmm = host.require_vmm()
    vmm.allocator.check_invariants()
    assert vmm.heap.leaked_bytes == 0  # healthy faults profile
    assert len(host.machine.preserved) == 0
    assert not any(
        key.startswith("saved:") for key in host.machine.disk_store
    )
    assert DOM0_NAME in vmm.domains
    for spec in host.vm_specs.values():
        domain = vmm.domain(spec.name)
        assert domain.is_running
        guest = domain.guest
        assert guest is not None
        assert guest.state is GuestState.RUNNING
        guest.verify_memory_image()
        assert domain.p2m.mapped_pages == vmm.allocator.pages_of(spec.name)
        domain.p2m.check_bijective()
        assert domain.devices.attached_count == 2
        assert all(s.is_up for s in guest.services)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(history=st.lists(_OPERATIONS, min_size=1, max_size=5))
def test_any_rejuvenation_history_keeps_the_stack_consistent(history):
    sim = Simulator()
    host = _build_host(sim)
    t0 = sim.now
    for kind, arg, options in history:
        if kind == "reboot":
            sim.run(sim.spawn(host.reboot(arg, **options)))
        elif kind == "guest":
            sim.run(sim.spawn(host.reboot_guest(arg)))
        else:
            sim.run(until=sim.now + arg)
        _check_invariants(host)
    # Every outage observed along the way is closed and sane.
    for interval in extract_downtimes(sim.trace, since=t0):
        assert interval.closed
        assert interval.duration >= 0


def test_long_mixed_history_deterministic():
    """The same scripted history twice gives identical traces."""

    def run_once():
        sim = Simulator()
        host = _build_host(sim)
        for strategy in ("warm", "saved", "dom0-only", "cold", "warm"):
            sim.run(sim.spawn(host.reboot(strategy)))
        sim.run(sim.spawn(host.reboot_guest("vm1")))
        return [
            (round(r.time, 9), r.kind, r.get("domain"), r.get("strategy"))
            for r in sim.trace
        ]

    assert run_once() == run_once()


@pytest.mark.slow
def test_many_consecutive_warm_reboots_do_not_drift():
    """Warm reboots are idempotent in state and near-constant in cost:
    20 in a row leave every image intact and each takes the same time."""
    sim = Simulator()
    host = _build_host(sim)
    guest = host.guest("vm1")
    guest.page_cache.insert("/persistent", mib(8))
    durations = []
    for _ in range(20):
        t0 = sim.now
        sim.run(sim.spawn(host.reboot("warm")))
        durations.append(sim.now - t0)
        _check_invariants(host)
    assert host.guest("vm1") is guest
    assert guest.page_cache.cached_bytes("/persistent") == mib(8)
    assert max(durations) - min(durations) < 0.5
    assert host.generation == 21
