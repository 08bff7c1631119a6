"""The cluster's service index against the scan it replaced.

Every scenario below builds its clients through ``ScenarioBuilder``, with
each cluster lookup wrapped so that it also asks the one-entry-cache scan
of ``lookup_oracle.py`` and asserts both return the same service object,
or raise the same error type with the same message, at every call.  The
last test shows what the index buys: a host whose VM is gone costs one
dict read per lookup, so a longer outage adds no rebuilds.
"""

import pytest

from repro.cluster import Cluster
from repro.config import small_testbed
from repro.control import periodic
from repro.errors import ReproError
from repro.experiments import fig9_cluster
from repro.scenario import ScenarioSpec, run_scenario
from repro.scenario.builder import ScenarioBuilder
from repro.simkernel import Simulator

from tests.cluster.lookup_oracle import reference_lookup


class Diff:
    """What the wrapped lookups saw across one scenario."""

    def __init__(self):
        self.calls = 0
        self.misses = 0
        self.served = []
        """Distinct service objects returned, in first-served order."""


def _outcome(lookup):
    try:
        return lookup(), None
    except ReproError as error:
        return None, error


@pytest.fixture()
def diff(monkeypatch):
    """Wrap every cluster lookup the builder hands out (see module doc)."""
    seen = Diff()
    indexed_lookup = ScenarioBuilder._lookup

    def diffed(self, built, host, vm_name, service):
        indexed = indexed_lookup(self, built, host, vm_name, service)
        if built.cluster is None:
            return indexed
        oracle = reference_lookup(built.cluster, vm_name, service)

        def both():
            got, got_error = _outcome(indexed)
            want, want_error = _outcome(oracle)
            seen.calls += 1
            if got_error is not None or want_error is not None:
                assert (type(got_error), str(got_error)) == (
                    type(want_error), str(want_error)
                )
                seen.misses += 1
                raise got_error
            assert got is want
            if not any(served is got for served in seen.served):
                seen.served.append(got)
            return got

        return both

    monkeypatch.setattr(ScenarioBuilder, "_lookup", diffed)
    return seen


def _cluster_spec(mode, maintenance=None, hosts=2, **extra):
    workload = {
        "kind": "httperf",
        "service": "apache",
        "files": 4,
        "file_kib": 256.0,
        "mode": mode,
    }
    if mode == "fluid":
        workload["sessions"] = 8
    else:
        workload["concurrency"] = 1
    data = {
        "name": f"index-{mode}",
        "profile": "small",
        "hosts": [{"count": hosts, "vms": [{"count": 1, "services": ["apache"]}]}],
        "workloads": [workload],
        **extra,
    }
    if maintenance is not None:
        data["maintenance"] = maintenance
    return ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("mode", ["exact", "fluid"])
@pytest.mark.parametrize("strategy", ["warm", "cold", "saved"])
def test_rolling_reboots_match_the_scan(diff, strategy, mode):
    spec = _cluster_spec(
        mode,
        {"kind": "rolling", "strategy": strategy, "settle_s": 5.0},
        warmup_s=10.0,
        observe_s=20.0,
    )
    report = run_scenario(spec)
    assert report.maintenance["maintenance_s"] > 0
    assert diff.misses > 0  # each reboot takes its host's VM out of view
    assert diff.calls > diff.misses
    # A cold reboot builds fresh service objects; the others keep them.
    assert len(diff.served) == (4 if strategy == "cold" else 2)


def test_migration_campaign_with_a_spare_matches_the_scan(diff):
    run = fig9_cluster._cluster_run("migration", size=2)
    assert [entry["action"] for entry in run["audit"]].count("migrate") == 4
    assert diff.calls > 0
    assert len(diff.served) == 2  # the same objects, wherever they run


def _started(spec):
    built = ScenarioBuilder(spec).build()
    built.sim.run(until=built.sim.now + 10.0)
    return built


def test_checkpoint_boot_matches_the_scan(diff):
    built = _started(_cluster_spec("exact"))
    sim = built.sim
    host = built.hosts[0]
    sim.run(sim.spawn(host.reboot_guest("host0-vm0", checkpoint_processes=True)))
    sim.run(until=sim.now + 10.0)
    built.stop_workloads()
    assert built.guest("host0-vm0").service("apache").restored_from_checkpoint
    assert diff.misses > 0
    assert len(diff.served) == 3


def test_periodic_guest_reboot_matches_the_scan(diff):
    built = _started(_cluster_spec("fluid"))
    sim = built.sim
    executor = built.executor()
    until = sim.now + 120.0
    sim.run(
        sim.spawn(
            periodic(
                executor,
                built.hosts[1],
                "warm",
                os_interval_s=40.0,
                vmm_interval_s=1e6,
                until=until,
            )
        )
    )
    built.stop_workloads()
    reboots = [e for e in executor.audit if e["action"] == "rejuvenate-os"]
    assert len(reboots) >= 2
    assert diff.misses > 0
    assert len(diff.served) == 2 + len(reboots)


def _outage(extra_s):
    """One guest reboot on host0 of three, its domain kept out of every
    hypervisor ``extra_s`` longer.  Returns the ``Cluster.services`` scans
    made from the reboot on (each one an index rebuild: the index is the
    only caller), the client's downtime and the other clients'."""
    built = ScenarioBuilder(
        _cluster_spec("fluid", hosts=3, name="index-outage")
    ).build()
    sim = built.sim
    cluster = built.cluster
    host = cluster.hosts[0]
    cold_boot = host.cold_boot_guests

    def delayed(specs):
        yield sim.timeout(extra_s)
        return (yield from cold_boot(specs))

    host.cold_boot_guests = delayed
    sim.run(until=sim.now + 10.0)
    scan = cluster.services
    scans = []

    def counted(*args):
        scans.append(args)
        return scan(*args)

    cluster.services = counted
    sim.run(sim.spawn(host.reboot_guest("host0-vm0")))
    sim.run(until=sim.now + 10.0)
    built.stop_workloads()
    client, *others = (attached.client for attached in built.workloads)
    return len(scans), client.downtime_s, sum(o.downtime_s for o in others)


def test_a_down_host_costs_no_rescans():
    rebuilds, downtime, others = _outage(10.0)
    assert downtime > 10.0 and others == 0
    longer_rebuilds, longer_downtime, _ = _outage(10.0 + downtime)
    assert longer_downtime == pytest.approx(2 * downtime)
    assert longer_rebuilds == rebuilds > 0


def test_each_placement_write_reindexes():
    """An image moved to a fresh domain with reads in between, as a disk
    restore does: the index follows each write, the rebind included."""
    sim = Simulator()
    cluster = Cluster(sim, size=2, services=("ssh",), profile=small_testbed())
    sim.run(sim.spawn(cluster.start()))
    vmm = cluster.hosts[0].vmm
    guest = cluster.hosts[0].guest("host0-vm0")
    (service,) = guest.services
    assert cluster.replica("sshd", "host0-vm0") is service
    vmm.destroy_domain("host0-vm0", scrub=False)
    assert cluster.replica("sshd", "host0-vm0") is None
    domain = sim.run(sim.spawn(vmm.create_domain("host0-vm0", guest.memory_bytes)))
    assert cluster.replica("sshd", "host0-vm0") is None
    guest.rebind(vmm, domain)
    assert cluster.replica("sshd", "host0-vm0") is service
    assert cluster.replica("sshd", "host1-vm0") is not None
    assert cluster.replica("apache", "host0-vm0") is None
