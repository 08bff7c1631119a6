"""Unit tests for the cluster and its load balancer.

Rolling and migration rejuvenation passes are tested with the control
plane that runs them, in tests/control/test_schedule.py.
"""

import pytest

from repro.cluster import Cluster, LoadBalancer
from repro.config import small_testbed
from repro.errors import ClusterError
from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def started_cluster(sim, size=2, spare=False, services=("ssh",)):
    cluster = Cluster(
        sim, size=size, vms_per_host=1, services=services,
        profile=small_testbed(), spare=spare,
    )
    sim.run(sim.spawn(cluster.start()))
    return cluster


class TestCluster:
    def test_validation(self, sim):
        with pytest.raises(ClusterError):
            Cluster(sim, size=0)
        with pytest.raises(ClusterError):
            Cluster(sim, size=1, vms_per_host=0)

    def test_start_brings_all_hosts_up(self, sim):
        cluster = started_cluster(sim, size=3)
        assert len(cluster.services()) == 3
        for host in cluster.hosts:
            assert host.started

    def test_spare_host_has_no_vms(self, sim):
        cluster = started_cluster(sim, spare=True)
        assert cluster.spare is not None
        assert cluster.spare.vm_count == 0

    def test_host_lookup(self, sim):
        cluster = started_cluster(sim)
        assert cluster.host("host0").name == "host0"
        with pytest.raises(ClusterError):
            cluster.host("nope")

    def test_hosts_have_independent_hardware(self, sim):
        cluster = started_cluster(sim)
        assert cluster.host("host0").machine is not cluster.host("host1").machine


class TestLoadBalancer:
    def test_round_robin_over_reachable(self, sim):
        cluster = started_cluster(sim, size=2)
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        picks = [lb.pick().guest.name for _ in range(4)]
        assert set(picks) == {"host0-vm0", "host1-vm0"}
        assert lb.dispatched == 4

    def test_skips_unreachable_host(self, sim):
        cluster = started_cluster(sim, size=2)
        guest = cluster.host("host0").guest("host0-vm0")
        sim.run(sim.spawn(guest.run_suspend_handler()))
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        picks = {lb.pick().guest.name for _ in range(4)}
        assert picks == {"host1-vm0"}

    def test_no_replicas_raises(self, sim):
        lb = LoadBalancer(sim, lambda: [])
        with pytest.raises(ClusterError):
            lb.pick()
        assert lb.rejected == 1

    def test_all_down_raises(self, sim):
        cluster = started_cluster(sim, size=1)
        guest = cluster.host("host0").guest("host0-vm0")
        sim.run(sim.spawn(guest.run_suspend_handler()))
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        with pytest.raises(ClusterError):
            lb.pick()

    def test_dispatch_serves_request(self, sim):
        cluster = started_cluster(sim, size=2)
        lb = LoadBalancer(sim, lambda: cluster.services("sshd"))
        result = sim.run(sim.spawn(lb.dispatch(payload_bytes=128)))
        assert result == 128
