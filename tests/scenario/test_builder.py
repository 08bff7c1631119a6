"""ScenarioBuilder materialization: naming, fleets, workload attachment."""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.scenario import (
    HostSpec,
    MaintenanceSpec,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
    build_scenario,
)
from repro.scenario.builder import BuiltScenario
from repro.units import GiB


def _spec(**overrides) -> ScenarioSpec:
    return ScenarioSpec(name="under-test", **overrides)


class TestStandalone:
    def test_default_naming_matches_the_experiments(self):
        built = build_scenario(
            _spec(hosts=(HostSpec(vms=(VMSpec(count=3),)),))
        )
        (host,) = built.hosts
        assert host.name == "server"
        assert list(host.vm_specs) == ["vm00", "vm01", "vm02"]
        assert built.controller is not None and built.cluster is None

    def test_heterogeneous_fleet_materializes_mixed_sizes(self):
        built = build_scenario(
            _spec(
                hosts=(
                    HostSpec(
                        vms=(
                            VMSpec(memory_gib=1.0),
                            VMSpec(memory_gib=4.0, services=("apache",)),
                        ),
                    ),
                )
            )
        )
        (host,) = built.hosts
        assert host.vm_specs["vm00"].memory_bytes == 1 * GiB
        assert host.vm_specs["vm01"].memory_bytes == 4 * GiB
        assert host.vm_specs["vm01"].services == ("apache",)
        assert built.guest("vm01").service("apache").reachable

    def test_custom_name_templates(self):
        built = build_scenario(
            _spec(
                hosts=(
                    HostSpec(
                        name="node",
                        vms=(VMSpec(name="web{i}", count=2),),
                    ),
                )
            )
        )
        (host,) = built.hosts
        assert host.name == "node"
        assert list(host.vm_specs) == ["web0", "web1"]

    def test_copies_without_index_placeholder_are_rejected(self):
        with pytest.raises(ScenarioError, match="placeholder"):
            build_scenario(
                _spec(hosts=(HostSpec(vms=(VMSpec(name="web", count=2),)),))
            )


class TestCluster:
    def test_cluster_naming_matches_fig9(self):
        built = build_scenario(
            _spec(hosts=(HostSpec(count=2, vms=(VMSpec(),)),))
        )
        assert [host.name for host in built.hosts] == ["host0", "host1"]
        assert list(built.hosts[0].vm_specs) == ["host0-vm0"]
        assert built.cluster is not None and built.controller is None

    def test_host_copies_without_placeholder_are_rejected(self):
        with pytest.raises(ScenarioError, match="placeholder"):
            build_scenario(
                _spec(hosts=(HostSpec(name="rack", count=2, vms=(VMSpec(),)),))
            )

    def test_campaign_requires_cluster_maintenance(self):
        built = build_scenario(_spec())
        with pytest.raises(ScenarioError, match="no cluster maintenance"):
            built.campaign(built.executor())

    def test_rolling_campaign_runs_across_the_cluster(self):
        built = build_scenario(
            _spec(
                hosts=(HostSpec(count=2, vms=(VMSpec(),)),),
                maintenance=MaintenanceSpec(
                    kind="rolling", strategy="warm", settle_s=1.0
                ),
            )
        )
        executor = built.executor()
        built.sim.run(built.sim.spawn(built.campaign(executor)))
        assert executor.rejuvenations == 2
        assert [e["target"] for e in executor.audit] == ["host0", "host1"]


class TestWorkloads:
    def test_service_match_attaches_one_client_per_vm(self):
        built = build_scenario(
            _spec(
                hosts=(
                    HostSpec(
                        vms=(
                            VMSpec(count=2, services=("apache",)),
                            VMSpec(name="quiet{i}"),
                        ),
                    ),
                ),
                workloads=(WorkloadSpec(kind="httperf", files=2),),
            )
        )
        assert [w.vm_name for w in built.workloads] == ["vm00", "vm01"]
        assert all(len(w.paths) == 2 for w in built.workloads)
        built.stop_workloads()

    def test_service_match_attaches_without_scanning_hosts(self, monkeypatch):
        """Attaching reads each guest from the host its target came with,
        so a cluster's attach is linear in its hosts: ``host_of`` (a scan
        of every host) is left to pinned VMs and runtime callers."""
        calls = []
        host_of = BuiltScenario.host_of
        monkeypatch.setattr(
            BuiltScenario,
            "host_of",
            lambda self, vm: calls.append(vm) or host_of(self, vm),
        )
        built = build_scenario(
            _spec(
                hosts=(
                    HostSpec(count=3, vms=(VMSpec(services=("ssh", "apache")),)),
                ),
                workloads=(
                    WorkloadSpec(kind="httperf", files=1),
                    WorkloadSpec(kind="prober", service="ssh"),
                ),
            )
        )
        assert calls == []
        assert [(w.host.name, w.vm_name) for w in built.workloads] == [
            (f"host{i}", f"host{i}-vm0") for i in range(3)
        ] * 2
        assert all(built.host_of(w.vm_name) is w.host for w in built.workloads)
        built.stop_workloads()

    def test_prober_resolves_service_kind_to_instance_name(self):
        # The spec says the "ssh" *kind*; the running instance is "sshd".
        built = build_scenario(
            _spec(workloads=(WorkloadSpec(kind="prober", service="ssh"),))
        )
        (attached,) = built.workloads
        built.sim.run(until=built.sim.now + 5.0)
        assert attached.client.outages == []  # healthy host: probe finds sshd
        built.stop_workloads()

    def test_pinned_vm_attachment(self):
        built = build_scenario(
            _spec(
                hosts=(HostSpec(vms=(VMSpec(count=2),)),),
                workloads=(
                    WorkloadSpec(kind="fileread", vm="vm01", file_kib=64.0),
                ),
            )
        )
        (attached,) = built.workloads
        assert attached.vm_name == "vm01" and attached.client is None
        assert built.guest("vm01").filesystem.exists(attached.paths[0])

    def test_unmatched_workload_is_rejected(self):
        with pytest.raises(ScenarioError, match="no VM runs 'jboss'"):
            _spec(workloads=(WorkloadSpec(kind="httperf", service="jboss"),))

    def test_unknown_service_kind_on_pinned_vm_is_rejected(self):
        with pytest.raises(ScenarioError, match="runs no"):
            build_scenario(
                _spec(
                    workloads=(
                        WorkloadSpec(kind="prober", vm="vm00", service="apache"),
                    )
                )
            )

    def test_unknown_vm_lookup_is_rejected(self):
        built = build_scenario(_spec())
        with pytest.raises(ScenarioError, match="no VM named"):
            built.host_of("vm99")
