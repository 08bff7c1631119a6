"""Spec validation, dict round-trips and TOML loading."""

from __future__ import annotations

import math
import os
import textwrap

import pytest

from repro.config import AgingFaults
from repro.errors import ScenarioError
from repro.scenario import (
    FaultSpec,
    HostSpec,
    MaintenanceSpec,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
    load_toml,
    registry,
)
from repro.units import GiB, KiB

_EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)


def _write_toml(tmp_path, body: str):
    path = tmp_path / "spec.toml"
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


class TestValidation:
    def test_unknown_key_reports_dotted_path_and_known_keys(self):
        with pytest.raises(ScenarioError) as err:
            ScenarioSpec.from_dict(
                {"name": "x", "hosts": [{"vms": [{"memory": 2}]}]}
            )
        message = str(err.value)
        assert "scenario.hosts[0].vms[0]" in message
        assert "'memory'" in message and "memory_gib" in message

    def test_bad_count_reports_nested_path(self):
        with pytest.raises(ScenarioError, match=r"hosts\[0\].vms\[0\].count"):
            ScenarioSpec.from_dict(
                {"name": "x", "hosts": [{"vms": [{"count": 0}]}]}
            )

    def test_non_numeric_field_is_rejected(self):
        with pytest.raises(ScenarioError, match="expected a number"):
            VMSpec.from_dict({"memory_gib": "lots"})

    def test_unknown_workload_kind(self):
        with pytest.raises(ScenarioError, match="workload.kind"):
            WorkloadSpec(kind="apachebench")

    def test_unknown_fault_preset(self):
        with pytest.raises(ScenarioError, match="faults.preset"):
            FaultSpec(preset="chaos-monkey")

    def test_rolling_maintenance_needs_a_cluster(self):
        with pytest.raises(ScenarioError, match="needs a cluster"):
            ScenarioSpec(
                name="x", maintenance=MaintenanceSpec(kind="rolling")
            )

    def test_reboot_maintenance_rejects_clusters(self):
        with pytest.raises(ScenarioError, match="single host"):
            ScenarioSpec(
                name="x",
                hosts=(HostSpec(count=2, vms=(VMSpec(),)),),
                maintenance=MaintenanceSpec(kind="reboot"),
            )

    def test_migration_needs_a_spare(self):
        with pytest.raises(ScenarioError, match="spare"):
            ScenarioSpec(
                name="x",
                hosts=(HostSpec(count=2, vms=(VMSpec(),)),),
                maintenance=MaintenanceSpec(kind="migration"),
            )

    def test_periodic_needs_positive_intervals(self):
        with pytest.raises(ScenarioError, match="periodic"):
            MaintenanceSpec(kind="periodic", os_interval_s=0.0)

    def test_spare_alone_makes_a_cluster(self):
        spec = ScenarioSpec(
            name="x",
            spare=True,
            maintenance=MaintenanceSpec(kind="migration", strategy="cold"),
        )
        assert spec.is_cluster and spec.host_count == 1

    def test_unit_conversions_are_exact(self):
        assert VMSpec(memory_gib=4.0).memory_bytes == 4 * GiB
        assert WorkloadSpec(file_kib=2048.0).file_bytes == 2048 * KiB


class TestTypedLoading:
    """Each key is checked against its field's type when the spec loads,
    and the error names the first bad key by its dotted path."""

    @pytest.mark.parametrize(
        "overrides, error",
        [
            pytest.param(
                {"name": 5},
                "scenario.name: expected a string, got int",
                id="name",
            ),
            pytest.param(
                {"seed": 1.5},
                "scenario.seed: expected an integer, got float",
                id="seed",
            ),
            pytest.param(
                {"spare": "no"},
                "scenario.spare: expected a boolean, got str",
                id="spare",
            ),
            pytest.param(
                {"force_cluster": "no"},
                "scenario.force_cluster: expected a boolean",
                id="force_cluster",
            ),
            pytest.param(
                {"observe_s": math.inf},
                "scenario.observe_s: expected a finite number",
                id="observe_s-inf",
            ),
            pytest.param(
                {"warmup_s": math.nan},
                "scenario.warmup_s: expected a finite number",
                id="warmup_s-nan",
            ),
            pytest.param(
                {"hosts": [{"count": 1.5}]},
                "scenario.hosts[0].count: expected an integer, got float",
                id="host-count",
            ),
            pytest.param(
                {"hosts": [{"name": 5}]},
                "scenario.hosts[0].name: expected a string, got int",
                id="host-name",
            ),
            pytest.param(
                {"hosts": [{"vms": [{"driver_domain": "false"}]}]},
                "scenario.hosts[0].vms[0].driver_domain: expected a boolean",
                id="driver_domain",
            ),
            pytest.param(
                {"hosts": [{"vms": [{"services": ["ssh", 5]}]}]},
                "scenario.hosts[0].vms[0].services[1]: expected a string, got int",
                id="services-item",
            ),
            pytest.param(
                {"hosts": [{"vms": [{"services": ["ssh", "bogus"]}]}]},
                "scenario.hosts[0].vms[0].services: must be one of ssh, apache, "
                "jboss, got 'bogus'",
                id="services-unknown",
            ),
            pytest.param(
                {"hosts": [{"vms": [{"cpu_cap_cores": 0.5}]}]},
                "scenario.hosts[0].vms[0]: unknown key(s) 'cpu_cap_cores';",
                id="cpu_cap_cores",
            ),
            pytest.param(
                {"hosts": [{"vms": [{"cpu_weight": 512}]}]},
                "scenario.hosts[0].vms[0]: unknown key(s) 'cpu_weight';",
                id="cpu_weight",
            ),
            pytest.param(
                {"workloads": [{"warm_cache": False}]},
                "scenario.workloads[0]: unknown key(s) 'warm_cache';",
                id="warm_cache",
            ),
            pytest.param(
                {"faults": {"domain_destroy_leak_kib": 8.0}},
                "scenario.faults: unknown key(s) 'domain_destroy_leak_kib';",
                id="faults-domain_destroy_leak_kib",
            ),
            pytest.param(
                {"faults": {"error_path_leak_kib": 8.0}},
                "scenario.faults: unknown key(s) 'error_path_leak_kib';",
                id="faults-error_path_leak_kib",
            ),
            pytest.param(
                {"faults": {"xenstore_leak_per_txn_kib": 1.0}},
                "scenario.faults: unknown key(s) 'xenstore_leak_per_txn_kib';",
                id="faults-xenstore_leak_per_txn_kib",
            ),
            pytest.param(
                {"policy": {"net_overload_bps": 1e6}},
                "scenario.policy: unknown key(s) 'net_overload_bps';",
                id="policy-net_overload_bps",
            ),
            pytest.param(
                {"policy": {"disk_overload": 0.8}},
                "scenario.policy: unknown key(s) 'disk_overload';",
                id="policy-disk_overload",
            ),
            pytest.param(
                {"hosts": [{"vms": [{"memory_gib": 1e308}]}]},
                "scenario.hosts[0].vms[0].memory_gib: must be positive and finite",
                id="memory_gib-overflow",
            ),
            pytest.param(
                {"policy": {"migration_budget": 1.5}},
                "scenario.policy.migration_budget: expected an integer, got float",
                id="policy-migration_budget",
            ),
            pytest.param(
                {"policy": {"interval_s": 0}},
                "scenario.policy.interval_s: must be positive, got 0",
                id="policy-interval_s",
            ),
            pytest.param(
                {"policy": {"min_hosts_up": -1}},
                "scenario.policy.min_hosts_up: must be >= 0, got -1",
                id="policy-min_hosts_up",
            ),
            pytest.param(
                {"policy": {"strategy": "bogus"}},
                "scenario.policy.strategy: must be one of fleet-order, "
                "first-fit-decreasing, got 'bogus'",
                id="policy-strategy",
            ),
            pytest.param(
                # [slo] is a fleet table: a scenario carrying one fails
                # naming it, whatever the table holds.
                {"slo": {"availability": 0.9}},
                "scenario: unknown key(s) 'slo';",
                id="slo-availability",
            ),
            pytest.param(
                {"maintenance": {"kind": "periodic"}},
                "scenario.maintenance: periodic maintenance needs positive",
                id="maintenance-periodic",
            ),
            pytest.param(
                {1: 2, "zz": 3}, "scenario: unknown key(s) 'zz', 1;", id="unknown-keys"
            ),
            pytest.param(
                {"faults": []},
                "scenario.faults: expected a table, got list",
                id="faults-list",
            ),
            pytest.param(
                {"workloads": {}},
                "scenario.workloads: expected an array of tables",
                id="workloads-table",
            ),
            pytest.param(
                {},
                "scenario: ScenarioSpec.__init__() missing 1 required",
                id="missing-name",
            ),
            pytest.param(
                {"workloads": [{"kind": "prober", "vm": "nope"}]},
                "scenario.workloads[0].vm: no VM is named 'nope'",
                id="workload-vm-unknown",
            ),
            pytest.param(
                {"workloads": [{"service": "jboss"}]},
                "scenario.workloads[0].service: no VM runs 'jboss'",
                id="workload-service-unrun",
            ),
            pytest.param(
                {
                    "hosts": [{"vms": [{"services": ["apache"]}]}],
                    "workloads": [
                        {"mode": "fluid", "tick_s": 1.0},
                        {"mode": "fluid", "tick_s": 2.0},
                    ],
                },
                "scenario.workloads[1].tick_s: all fluid workloads",
                id="workload-tick_s-mixed",
            ),
        ],
    )
    def test_malformed_spec_fails_at_load_naming_the_key(self, overrides, error):
        data = {"name": "x", **overrides}
        if not overrides:
            del data["name"]
        with pytest.raises(ScenarioError) as err:
            ScenarioSpec.from_dict(data)
        assert str(err.value).startswith(error)

    @pytest.mark.parametrize(
        "name", ["{j}", "{0}", "{}", "{", "}", "{{x}}", "{i[0]}", "{host.upper}"]
    )
    def test_vm_name_that_cannot_render_fails_at_load(self, name):
        data = {"name": "x", "hosts": [{"vms": [{"name": name}]}]}
        with pytest.raises(ScenarioError) as err:
            ScenarioSpec.from_dict(data)
        assert str(err.value).startswith("scenario.hosts[0].vms[0].name: ")

    def test_host_name_may_not_use_host(self):
        data = {"name": "x", "hosts": [{"name": "{host}"}]}
        with pytest.raises(ScenarioError, match=r"hosts\[0\]\.name: .* not render"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "hosts, name",
        [
            ([{"name": "a"}, {"name": "a"}], "a"),
            ([{"count": 2, "name": "n{i}", "vms": [{"name": "web{i}"}]}], "web0"),
            ([{"name": "host1-vm0"}, {"vms": [{}]}], "host1-vm0"),
        ],
    )
    def test_a_name_given_twice_fails_at_load(self, hosts, name):
        with pytest.raises(ScenarioError, match=f"the name '{name}' is given twice"):
            ScenarioSpec.from_dict({"name": "x", "hosts": hosts})

    def test_spare_name_is_taken(self):
        with pytest.raises(ScenarioError, match="'spare' is given twice"):
            ScenarioSpec(
                name="x", spare=True, hosts=(HostSpec(name="spare", vms=(VMSpec(),)),)
            )


class TestRoundTrip:
    @pytest.mark.parametrize("name", registry.names())
    def test_builtins_round_trip_through_dicts(self, name):
        spec = registry.get(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_plain_data(self):
        data = registry.get("mixed-fleet-rolling").to_dict()
        assert isinstance(data["hosts"][0], dict)
        assert isinstance(data["hosts"][0]["vms"][0], dict)
        assert data["hosts"][0]["vms"][0]["services"] == ["apache"]

    def test_faults_spec_materializes_its_preset(self):
        assert FaultSpec(preset="paper-bugs").to_aging_faults() == (
            AgingFaults.paper_bugs()
        )
        assert FaultSpec().to_aging_faults() == AgingFaults.healthy()


class TestTomlLoading:
    def test_minimal_spec_loads_with_defaults(self, tmp_path):
        spec = load_toml(_write_toml(tmp_path, 'name = "tiny"\n'))
        assert spec.name == "tiny"
        assert spec.host_count == 1 and not spec.is_cluster
        assert spec.hosts[0].vms[0].services == ("ssh",)

    def test_heterogeneous_fleet_spec_loads(self, tmp_path):
        spec = load_toml(
            _write_toml(
                tmp_path,
                """
                name = "mixed"

                [[hosts]]
                count = 2

                [[hosts.vms]]
                memory_gib = 1.0

                [[hosts.vms]]
                memory_gib = 4.0
                services = ["apache", "ssh"]

                [maintenance]
                kind = "rolling"
                """,
            )
        )
        assert spec.host_count == 2 and spec.is_cluster
        small, large = spec.hosts[0].vms
        assert small.memory_bytes == 1 * GiB
        assert large.memory_bytes == 4 * GiB
        assert large.services == ("apache", "ssh")
        assert spec.maintenance.kind == "rolling"

    def test_committed_example_loads_and_validates(self):
        spec = load_toml(os.path.join(_EXAMPLES, "mixed_rolling.toml"))
        assert spec.name == "mixed-rolling-example"
        assert spec.host_count == 3
        memories = sorted(vm.memory_gib for vm in spec.hosts[0].vms)
        assert memories == [1.0, 4.0]
        assert spec.maintenance.kind == "rolling"

    def test_missing_file_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="no such spec file"):
            load_toml("does/not/exist.toml")

    def test_invalid_toml_is_a_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="invalid TOML"):
            load_toml(_write_toml(tmp_path, "name = \n"))

    def test_unreadable_spec_is_a_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_toml(str(tmp_path))
        binary = tmp_path / "binary.toml"
        binary.write_bytes(b'name = "\xff"\n')
        with pytest.raises(ScenarioError, match="invalid TOML"):
            load_toml(str(binary))

    def test_validation_error_names_the_file(self, tmp_path):
        path = _write_toml(tmp_path, 'name = "x"\nprofile = "huge"\n')
        with pytest.raises(ScenarioError, match="spec.toml"):
            load_toml(path)
