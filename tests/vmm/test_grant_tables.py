"""Unit and integration tests for grant tables."""

import pytest

from repro.errors import VMMError
from repro.vmm.grant_tables import GrantTable


class TestGrantLifecycle:
    def test_grant_and_revoke(self):
        table = GrantTable()
        entry = table.grant("vm1", "Domain-0", pfn=16)
        assert len(table) == 1
        table.revoke(entry.reference)
        assert len(table) == 0

    def test_self_grant_rejected(self):
        with pytest.raises(VMMError):
            GrantTable().grant("vm1", "vm1", pfn=1)

    def test_negative_pfn_rejected(self):
        with pytest.raises(VMMError):
            GrantTable().grant("vm1", "Domain-0", pfn=-1)

    def test_unknown_reference_rejected(self):
        with pytest.raises(VMMError):
            GrantTable().revoke(99)

    def test_map_unmap_cycle(self):
        table = GrantTable()
        entry = table.grant("vm1", "Domain-0", pfn=16)
        table.map_grant(entry.reference, "Domain-0")
        assert entry.mapped
        with pytest.raises(VMMError):
            table.map_grant(entry.reference, "Domain-0")  # double map
        table.unmap_grant(entry.reference)
        assert not entry.mapped
        with pytest.raises(VMMError):
            table.unmap_grant(entry.reference)  # double unmap

    def test_only_grantee_can_map(self):
        table = GrantTable()
        entry = table.grant("vm1", "Domain-0", pfn=16)
        with pytest.raises(VMMError):
            table.map_grant(entry.reference, "vm2")

    def test_revoke_refuses_while_mapped(self):
        """The safety rule suspend relies on: in-flight I/O blocks revoke."""
        table = GrantTable()
        entry = table.grant("vm1", "Domain-0", pfn=16)
        table.map_grant(entry.reference, "Domain-0")
        with pytest.raises(VMMError):
            table.revoke(entry.reference)
        table.unmap_grant(entry.reference)
        table.revoke(entry.reference)

    def test_quiesce_check(self):
        table = GrantTable()
        table.require_quiesced("vm1")  # no grants: fine
        table.grant("vm1", "Domain-0", pfn=16)
        with pytest.raises(VMMError):
            table.require_quiesced("vm1")

    def test_revoke_all_and_purge(self):
        table = GrantTable()
        for pfn in (16, 17):
            entry = table.grant("vm1", "Domain-0", pfn=pfn)
            table.revoke(entry.reference)  # the guest's device-detach path
        table.require_quiesced("vm1")
        entry = table.grant("vm1", "Domain-0", pfn=18)
        table.grant("vm2", "Domain-0", pfn=18)
        table.map_grant(entry.reference, "Domain-0")
        with pytest.raises(VMMError):
            table.revoke(entry.reference)  # mapped: orderly path refuses
        assert table.purge("vm1") == 1  # destruction path doesn't
        assert table.mapped_count("vm1") == 0
        assert len(table) == 1


class TestGrantsInTheStack:
    def test_running_guests_hold_ring_grants(self, sim, started_host):
        table = started_host.vmm.grant_table
        # Two VMs x two devices (vbd+vif) = 4 grants, all mapped by dom0.
        assert len(table) == 4
        assert table.mapped_count("vm0") == 2

    def test_suspend_handler_quiesces_grants(self, sim, started_host):
        guest = started_host.guest("vm0")
        sim.run(sim.spawn(guest.run_suspend_handler()))
        started_host.vmm.grant_table.require_quiesced("vm0")
        sim.run(sim.spawn(guest.run_resume_handler()))
        assert started_host.vmm.grant_table.mapped_count("vm0") == 2

    def test_warm_reboot_reestablishes_grants(self, sim, started_host):
        sim.run(sim.spawn(started_host.reboot("warm")))
        table = started_host.vmm.grant_table  # the successor's table
        assert table.mapped_count("vm0") == 2
        assert table.mapped_count("vm1") == 2

    def test_shutdown_revokes_grants(self, sim, started_host):
        guest = started_host.guest("vm0")
        sim.run(sim.spawn(guest.shutdown()))
        started_host.vmm.grant_table.require_quiesced("vm0")

    def test_suspend_without_handler_is_refused(self, sim, started_host):
        """A suspend hypercall that skipped the handler (and therefore the
        grant teardown) must be rejected by the VMM."""
        from repro.vmm.domain import DomainState

        vmm = started_host.vmm
        domain = vmm.domain("vm0")
        domain.transition(DomainState.SUSPENDING)
        with pytest.raises(VMMError, match="grant"):
            vmm.hypercall("suspend", domain)
