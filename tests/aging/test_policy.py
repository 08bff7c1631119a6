"""The aging story end to end.

Aging detection and the rejuvenation policies are tested with the
control plane that runs them: tests/control/test_detectors.py,
tests/control/test_schedule.py and tests/control/test_loop.py.
"""

from repro.config import AgingFaults

from tests.conftest import build_started_host


class TestEndToEndAging:
    def test_paper_bugs_age_the_vmm_and_warm_reboot_rejuvenates(self, sim):
        """The full §2 story: domain churn under the cited Xen defects
        exhausts the heap; a warm reboot restores it without touching
        the running guests."""
        host = build_started_host(sim, n_vms=2, faults=AgingFaults.paper_bugs())
        vmm = host.vmm
        baseline = vmm.heap.used_bytes
        # Churn: repeatedly rejuvenate one guest OS (create/destroy cycles).
        for _ in range(8):
            sim.run(sim.spawn(host.reboot_guest("vm0")))
        assert vmm.heap.leaked_bytes > 0
        assert vmm.heap.used_bytes > baseline
        survivor_cache = host.guest("vm1").page_cache
        sim.run(sim.spawn(host.reboot("warm")))
        assert host.vmm.heap.leaked_bytes == 0
        assert host.guest("vm1").page_cache is survivor_cache
