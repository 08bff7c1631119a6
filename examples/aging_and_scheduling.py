#!/usr/bin/env python3
"""Software aging end to end: inject the Xen defects, watch the VMM age,
predict exhaustion, and rejuvenate on schedule.

Recreates §2's motivation mechanically: the cited heap/xenstored leaks are
switched on, VM churn drives consumption up, an aging monitor fits the
trend and recommends a rejuvenation interval, and a time-based policy
(§3.2) runs warm rejuvenations that demonstrably reset the damage.

Run:  python examples/aging_and_scheduling.py
"""

from repro.aging import AgingMonitor, RejuvenationPlan, format_availability
from repro.config import AgingFaults
from repro.control import PlanExecutor, periodic
from repro.core import RootHammer, VMSpec
from repro.units import DAY, HOUR, fmt_bytes, fmt_duration, gib


def main() -> None:
    print("== aging, detection, and scheduled rejuvenation ==\n")
    controller = RootHammer.started(
        vms=[VMSpec(f"vm{i}", memory_bytes=gib(1)) for i in range(3)],
        faults=AgingFaults.paper_bugs(),
    )
    host = controller.host
    vmm = controller.vmm()
    monitor = AgingMonitor(host, interval_s=6 * HOUR)

    # Age the system: daily OS rejuvenations churn domains, and each
    # domain destroy leaks VMM heap (the changeset-9392 defect).
    print("aging the VMM with daily guest reboots (leaky Xen defects on)...")
    for day in range(6):
        monitor.sample_once()
        controller.run_for(1 * DAY)
        controller.run_process(host.reboot_guest(f"vm{day % 3}"))
    monitor.sample_once()

    print(f"  heap leaked so far : {fmt_bytes(vmm.heap.leaked_bytes)}")
    print(f"  heap utilization   : {vmm.heap.utilization:.1%}")
    slope, _ = monitor.heap_trend()
    exhaustion = monitor.estimate_heap_exhaustion()
    print(f"  leak trend         : {fmt_bytes(int(slope * DAY))}/day")
    print(f"  predicted exhaustion in {fmt_duration(exhaustion - controller.now)}")
    interval = monitor.recommended_rejuvenation_interval(safety=0.8)
    print(f"  recommended VMM rejuvenation interval: {fmt_duration(interval)}\n")

    # Hand control to the time-based policy with a warm strategy.
    print("running the time-based policy (weekly OS, 4-weekly warm VMM)...")
    executor = PlanExecutor(controller.sim, {host.name: host})
    controller.run_process(
        periodic(
            executor, host, "warm", os_interval_s=7 * DAY,
            vmm_interval_s=28 * DAY, until=controller.now + 30 * DAY,
        )
    )
    actions = [entry["action"] for entry in executor.audit]
    print(f"  OS rejuvenations  : {actions.count('rejuvenate-os')}")
    print(f"  VMM rejuvenations : {actions.count('rejuvenate-warm')}")
    print(f"  heap leaked now   : "
          f"{fmt_bytes(controller.vmm().heap.leaked_bytes)} (fresh instance)\n")

    # What does this schedule mean for availability (§5.3)?
    plan = RejuvenationPlan(os_downtime_s=33.6, vmm_downtime_s=42.0)
    print("availability under this plan "
          f"(paper's §5.3 model): {format_availability(plan.availability())}"
          f" ({plan.nines():.1f} nines)")


if __name__ == "__main__":
    main()
