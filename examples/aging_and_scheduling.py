#!/usr/bin/env python3
"""Software aging end to end: inject the Xen defects, watch the VMM age,
predict exhaustion, and rejuvenate on schedule.

Recreates §2's motivation mechanically: the cited heap/xenstored leaks are
switched on, VM churn drives consumption up, the control plane's heap
signal feeds an aging detector, a line fitted to its samples recommends
a rejuvenation interval, and a time-based policy (§3.2) runs warm
rejuvenations that demonstrably reset the damage.

Run:  python examples/aging_and_scheduling.py
"""

from repro.aging import RejuvenationPlan, format_availability
from repro.analysis.fitting import fit_line
from repro.config import AgingFaults
from repro.control import Detector, PlanExecutor, heap_utilization_signal, periodic
from repro.core import RootHammer, VMSpec
from repro.units import DAY, fmt_bytes, fmt_duration, gib

AGING_WATERMARK = 0.02
"""Heap utilization at which the aging detector fires."""


def main() -> None:
    print("== aging, detection, and scheduled rejuvenation ==\n")
    controller = RootHammer.started(
        vms=[VMSpec(f"vm{i}", memory_bytes=gib(1)) for i in range(3)],
        faults=AgingFaults.paper_bugs(),
    )
    host = controller.host
    vmm = controller.vmm()
    detector = Detector(
        "aging", host.name, heap_utilization_signal(host), AGING_WATERMARK
    )
    samples: list[tuple[float, float]] = []

    def sample() -> None:
        detector.observe(controller.now)
        samples.append((controller.now, detector.value))

    # Age the system: daily OS rejuvenations churn domains, and each
    # domain destroy leaks VMM heap (the changeset-9392 defect).
    print("aging the VMM with daily guest reboots (leaky Xen defects on)...")
    for day in range(6):
        sample()
        controller.run_for(1 * DAY)
        controller.run_process(host.reboot_guest(f"vm{day % 3}"))
    sample()

    print(f"  heap leaked so far : {fmt_bytes(vmm.heap.leaked_bytes)}")
    print(f"  heap utilization   : {detector.value:.1%}")
    for trigger in detector.triggers:
        print(f"  aging detector fired on day {trigger.time / DAY:.0f} "
              f"({trigger.value:.2%} >= {AGING_WATERMARK:.0%})")
    # Utilization is linear in time under a steady leak; exhaustion is
    # where the fitted line reaches 1.0.
    fit = fit_line([t for t, _ in samples], [u for _, u in samples])
    print(f"  leak trend         : "
          f"{fmt_bytes(int(fit.slope * vmm.heap.capacity_bytes * DAY))}/day")
    exhaustion = (1.0 - fit.intercept) / fit.slope
    print(f"  predicted exhaustion in {fmt_duration(exhaustion - controller.now)}")
    interval = 0.8 * (exhaustion - samples[0][0])
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
