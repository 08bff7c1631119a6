"""Ablation benches: remove one warm-VM-reboot ingredient at a time.

DESIGN.md calls out three design choices; each ablation quantifies what
that choice buys, using the same downtime measurement as Figure 6:

* **quick reload** (vs hardware reset): without it, every reboot pays the
  POST — and, crucially, preserved images cannot survive at all;
* **on-memory images** (vs disk images): the saved-VM baseline *is* this
  ablation — disk round-trips scale with memory;
* **suspend-by-VMM after dom0 shutdown** (vs suspend-by-dom0 before):
  §4.2's ordering keeps services up through dom0's shutdown, worth
  ~dom0_shutdown seconds of downtime per VM;
* **driver domains** (§7): their unsuspendability re-introduces guest
  reboots inside a warm reboot.
"""

from repro.analysis.downtime import reboot_downtime_summary
from repro.core import RootHammer, VMSpec
from repro.units import gib


def build(n=4, **vm_kwargs):
    return RootHammer.started(
        vms=[VMSpec(f"vm{i:02d}", memory_bytes=gib(1), **vm_kwargs) for i in range(n)]
    )


def measured_downtime(controller, strategy):
    t0 = controller.now
    controller.rejuvenate(strategy)
    return reboot_downtime_summary(controller.sim.trace, since=t0).mean


def test_ablation_quick_reload_value(benchmark):
    """Warm vs saved isolates on-memory images + quick reload together;
    cold vs warm isolates the whole technique.  The POST alone is ~47 s."""

    def scenario():
        warm = measured_downtime(build(), "warm")
        cold = measured_downtime(build(), "cold")
        return warm, cold

    warm, cold = benchmark.pedantic(scenario, rounds=1, iterations=1)
    # The cold path pays the POST (47 s) plus guest reboots.
    assert cold - warm > 47


def test_ablation_disk_images_scale_with_memory(benchmark):
    """The saved baseline is the 'no on-memory images' ablation: its
    downtime grows with VM memory; warm's does not."""

    def scenario():
        out = {}
        for size in (1, 3):
            rh = RootHammer.started(vms=[VMSpec("vm", memory_bytes=gib(size))])
            out[("saved", size)] = measured_downtime(rh, "saved")
            rh = RootHammer.started(vms=[VMSpec("vm", memory_bytes=gib(size))])
            out[("warm", size)] = measured_downtime(rh, "warm")
        return out

    out = benchmark.pedantic(scenario, rounds=1, iterations=1)
    saved_growth = out[("saved", 3)] - out[("saved", 1)]
    warm_growth = abs(out[("warm", 3)] - out[("warm", 1)])
    assert saved_growth > 20
    assert warm_growth < 2


def test_ablation_suspend_by_vmm_delay(benchmark):
    """§4.2: the VMM suspends *after* dom0 is down, so services stay up
    through the dom0-shutdown phase.  Check the suspends indeed start
    after dom0 shutdown completes, buying ~13.5 s of uptime."""

    def scenario():
        controller = build()
        report = controller.rejuvenate("warm")
        downs = controller.sim.trace.times("service.down", reason="suspend")
        return report, downs

    report, downs = benchmark.pedantic(scenario, rounds=1, iterations=1)
    dom0 = report.phase("dom0-shutdown")
    assert all(t >= dom0.end for t in downs)
    assert dom0.duration > 10


def test_ablation_driver_domains_cost(benchmark):
    """§7: driver domains cannot be suspended, so a warm reboot must cold
    cycle them — their downtime approaches a cold reboot's."""

    def scenario():
        rh = RootHammer.started(
            vms=[
                VMSpec("app", memory_bytes=gib(1)),
                VMSpec("drv", memory_bytes=gib(1), driver_domain=True),
            ]
        )
        t0 = rh.now
        rh.rejuvenate("warm")
        intervals = rh.downtimes(since=t0)
        return {i.domain: i.duration for i in intervals if i.closed}

    durations = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert durations["drv"] > durations["app"] + 10
