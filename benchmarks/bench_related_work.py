"""Related-work bench (§7): save accelerations vs the warm-VM reboot.

The paper argues that VMware-style incremental saves, Windows-XP-style
compressed images, and i-RAM-style non-volatile RAM disks each speed up
the disk-based path but none approaches the warm-VM reboot, which "needs
neither such a special device nor extra memory copy".  This bench
measures all five at 4×1 GiB VMs and asserts exactly that ordering.
"""

from repro.analysis.downtime import reboot_downtime_summary
from repro.analysis.report import render_table
from repro.core import (
    COMPRESSED,
    INCREMENTAL,
    PLAIN,
    RAMDISK,
    RootHammer,
    VMSpec,
)
from repro.units import gib


def _downtime(strategy, **options):
    rh = RootHammer.started(
        vms=[VMSpec(f"vm{i}", memory_bytes=gib(1)) for i in range(4)]
    )
    t0 = rh.now
    rh.rejuvenate(strategy, **options)
    return reboot_downtime_summary(rh.sim.trace, since=t0).mean


def test_related_work_save_accelerations(benchmark, record_result):
    def scenario():
        return {
            "warm": _downtime("warm"),
            "saved (plain Xen)": _downtime("saved", variant=PLAIN),
            "saved + incremental": _downtime("saved", variant=INCREMENTAL),
            "saved + compressed": _downtime("saved", variant=COMPRESSED),
            "saved + RAM disk": _downtime("saved", variant=RAMDISK),
        }

    downtimes = benchmark.pedantic(scenario, rounds=1, iterations=1)

    class _Result:
        experiment_id = "SEC7-RELATED"

        @staticmethod
        def render() -> str:
            return "== §7 related-work comparators (4x1 GiB VMs) ==\n" + render_table(
                ["approach", "mean downtime (s)"],
                sorted(downtimes.items(), key=lambda kv: kv[1]),
            )

    record_result(_Result)
    plain = downtimes["saved (plain Xen)"]
    warm = downtimes["warm"]
    for accelerated in (
        "saved + incremental", "saved + compressed", "saved + RAM disk"
    ):
        assert downtimes[accelerated] < plain, accelerated
        assert downtimes[accelerated] > 2 * warm, accelerated
