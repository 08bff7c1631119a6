"""Figure 8: post-reboot performance degradation from file-cache loss.

(a) reading a cached 512 MB file: after a cold reboot the first access
    runs at disk speed — 91 % throughput loss; after a warm reboot there
    is no loss because the cache survived in the preserved image.
(b) an Apache corpus of 10 000 × 512 KB cached files under 10 concurrent
    clients: 69 % throughput loss after cold (seek-bound disk), none
    after warm.
"""

from __future__ import annotations

import typing

from repro.analysis.report import ComparisonRow, render_table
from repro.experiments.common import (
    ExperimentResult,
    build_testbed,
)
from repro.units import gib, kib, mib
from repro.workloads.fileread import degradation, first_and_second_read
from repro.workloads.httperf import Httperf


def _file_read_case(strategy: str) -> dict[str, float]:
    """Figure 8(a): one 11 GiB VM, one 512 MB file, read around a reboot."""
    controller = build_testbed(1, memory_bytes=gib(11))
    guest = controller.guest("vm00")
    guest.filesystem.create("/data/file", mib(512))
    # Cache the file, then take the before-reboot measurements.
    controller.run_process(guest.read_file("/data/file"))
    before = controller.run_process(first_and_second_read(guest, "/data/file"))
    controller.rejuvenate(strategy)
    guest_after = controller.guest("vm00")  # fresh image if cold
    after = controller.run_process(
        first_and_second_read(guest_after, "/data/file")
    )
    return {
        "before_first": before[0].throughput,
        "before_second": before[1].throughput,
        "after_first": after[0].throughput,
        "after_second": after[1].throughput,
    }


def _web_case(strategy: str, nfiles: int, concurrency: int = 10) -> dict[str, float]:
    """Figure 8(b): cached corpus; every file requested exactly once,
    before and after the reboot."""
    controller = build_testbed(1, memory_bytes=gib(11), services=("apache",))
    guest = controller.guest("vm00")
    paths = guest.filesystem.create_many("/www", nfiles, kib(512))
    controller.run_process(guest.warm_file_cache(paths))

    def lookup():
        return controller.host.guest("vm00").service("apache")

    def sweep() -> float:
        client = Httperf(
            controller.sim, lookup, paths, concurrency=concurrency,
            each_path_once=True, name=f"fig8b-{strategy}",
        ).start()
        controller.sim.run(client.wait())
        return client.mean_rate()

    before = sweep()
    controller.rejuvenate(strategy)
    # Let the post-create network quirk pass: Figure 8 measures the
    # steady state after the reboot, not the transient of Figure 7.
    controller.run_for(40)
    after = sweep()
    return {"before": before, "after": after}


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    nfiles = 10_000 if full else 2_000
    out: list[tuple[tuple, str, dict]] = [
        (("read", s), "_file_read_case", {"strategy": s})
        for s in ("warm", "cold")
    ]
    out.extend(
        (("web", s), "_web_case", {"strategy": s, "nfiles": nfiles})
        for s in ("warm", "cold")
    )
    return out


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fold per-cell throughput dicts into the Figure 8 result."""
    result = ExperimentResult(
        "FIG8", "throughput of file reads and web accesses around a reboot"
    )
    reads = {s: payloads[("read", s)] for s in ("warm", "cold")}
    result.tables.append(
        "-- (a) 512 MB file read throughput (MB/s) --\n"
        + render_table(
            ["strategy", "before 1st", "before 2nd", "after 1st", "after 2nd"],
            [
                (
                    s,
                    r["before_first"] / mib(1),
                    r["before_second"] / mib(1),
                    r["after_first"] / mib(1),
                    r["after_second"] / mib(1),
                )
                for s, r in reads.items()
            ],
        )
    )
    web = {s: payloads[("web", s)] for s in ("warm", "cold")}
    result.tables.append(
        "-- (b) web server throughput (req/s) --\n"
        + render_table(
            ["strategy", "before", "after"],
            [(s, w["before"], w["after"]) for s, w in web.items()],
        )
    )
    result.data["reads"] = reads
    result.data["web"] = web

    cold_read_loss = degradation(
        reads["cold"]["before_first"], reads["cold"]["after_first"]
    )
    warm_read_loss = degradation(
        reads["warm"]["before_first"], reads["warm"]["after_first"]
    )
    cold_web_loss = degradation(web["cold"]["before"], web["cold"]["after"])
    warm_web_loss = degradation(web["warm"]["before"], web["warm"]["after"])
    result.rows = [
        ComparisonRow("file read loss after cold", 0.91, cold_read_loss, "frac",
                      tolerance=0.08),
        ComparisonRow("file read loss after warm", 0.0, warm_read_loss, "frac",
                      tolerance=0.02),
        ComparisonRow("web loss after cold", 0.69, cold_web_loss, "frac",
                      tolerance=0.12),
        ComparisonRow("web loss after warm", 0.0, warm_web_loss, "frac",
                      tolerance=0.05),
        ComparisonRow(
            "after-2nd recovers (cold, ratio to before)",
            1.0,
            reads["cold"]["after_second"] / reads["cold"]["before_second"],
            "x",
            tolerance=0.05,
        ),
    ]
    return result
