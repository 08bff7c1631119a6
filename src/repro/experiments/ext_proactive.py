"""EXT-PROACTIVE: proactive rejuvenation vs reactive crash recovery.

An extension beyond the paper's measurements, quantifying its premise
("preventive maintenance by software rejuvenation would decrease problems
due to aging", §2):

Two identical hosts suffer the same aging — the VMM heap leaks fast
enough to exhaust the 16 MB heap in ~10 days.  One host does nothing and
relies on a crash watchdog (reactive).  The other runs weekly warm
rejuvenation (proactive), which resets the heap before exhaustion.  Over
eight simulated weeks, the proactive host trades a handful of planned
~40 s outages for the reactive host's repeated unplanned crashes, each
costing detection time plus a full cold recovery with cache loss.
"""

from __future__ import annotations

import typing

from repro.aging.watchdog import CrashWatchdog, HeapExhaustionCrasher
from repro.analysis.downtime import extract_downtimes
from repro.analysis.report import ComparisonRow, render_table
from repro.control import PlanExecutor, periodic
from repro.experiments.common import ExperimentResult, build_testbed
from repro.units import MiB, WEEK


_LEAK_PER_HOUR = int(0.07 * MiB)
"""~16 MB heap gone in ~10 days: ages out between weekly rejuvenations'
reach only if nobody rejuvenates."""


def _run_host(proactive: bool, weeks: float = 8.0) -> dict[str, object]:
    controller = build_testbed(3)
    host = controller.host
    sim = controller.sim
    horizon = sim.now + weeks * WEEK
    t0 = sim.now

    crasher = HeapExhaustionCrasher(host, leak_bytes_per_hour=_LEAK_PER_HOUR)
    crasher_proc = sim.spawn(crasher.run(horizon), name="crasher")
    watchdog = CrashWatchdog(host, detection_timeout_s=60.0)
    watchdog_proc = sim.spawn(watchdog.run(horizon), name="watchdog")

    executor = PlanExecutor(sim, {host.name: host})
    policy_proc = None
    if proactive:
        schedule = periodic(
            executor, host, "warm",
            os_interval_s=weeks * WEEK * 10,  # OS rejuvenation out of scope here
            vmm_interval_s=WEEK,
            until=horizon,
        )
        policy_proc = sim.spawn(schedule, name="policy")
    if sim.now < horizon:
        sim.run(until=horizon)
    for proc in (crasher_proc, watchdog_proc, policy_proc):
        if proc is not None and proc.is_alive:
            proc.kill()
    sim.run()  # drain any in-flight recovery so outages close

    intervals = [
        i for i in extract_downtimes(controller.sim.trace, since=t0) if i.closed
    ]
    total_downtime = sum(i.duration for i in intervals)
    horizon_span = weeks * WEEK
    return {
        "crashes": len(crasher.crashes),
        "recoveries": len(watchdog.recoveries),
        "planned_rejuvenations": executor.rejuvenations,
        "total_downtime": total_downtime / 3,  # per VM
        "availability": 1 - (total_downtime / 3) / horizon_span,
    }


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [
        ((name,), "_run_host", {"proactive": name == "proactive"})
        for name in ("reactive", "proactive")
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Race weekly warm rejuvenation against watchdog-only crash recovery."""
    result = ExperimentResult(
        "EXT-PROACTIVE",
        "proactive warm rejuvenation vs reactive crash recovery (extension)",
    )
    reactive = payloads[("reactive",)]
    proactive = payloads[("proactive",)]
    result.data["reactive"] = reactive
    result.data["proactive"] = proactive
    result.tables.append(
        render_table(
            [
                "policy", "crashes", "planned rejuvs",
                "downtime/VM (s)", "availability",
            ],
            [
                (
                    "reactive (watchdog only)",
                    reactive["crashes"],
                    0,
                    reactive["total_downtime"],
                    f"{reactive['availability'] * 100:.4f} %",
                ),
                (
                    "proactive (weekly warm)",
                    proactive["crashes"],
                    proactive["planned_rejuvenations"],
                    proactive["total_downtime"],
                    f"{proactive['availability'] * 100:.4f} %",
                ),
            ],
        )
    )
    result.rows = [
        ComparisonRow(
            "proactive host never crashes (1=yes)",
            1.0,
            1.0 if proactive["crashes"] == 0 else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "reactive host crashes repeatedly (1=yes)",
            1.0,
            1.0 if reactive["crashes"] >= 3 else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "proactive downtime < half of reactive (1=yes)",
            1.0,
            1.0
            if proactive["total_downtime"] < 0.5 * reactive["total_downtime"]
            else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "proactive availability higher (1=yes)",
            1.0,
            1.0
            if proactive["availability"] > reactive["availability"]
            else 0.0,
            "",
            tolerance=0.01,
        ),
    ]
    return result
