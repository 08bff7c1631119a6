"""§5.3 availability analysis: nines under the weekly usage model.

Feeds *simulated* downtimes (11 JBoss VMs; OS rejuvenation of a single
VM) into the §3.2 usage model — OS rejuvenation weekly, VMM rejuvenation
every four weeks, α = 0.5 — and compares the resulting availabilities
with the paper's 99.993 % / 99.985 % / 99.977 %.
"""

from __future__ import annotations

import typing

from repro.aging.availability import format_availability, paper_plans
from repro.analysis.downtime import reboot_downtime_summary
from repro.analysis.report import ComparisonRow, render_table
from repro.experiments.common import ExperimentResult, build_testbed
from repro.experiments.fig6_downtime import measure_downtime

_N_VMS = 11
_STRATEGIES = ("warm", "cold", "saved")


def measure_os_rejuvenation_downtime(n_vms: int = 11) -> float:
    """Downtime of rebooting one JBoss guest while its peers keep running
    (the paper's 33.6 s)."""
    controller = build_testbed(n_vms, services=("jboss",))
    t0 = controller.now
    controller.run_process(controller.host.reboot_guest("vm00"))
    summary = reboot_downtime_summary(
        controller.sim.trace, since=t0, service="jboss"
    )
    return summary.mean


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners:
    one guest's OS rejuvenation, then Figure 6's 11-VM JBoss downtime
    per VMM reboot strategy — FIG6's own cells, so a sweep of both runs
    them once."""
    return [(("os",), "measure_os_rejuvenation_downtime", {"n_vms": _N_VMS})] + [
        (
            (strategy,),
            "measure_downtime",
            {
                "n": _N_VMS,
                "service_kind": "jboss",
                "strategy": strategy,
                "with_session": False,
            },
        )
        for strategy in _STRATEGIES
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Compute availability nines from measured downtimes."""
    result = ExperimentResult(
        "SEC53", "availability under weekly OS / 4-weekly VMM rejuvenation"
    )
    os_downtime = payloads[("os",)]
    downtimes = {
        strategy: payloads[(strategy,)][0] for strategy in _STRATEGIES
    }
    plans = paper_plans(
        warm_downtime_s=downtimes["warm"],
        cold_downtime_s=downtimes["cold"],
        saved_downtime_s=downtimes["saved"],
        os_downtime_s=os_downtime,
    )
    reference = paper_plans()  # the paper's own numbers
    result.tables.append(
        render_table(
            ["strategy", "measured dt (s)", "availability", "nines"],
            [
                (
                    name,
                    downtimes[name],
                    format_availability(plan.availability()),
                    plan.nines(),
                )
                for name, plan in plans.items()
            ],
        )
    )
    result.data["downtimes"] = downtimes
    result.data["os_downtime"] = os_downtime
    result.data["availability"] = {
        name: plan.availability() for name, plan in plans.items()
    }
    paper_availability = {"warm": 99.993, "cold": 99.985, "saved": 99.977}
    result.rows = [
        ComparisonRow("OS rejuvenation downtime", 33.6, os_downtime, "s"),
    ]
    for name, plan in plans.items():
        result.rows.append(
            ComparisonRow(
                f"availability, {name}",
                paper_availability[name],
                plan.availability() * 100,
                "%",
                tolerance=0.001,  # availabilities must match very closely
            )
        )
    # The qualitative claim: warm reaches four nines, the others three.
    result.rows.append(
        ComparisonRow(
            "warm reaches four nines (1=yes)",
            1.0,
            1.0 if plans["warm"].nines() >= 4.0 else 0.0,
            "",
            tolerance=0.01,
        )
    )
    result.data["reference_availability"] = {
        name: plan.availability() for name, plan in reference.items()
    }
    return result
