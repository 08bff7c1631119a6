"""§5.2: how fast is the VMM rebooted with quick reload vs hardware reset?

The paper measures the interval from "shutdown script completed" to "VMM
reboot completed": 11 s with quick reload, 59 s with a hardware reset —
the reload saves the 48-second power-on self-test.
"""

from __future__ import annotations

import typing

from repro.analysis.report import ComparisonRow, render_table
from repro.experiments.common import ExperimentResult, build_testbed


def _vmm_reboot_window(strategy: str) -> float:
    """Shutdown-script completion -> VMM (not dom0) back up, for one
    reboot of a bare VMM (no domUs: the paper measures the bare reboot)."""
    report = build_testbed(0).rejuvenate(strategy)
    names = {"vmm-shutdown", "quick-reload", "hardware-reset", "vmm-boot"}
    return sum(p.duration for p in report.phases if p.name in names)


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [
        ((strategy,), "_vmm_reboot_window", {"strategy": strategy})
        for strategy in ("warm", "cold")
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Compare the quick-reload (warm) and hardware-reset (cold) windows."""
    result = ExperimentResult(
        "SEC52", "VMM reboot time: quick reload vs hardware reset"
    )
    quick = payloads[("warm",)]
    reset = payloads[("cold",)]
    result.tables.append(
        render_table(
            ["method", "seconds"],
            [("quick reload", quick), ("hardware reset", reset)],
        )
    )
    result.data.update(quick_reload=quick, hardware_reset=reset)
    result.rows = [
        ComparisonRow("quick reload reboot", 11.0, quick, "s"),
        ComparisonRow("hardware-reset reboot", 59.0, reset, "s"),
        ComparisonRow("seconds saved", 48.0, reset - quick, "s"),
    ]
    return result
