"""§5.6: fit the downtime model's functions from simulated sweeps.

The paper measures, for n = 1..11 VMs:

    reboot_vmm(n) = -0.55 n + 43      resume(n) = 0.43 n - 0.07
    reboot_os(n)  =  3.8 n + 13       boot(n)   = 3.4 n + 2.8
    reset_hw      =  47

and derives ``r(n) = 3.9 n + 60 - 17 α > 0`` — the warm-VM reboot always
reduces downtime.  This runner reproduces the same sweeps, fits the same
lines, and re-derives the r(n) coefficients.
"""

from __future__ import annotations

import typing

from repro.analysis.downtime_model import DowntimeModel, paper_model
from repro.analysis.fitting import fit_constant, fit_line
from repro.analysis.report import ComparisonRow, render_table
from repro.core import RebootReport
from repro.experiments.common import (
    ExperimentResult,
    build_testbed,
    default_vm_counts,
)


def _reboot(n: int, strategy: str) -> RebootReport:
    """One VMM reboot of a fresh ``n``-VM testbed."""
    return build_testbed(n).rejuvenate(strategy)


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners:
    a warm and a cold reboot per VM count."""
    return [
        ((strategy, n), "_reboot", {"n": n, "strategy": strategy})
        for n in default_vm_counts(full)
        for strategy in ("warm", "cold")
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fit the downtime model's lines from the reboot reports."""
    result = ExperimentResult("SEC56", "fitted downtime model and r(n)")
    counts = default_vm_counts(full)
    reboot_vmm, resume, reboot_os, boot = [], [], [], []
    resets = []
    for n in counts:
        warm = payloads[("warm", n)]
        reboot_vmm.append(warm.vmm_reboot_duration())
        resume.append(
            warm.phase_duration("suspend") + warm.phase_duration("resume")
        )
        cold = payloads[("cold", n)]
        reboot_os.append(
            cold.phase_duration("guest-shutdown")
            + cold.phase_duration("guest-boot")
        )
        boot.append(cold.phase_duration("guest-boot"))
        resets.append(cold.phase_duration("hardware-reset"))
    measured = {
        "counts": counts,
        "reboot_vmm": fit_line(counts, reboot_vmm),
        "resume": fit_line(counts, resume),
        "reboot_os": fit_line(counts, reboot_os),
        "boot": fit_line(counts, boot),
        "reset_hw": fit_constant(resets),
        "raw": {
            "reboot_vmm": reboot_vmm,
            "resume": resume,
            "reboot_os": reboot_os,
            "boot": boot,
        },
    }
    model = DowntimeModel(
        reboot_vmm=measured["reboot_vmm"],
        resume=measured["resume"],
        reboot_os=measured["reboot_os"],
        reset_hw=measured["reset_hw"],
    )
    reference = paper_model()
    result.data["model"] = model
    result.data["fits"] = measured

    result.tables.append(
        render_table(
            ["function", "paper", "measured", "r^2"],
            [
                (
                    "reboot_vmm(n)",
                    reference.reboot_vmm.formatted(),
                    measured["reboot_vmm"].formatted(),
                    measured["reboot_vmm"].r_squared,
                ),
                (
                    "resume(n)",
                    reference.resume.formatted(),
                    measured["resume"].formatted(),
                    measured["resume"].r_squared,
                ),
                (
                    "reboot_os(n)",
                    reference.reboot_os.formatted(),
                    measured["reboot_os"].formatted(),
                    measured["reboot_os"].r_squared,
                ),
                (
                    "boot(n)",
                    "3.4n + 2.8",
                    measured["boot"].formatted(),
                    measured["boot"].r_squared,
                ),
                ("reset_hw", "47", f"{measured['reset_hw']:.1f}", 1.0),
            ],
        )
    )

    slope, constant, alpha_coefficient = model.r_coefficients()
    paper_slope, paper_constant, paper_alpha = reference.r_coefficients()
    result.tables.append(
        render_table(
            ["r(n) term", "paper", "measured"],
            [
                ("n coefficient", paper_slope, slope),
                ("constant", paper_constant, constant),
                ("alpha coefficient", paper_alpha, alpha_coefficient),
            ],
        )
    )
    result.rows = [
        ComparisonRow("reboot_vmm slope", -0.55, measured["reboot_vmm"].slope,
                      "s/VM", tolerance=0.6),
        ComparisonRow("reboot_vmm intercept", 43.0,
                      measured["reboot_vmm"].intercept, "s"),
        ComparisonRow("resume slope", 0.43, measured["resume"].slope, "s/VM"),
        ComparisonRow("reboot_os slope", 3.8, measured["reboot_os"].slope, "s/VM"),
        ComparisonRow("reboot_os intercept", 13.0,
                      measured["reboot_os"].intercept, "s"),
        ComparisonRow("boot slope", 3.4, measured["boot"].slope, "s/VM"),
        ComparisonRow("reset_hw", 47.0, measured["reset_hw"], "s"),
        ComparisonRow("r(n) slope", 3.9, slope, "s/VM"),
        ComparisonRow("r(n) constant", 60.0, constant, "s"),
        ComparisonRow("r(n) alpha coefficient", -17.0, alpha_coefficient, "s"),
        ComparisonRow(
            "r(n) always positive (1=yes)",
            1.0,
            1.0 if model.always_positive() else 0.0,
            "",
            tolerance=0.01,
        ),
    ]
    return result
