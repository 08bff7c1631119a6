"""Figure 5: pre/post-reboot task time vs the number of 1 GiB VMs.

All three methods depend on the VM count, but on wildly different scales:
at 11 VMs the paper measures on-memory suspend/resume at 0.04 s / 4.2 s
versus Xen's ~200 s / ~156 s, and boot time grows steeply with VM count
because parallel boots contend on the disk.
"""

from __future__ import annotations

import typing

from repro.analysis.fitting import fit_line
from repro.analysis.report import ComparisonRow, render_table
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentResult,
    build_testbed,
    default_vm_counts,
)

_METHODS = {
    "on-memory": ("warm", "suspend", "resume"),
    "xen-save": ("saved", "save", "restore"),
    "shutdown-boot": ("cold", "guest-shutdown", "guest-boot"),
}
_METHOD_ORDER = ("on-memory", "xen-save", "shutdown-boot")


def measure_cell(n: int, method: str) -> tuple[float, float]:
    """One (VM count, method) cell: a fresh n-VM testbed, one reboot;
    returns the (pre-reboot, post-reboot) task times."""
    strategy, pre, post = _METHODS[method]
    report = build_testbed(n).rejuvenate(strategy)
    return report.phase_duration(pre), report.phase_duration(post)


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [
        ((method, n), "measure_cell", {"n": n, "method": method})
        for n in default_vm_counts(full)
        for method in _METHOD_ORDER
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fold per-cell (pre, post) pairs into the Figure 5 result."""
    counts = default_vm_counts(full)
    result = ExperimentResult(
        "FIG5", "pre/post-reboot task time vs number of 1 GiB VMs"
    )
    table_rows = []
    series: dict[str, list[tuple[int, float, float]]] = {
        "on-memory": [],
        "xen-save": [],
        "shutdown-boot": [],
    }
    for n in counts:
        onmem = payloads[("on-memory", n)]
        xen = payloads[("xen-save", n)]
        sb = payloads[("shutdown-boot", n)]
        series["on-memory"].append((n, *onmem))
        series["xen-save"].append((n, *xen))
        series["shutdown-boot"].append((n, *sb))
        table_rows.append((n, *onmem, *xen, *sb))

    result.tables.append(
        render_table(
            [
                "VMs",
                "onmem-susp",
                "onmem-res",
                "xen-save",
                "xen-restore",
                "shutdown",
                "boot",
            ],
            table_rows,
        )
    )
    result.data["series"] = series
    from repro.analysis.charts import line_plot

    result.tables.append(
        line_plot(
            "post-reboot task time vs VM count (s)",
            {
                "on-memory resume": [(n, r) for n, _, r in series["on-memory"]],
                "xen restore": [(n, r) for n, _, r in series["xen-save"]],
                "boot": [(n, b) for n, _, b in series["shutdown-boot"]],
            },
        )
    )

    if counts[-1] != 11:
        raise ConfigError("Figure 5 anchors require the 11-VM point")
    onmem_s, onmem_r = series["on-memory"][-1][1:]
    xen_s, xen_r = series["xen-save"][-1][1:]
    boot_fit = fit_line(
        [n for n, _, _ in series["shutdown-boot"]],
        [boot for _, _, boot in series["shutdown-boot"]],
    )
    result.data["boot_fit"] = boot_fit
    result.rows = [
        ComparisonRow("on-memory suspend (11 VMs)", 0.04, onmem_s, "s", tolerance=1.0),
        ComparisonRow("on-memory resume (11 VMs)", 4.2, onmem_r, "s"),
        ComparisonRow("Xen suspend (11 VMs)", 200.0, xen_s, "s"),
        ComparisonRow("Xen resume (11 VMs)", 155.6, xen_r, "s"),
        ComparisonRow("boot slope (s/VM)", 3.4, boot_fit.slope, "s/VM"),
        ComparisonRow(
            "suspend ratio on-memory/Xen", 0.0002, onmem_s / xen_s, "x",
            tolerance=1.5,
        ),
        ComparisonRow(
            "resume ratio on-memory/Xen", 0.027, onmem_r / xen_r, "x",
            tolerance=1.0,
        ),
    ]
    return result
