"""Figure 4: pre/post-reboot task time vs a single VM's memory size.

The paper's claim: Xen's disk-based suspend/resume scales with memory
size (133 s / 129 s at 11 GB) while on-memory suspend/resume barely
depends on it (0.08 s / 0.9 s) — 0.06 % and 0.7 % of the Xen numbers.
Shutdown/boot is also roughly size-independent but loses all state.
"""

from __future__ import annotations

import typing

from repro.analysis.report import ComparisonRow, render_table
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentResult,
    build_testbed,
    default_memory_gib,
)
from repro.units import gib

_METHODS = {
    "on-memory": ("warm", "suspend", "resume"),
    "xen-save": ("saved", "save", "restore"),
    "shutdown-boot": ("cold", "guest-shutdown", "guest-boot"),
}
_METHOD_ORDER = ("on-memory", "xen-save", "shutdown-boot")


def measure_cell(size_gib: int, method: str) -> tuple[float, float]:
    """One (memory size, method) cell: a fresh 1-VM testbed, one reboot;
    returns the (pre-reboot, post-reboot) task times."""
    strategy, pre, post = _METHODS[method]
    report = build_testbed(1, memory_bytes=gib(size_gib)).rejuvenate(strategy)
    return report.phase_duration(pre), report.phase_duration(post)


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [
        ((method, size), "measure_cell", {"size_gib": size, "method": method})
        for size in default_memory_gib(full)
        for method in _METHOD_ORDER
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fold per-cell (pre, post) pairs into the Figure 4 result."""
    sizes = default_memory_gib(full)
    result = ExperimentResult(
        "FIG4", "pre/post-reboot task time vs VM memory size (1 VM)"
    )
    table_rows = []
    series: dict[str, list[tuple[int, float, float]]] = {
        "on-memory": [],
        "xen-save": [],
        "shutdown-boot": [],
    }
    for size in sizes:
        onmem = payloads[("on-memory", size)]
        saved = payloads[("xen-save", size)]
        cold = payloads[("shutdown-boot", size)]
        series["on-memory"].append((size, *onmem))
        series["xen-save"].append((size, *saved))
        series["shutdown-boot"].append((size, *cold))
        table_rows.append((size, *onmem, *saved, *cold))

    result.tables.append(
        render_table(
            [
                "GiB",
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
    from repro.analysis.charts import bar_chart

    result.tables.append(
        bar_chart(
            "task time at 11 GiB (log scale, s)",
            [
                (
                    "pre-reboot",
                    {
                        "on-memory suspend": series["on-memory"][-1][1],
                        "xen save": series["xen-save"][-1][1],
                        "shutdown": series["shutdown-boot"][-1][1],
                    },
                ),
                (
                    "post-reboot",
                    {
                        "on-memory resume": series["on-memory"][-1][2],
                        "xen restore": series["xen-save"][-1][2],
                        "boot": series["shutdown-boot"][-1][2],
                    },
                ),
            ],
            log_floor=0.01,
        )
    )

    # The paper quotes its Figure 4 anchors at the largest size, 11 GB.
    if sizes[-1] != 11:
        raise ConfigError("Figure 4 anchors require the 11 GiB point")
    onmem_s, onmem_r = series["on-memory"][-1][1:]
    save_s, save_r = series["xen-save"][-1][1:]
    result.rows = [
        ComparisonRow("on-memory suspend (11 GB)", 0.08, onmem_s, "s", tolerance=0.6),
        ComparisonRow("on-memory resume (11 GB)", 0.9, onmem_r, "s", tolerance=0.6),
        ComparisonRow("Xen suspend (11 GB)", 133.0, save_s, "s"),
        ComparisonRow("Xen resume (11 GB)", 129.0, save_r, "s"),
        ComparisonRow(
            "suspend ratio on-memory/Xen",
            0.0006,
            onmem_s / save_s,
            "x",
            tolerance=1.0,
        ),
        ComparisonRow(
            "resume ratio on-memory/Xen",
            0.007,
            onmem_r / save_r,
            "x",
            tolerance=1.0,
        ),
    ]
    return result
