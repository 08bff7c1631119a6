"""Figure 6: downtime of networked services across VM counts.

(a) ssh — warm 42 s vs cold 157 s vs saved 429 s at 11 VMs;
(b) JBoss — warm/saved unchanged (they never restart the server process)
    but cold grows to 241 s because JBoss must restart.

Downtime is measured the way the paper does: from when each VM's service
stops answering until it answers again, averaged over VMs.  The ssh run
also reproduces the §5.3 TCP observation — sessions survive warm reboots
and time out (60 s client timeout) during saved reboots.
"""

from __future__ import annotations

import typing

from repro.analysis.downtime import reboot_downtime_summary
from repro.analysis.report import ComparisonRow, render_table
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentResult,
    build_testbed,
    default_vm_counts,
)
from repro.guest.tcp import SessionState, TcpSession

_STRATEGIES = ("warm", "saved", "cold")

_PAPER_11VM = {
    ("ssh", "warm"): 42.0,
    ("ssh", "cold"): 157.0,
    ("ssh", "saved"): 429.0,
    ("jboss", "warm"): 42.0,
    ("jboss", "cold"): 241.0,
    ("jboss", "saved"): 429.0,
}


def measure_downtime(
    n: int, service_kind: str, strategy: str, with_session: bool = False
) -> tuple[float, str | None]:
    """Mean service downtime for one (n, service, strategy) cell, plus the
    outcome of a 60 s-timeout TCP session if requested."""
    controller = build_testbed(n, services=(service_kind,))
    session = None
    if with_session:
        service = controller.guest("vm00").services[0]
        session = TcpSession(
            controller.sim, service, client_timeout_s=60.0, name=f"{strategy}-ssh"
        )
    t0 = controller.now
    controller.rejuvenate(strategy)
    controller.run_for(90)  # let the session monitor observe the outcome
    summary = reboot_downtime_summary(controller.sim.trace, since=t0)
    outcome = None
    if session is not None:
        outcome = session.state.value
        session.close()
    return summary.mean, outcome


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners.

    TCP-session observation rides along on the largest ssh run of each
    strategy, exactly as in the paper's §5.3 narrative.
    """
    counts = default_vm_counts(full)
    out: list[tuple[tuple, str, dict]] = []
    for kind in ("ssh", "jboss"):
        for n in counts:
            for strategy in _STRATEGIES:
                out.append(
                    (
                        (kind, n, strategy),
                        "measure_downtime",
                        {
                            "n": n,
                            "service_kind": kind,
                            "strategy": strategy,
                            "with_session": kind == "ssh" and n == counts[-1],
                        },
                    )
                )
    return out


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fold per-cell (mean downtime, session outcome) pairs into the
    Figure 6 result."""
    counts = default_vm_counts(full)
    result = ExperimentResult(
        "FIG6", "service downtime vs VM count (ssh and JBoss)"
    )
    strategies = _STRATEGIES
    sessions: dict[str, str | None] = {}
    for kind in ("ssh", "jboss"):
        table_rows: list[typing.Sequence[typing.Any]] = []
        curves: dict[str, list[tuple[int, float]]] = {s: [] for s in strategies}
        for n in counts:
            row: list[typing.Any] = [n]
            for strategy in strategies:
                mean, outcome = payloads[(kind, n, strategy)]
                curves[strategy].append((n, mean))
                row.append(mean)
                if outcome is not None:
                    sessions[strategy] = outcome
            table_rows.append(row)
        result.tables.append(
            f"-- {kind} --\n"
            + render_table(["VMs", "warm", "saved", "cold"], table_rows)
        )
        result.data[kind] = curves
        if counts[-1] != 11:
            raise ConfigError("Figure 6 anchors require the 11-VM point")
        for strategy in strategies:
            result.rows.append(
                ComparisonRow(
                    f"{kind} downtime, {strategy}, 11 VMs",
                    _PAPER_11VM[(kind, strategy)],
                    curves[strategy][-1][1],
                    "s",
                )
            )
    from repro.analysis.charts import bar_chart

    result.tables.append(
        bar_chart(
            "downtime at 11 VMs (s)",
            [
                (
                    kind,
                    {s: result.data[kind][s][-1][1] for s in strategies},
                )
                for kind in ("ssh", "jboss")
            ],
        )
    )
    result.data["ssh_sessions"] = sessions
    result.tables.append(
        render_table(
            ["strategy", "60 s-timeout ssh session"],
            sorted(sessions.items()),
        )
    )
    # §5.3's qualitative claims about session survival.
    result.rows.append(
        ComparisonRow(
            "warm keeps ssh session (1=yes)",
            1.0,
            1.0 if sessions.get("warm") == SessionState.CONNECTED.value else 0.0,
            "",
            tolerance=0.01,
        )
    )
    result.rows.append(
        ComparisonRow(
            "saved times ssh session out (1=yes)",
            1.0,
            1.0 if sessions.get("saved") == SessionState.TIMED_OUT.value else 0.0,
            "",
            tolerance=0.01,
        )
    )
    result.rows.append(
        ComparisonRow(
            "cold resets ssh session (1=yes)",
            1.0,
            1.0 if sessions.get("cold") == SessionState.RESET.value else 0.0,
            "",
            tolerance=0.01,
        )
    )
    return result
