"""Figure 2: the timing interaction between OS and VMM rejuvenation.

With the warm-VM reboot, VMM rejuvenation is independent of the OS
rejuvenation schedule — each guest keeps its weekly cadence (Fig. 2(a)).
With the cold-VM reboot, a VMM rejuvenation *is* an OS rejuvenation, so
every guest's next OS rejuvenation is rescheduled from that point
(Fig. 2(b)).

The runner drives both policies over eight simulated weeks and checks the
resulting event trains: cadence preserved under warm, phase-shifted under
cold, and fewer standalone OS rejuvenations under cold (the α credit).
"""

from __future__ import annotations

import typing

from repro.analysis.report import ComparisonRow, render_table
from repro.control import PlanExecutor, periodic
from repro.experiments.common import ExperimentResult, build_testbed
from repro.units import DAY, WEEK


def _schedule(strategy: str, weeks: float = 9.0) -> list[dict]:
    """The audit of ``weeks`` of the §3.2 schedule on a 2-VM host."""
    controller = build_testbed(2)
    host = controller.host
    executor = PlanExecutor(controller.sim, {host.name: host})
    until = controller.now + weeks * WEEK
    controller.run_process(
        periodic(executor, host, strategy, WEEK, 4 * WEEK, until)
    )
    return executor.audit


def _events(audit: list[dict]) -> list[tuple[str, float, str]]:
    """The audit as Figure 2's (event, time, target) train: ``os`` and
    the guest, or ``vmm`` and the reboot strategy."""
    return [
        ("os", e["time"], e["vm"])
        if e["action"] == "rejuvenate-os"
        else ("vmm", e["time"], e["action"].removeprefix("rejuvenate-"))
        for e in audit
    ]


def _count(audit: list[dict], event: str) -> int:
    return sum(1 for kind, _, _ in _events(audit) if kind == event)


def _os_gaps(audit: list[dict], domain: str) -> list[float]:
    times = [t for kind, t, vm in _events(audit) if (kind, vm) == ("os", domain)]
    return [b - a for a, b in zip(times, times[1:])]


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [
        ((strategy,), "_schedule", {"strategy": strategy})
        for strategy in ("warm", "cold")
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Compare the warm and cold nine-week audits (Figure 2)."""
    result = ExperimentResult(
        "FIG2", "rejuvenation timing: warm keeps the OS cadence, cold shifts it"
    )
    warm = payloads[("warm",)]
    cold = payloads[("cold",)]

    result.tables.append(
        render_table(
            ["policy", "os rejuvenations", "vmm rejuvenations"],
            [
                ("warm", _count(warm, "os"), _count(warm, "vmm")),
                ("cold", _count(cold, "os"), _count(cold, "vmm")),
            ],
        )
    )
    result.tables.append(
        render_table(
            ["policy", "event", "day", "target"],
            [
                (name, kind, time / DAY, target)
                for name, audit in (("warm", warm), ("cold", cold))
                for kind, time, target in _events(audit)
            ],
        )
    )
    warm_gaps = _os_gaps(warm, "vm00") + _os_gaps(warm, "vm01")
    cold_gaps = _os_gaps(cold, "vm00") + _os_gaps(cold, "vm01")
    result.data["warm_events"] = warm
    result.data["cold_events"] = cold

    # Under warm, every OS gap is exactly one week (cadence independent of
    # the VMM rejuvenation); under cold at least one gap stretches past a
    # week because the VMM reboot reset the OS clock.
    warm_cadence_kept = all(abs(g - WEEK) < DAY for g in warm_gaps)
    cold_rescheduled = any(g > WEEK + DAY for g in cold_gaps)
    result.rows = [
        ComparisonRow(
            "warm keeps weekly OS cadence (1=yes)",
            1.0,
            1.0 if warm_cadence_kept else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "cold reschedules OS rejuvenation (1=yes)",
            1.0,
            1.0 if cold_rescheduled else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "cold performs fewer standalone OS rejuvenations (1=yes)",
            1.0,
            1.0 if _count(cold, "os") < _count(warm, "os") else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "both perform 2 VMM rejuvenations in 9 weeks",
            2.0,
            (_count(warm, "vmm") + _count(cold, "vmm")) / 2,
            "",
            tolerance=0.01,
        ),
    ]
    return result
