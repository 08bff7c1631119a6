"""Figure 7: the downtime breakdown during a VMM reboot, with a live web
workload.

11 VMs; one serves a cached web corpus to an httperf stream.  The reboot
command is issued at t = +20 s.  The paper's observations, all of which
this runner measures:

* warm: the web server keeps serving until suspend (~14 s after the
  command — dom0 shuts down first), total suspend+resume ~4 s, no
  hardware reset, and a ~25 s *Xen implementation* slump after resume
  (simultaneous VM creation degrades networking — reproduced as a quirk);
* cold: serving stops ~7 s after the command (guest shutdown), 43-47 s
  hardware reset, and ~8 s of cache-miss degradation after boot.
"""

from __future__ import annotations

import typing

from repro.analysis.report import ComparisonRow
from repro.analysis.timeline import AnnotatedTimeline, bucketize, zero_intervals
from repro.experiments.common import ExperimentResult, build_testbed
from repro.units import kib
from repro.workloads.httperf import Httperf

_REBOOT_AT = 20.0
_CORPUS_FILES = 200
_FILE_BYTES = kib(512)


_WEB_VM = "vm05"
"""The paper plots one web VM among eleven; picking the middle of the
shutdown-signalling order matches its observed stop time."""


def run_one(strategy: str) -> dict[str, typing.Any]:
    """One Figure 7 run: returns the timeline, phases and key instants."""
    controller = build_testbed(11, services=("apache",))
    guest = controller.guest(_WEB_VM)
    paths = guest.filesystem.create_many("/www", _CORPUS_FILES, _FILE_BYTES)
    controller.run_process(guest.warm_file_cache(paths))

    def lookup():
        return controller.host.guest(_WEB_VM).service("apache")

    client = Httperf(
        controller.sim,
        lookup,
        paths,
        concurrency=4,
        name=f"fig7-{strategy}",
    ).start()

    base = controller.now
    controller.run_for(_REBOOT_AT)
    report = controller.rejuvenate(strategy)
    controller.run_for(120)
    client.stop()

    bucket_s = 2.0
    series = bucketize(
        [t - base for t in client.completion_times],
        bucket_s,
        start=0.0,
        end=report.finished - base + 120,
    )
    outages = zero_intervals(series, bucket_s)
    phases = [
        (p.name, p.start - base, p.end - base) for p in report.phases
    ]
    # When the web VM stopped answering: the paper's "web server was
    # stopped at time X" instant.
    web_down = controller.sim.trace.first(
        "service.down", since=base, domain=_WEB_VM
    )
    served_until = (web_down.time - base) if web_down is not None else 0.0
    # Steady rates before the reboot and after full recovery.
    before = client.mean_rate(until=base + _REBOOT_AT)
    after = client.mean_rate(since=report.finished + 60)
    return {
        "report": report,
        "series": series,
        "outages": outages,
        "phases": phases,
        "served_until": served_until,
        "rate_before": before,
        "rate_after": after,
        "base": base,
    }


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [
        ((strategy,), "run_one", {"strategy": strategy})
        for strategy in ("warm", "cold")
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Reboot under live web load, warm vs cold, with phase breakdown."""
    result = ExperimentResult(
        "FIG7", "downtime breakdown with a live web workload (11 VMs)"
    )
    warm = payloads[("warm",)]
    cold = payloads[("cold",)]

    for name, data in (("warm", warm), ("cold", cold)):
        timeline = AnnotatedTimeline(data["series"], data["phases"])
        result.tables.append(f"-- {name} --\n{timeline.render()}")
    result.data["warm"] = warm
    result.data["cold"] = cold

    warm_report = warm["report"]
    cold_report = cold["report"]
    warm_suspend_resume = warm_report.phase_duration(
        "suspend"
    ) + warm_report.phase_duration("resume")
    cold_shutdown_boot = cold_report.phase_duration(
        "guest-shutdown"
    ) + cold_report.phase_duration("guest-boot")
    result.rows = [
        ComparisonRow(
            "warm: suspend+resume total", 4.0, warm_suspend_resume, "s", tolerance=0.5
        ),
        ComparisonRow(
            "cold: shutdown+boot total", 63.0, cold_shutdown_boot, "s"
        ),
        ComparisonRow(
            "cold: hardware reset", 43.0,
            cold_report.phase_duration("hardware-reset"), "s",
        ),
        ComparisonRow(
            "warm: hardware reset", 0.0,
            0.0 if not warm_report.has_phase("hardware-reset") else 1.0, "s",
            tolerance=0.01,
        ),
        ComparisonRow(
            "warm serves until (after command)", 14.0,
            warm["served_until"] - _REBOOT_AT, "s",
        ),
        ComparisonRow(
            "cold serves until (after command)", 7.0,
            cold["served_until"] - _REBOOT_AT, "s", tolerance=0.6,
        ),
        ComparisonRow(
            "throughput restored, warm (ratio)", 1.0,
            warm["rate_after"] / warm["rate_before"], "x", tolerance=0.15,
        ),
        ComparisonRow(
            "throughput restored, cold (ratio)", 1.0,
            cold["rate_after"] / cold["rate_before"], "x", tolerance=0.15,
        ),
    ]
    return result
