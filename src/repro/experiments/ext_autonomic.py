"""EXT-AUTONOMIC: fixed-schedule vs autonomic consolidate-then-rejuvenate.

An extension beyond the paper's measurements, quantifying its motivating
scenario (§1: server consolidation concentrates many VMs on few
machines, so rejuvenating a VMM "stops all the VMs on it" unless the
operator migrates them away first):

Three hosts: two serve apache under httperf load, the third idles with
two ssh-only VMs.  Both arms must rejuvenate whatever needs it inside
one observation window.

* **fixed** — the classic rolling schedule: every host gets a warm VMM
  reboot in turn, loaded or not.  The apache probers eat one outage per
  web host.
* **autonomic** — no schedule.  The control plane's underload detector
  flags the idle host from its windowed runnable-jobs gauge, the
  first-fit-decreasing strategy drains its VMs onto the loaded hosts by
  live migration, and only the emptied host is warm-rejuvenated.  The
  apache probers never notice.

The claims checked: the autonomic plan strictly reduces service
downtime, keeps availability at least as high, touches only the idle
host, and stays inside its migration budget — consolidation as a
*precondition* for cheap rejuvenation, which is the paper's pitch.
"""

from __future__ import annotations

import typing

from repro.analysis.report import ComparisonRow, render_table
from repro.control import ControlConfig
from repro.experiments.common import ExperimentResult
from repro.scenario.runner import run_scenario
from repro.scenario.spec import (
    HostSpec,
    MaintenanceSpec,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
)

_ARMS = ("fixed", "autonomic")

_WARMUP_S = 40.0
_OBSERVE_S = 480.0
"""Covers the fixed arm's three warm reboots and, in the autonomic arm,
one detector window (60 s), the idle host's evacuation and its reboot."""

_UNDERLOAD = 0.001
"""Mean runnable jobs per core below which a host counts as idle.  The
ssh-only host sits at exactly 0 over any window; the httperf-loaded web
hosts hold a windowed mean several times this watermark (four
closed-loop clients keep request-handling jobs runnable)."""

_MIGRATION_BUDGET = 4


def _hosts() -> tuple[HostSpec, ...]:
    return (
        HostSpec(
            name="web{i}",
            count=2,
            vms=(VMSpec(memory_gib=1.0, services=("apache",)),),
        ),
        HostSpec(name="idle0", vms=(VMSpec(count=2, memory_gib=1.0),)),
    )


def _workloads() -> tuple[WorkloadSpec, ...]:
    return (
        WorkloadSpec(kind="httperf", concurrency=4),
        WorkloadSpec(kind="prober", service="apache"),
    )


def _spec(arm: str) -> ScenarioSpec:
    if arm == "fixed":
        return ScenarioSpec(
            name="ext-autonomic/fixed",
            hosts=_hosts(),
            workloads=_workloads(),
            maintenance=MaintenanceSpec(
                kind="rolling", strategy="warm", settle_s=10.0
            ),
            warmup_s=_WARMUP_S,
            observe_s=_OBSERVE_S,
        )
    if arm == "autonomic":
        return ScenarioSpec(
            name="ext-autonomic/autonomic",
            hosts=_hosts(),
            workloads=_workloads(),
            policy=ControlConfig(
                strategy="first-fit-decreasing",
                underload=_UNDERLOAD,
                migration_budget=_MIGRATION_BUDGET,
            ),
            warmup_s=_WARMUP_S,
            observe_s=_OBSERVE_S,
        )
    raise ValueError(arm)  # pragma: no cover - guarded by the caller


def _run_arm(arm: str) -> dict:
    """One arm's scenario run, as the runner's plain payload dict."""
    return run_scenario(_spec(arm)).to_dict()


def _probe_downtime(payload: dict) -> float:
    """Total apache downtime across the arm's probers."""
    return sum(
        w["metrics"]["total_downtime_s"]
        for w in payload["workloads"]
        if w["kind"] == "prober"
    )


def _availability(payload: dict) -> float:
    """Mean prober availability over the observation window."""
    spans = [
        1.0 - min(w["metrics"]["total_downtime_s"], _OBSERVE_S) / _OBSERVE_S
        for w in payload["workloads"]
        if w["kind"] == "prober"
    ]
    return sum(spans) / len(spans) if spans else 1.0


def _rejuvenated_hosts(payload: dict) -> list[str]:
    """Hosts the autonomic arm's executor actually rejuvenated."""
    return [
        entry["target"]
        for entry in payload["policy"].get("audit", ())
        if entry["action"].startswith("rejuvenate")
        and entry["outcome"] == "applied"
    ]


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [((arm,), "_run_arm", {"arm": arm}) for arm in _ARMS]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fold the two arms into the schedule-vs-autonomic comparison."""
    result = ExperimentResult(
        "EXT-AUTONOMIC",
        "fixed schedule vs autonomic consolidation + rejuvenation (extension)",
    )
    fixed = payloads[("fixed",)]
    autonomic = payloads[("autonomic",)]
    fixed_downtime = _probe_downtime(fixed)
    auto_downtime = _probe_downtime(autonomic)
    fixed_availability = _availability(fixed)
    auto_availability = _availability(autonomic)
    policy = autonomic["policy"]
    rejuvenated = _rejuvenated_hosts(autonomic)
    result.data["fixed"] = {
        "downtime_s": fixed_downtime,
        "availability": fixed_availability,
        "rejuvenations": fixed["maintenance"].get("hosts_rejuvenated", 0),
    }
    result.data["autonomic"] = {
        "downtime_s": auto_downtime,
        "availability": auto_availability,
        "rejuvenations": policy.get("rejuvenations", 0),
        "migrations": policy.get("migrations", 0),
        "rejuvenated_hosts": rejuvenated,
    }
    result.tables.append(
        render_table(
            [
                "plan", "hosts rejuvenated", "migrations",
                "apache downtime (s)", "availability",
            ],
            [
                (
                    "fixed (rolling warm)",
                    fixed["maintenance"].get("hosts_rejuvenated", 0),
                    0,
                    round(fixed_downtime, 2),
                    f"{fixed_availability * 100:.4f} %",
                ),
                (
                    "autonomic (consolidate, then rejuvenate idle)",
                    policy.get("rejuvenations", 0),
                    policy.get("migrations", 0),
                    round(auto_downtime, 2),
                    f"{auto_availability * 100:.4f} %",
                ),
            ],
        )
    )
    result.rows = [
        ComparisonRow(
            "autonomic plan has less service downtime (1=yes)",
            1.0,
            1.0 if auto_downtime < fixed_downtime else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "autonomic availability at least as high (1=yes)",
            1.0,
            1.0 if auto_availability >= fixed_availability else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "only the idle host is rejuvenated (1=yes)",
            1.0,
            1.0 if rejuvenated == ["idle0"] else 0.0,
            "",
            tolerance=0.01,
        ),
        ComparisonRow(
            "migrations stay within budget (1=yes)",
            1.0,
            1.0
            if 0 < policy.get("migrations", 0) <= _MIGRATION_BUDGET
            and policy.get("failed", 1) == 0
            else 0.0,
            "",
            tolerance=0.01,
        ),
    ]
    return result
