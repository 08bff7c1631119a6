"""Autonomic control plane: the one rejuvenation engine.

The package splits the loop into three pure-ish parts — **detectors**
(hysteresis gates over live metric signals), a **planner** (pluggable
placement strategies mapping an inert fleet view to typed actions under
SLA constraints), and an **executor** (applies actions through existing
host/migration mechanisms, fully audited) — wired together by
:class:`ControlLoop` on a drift-free sampling grid.  The open-loop
triggers beside it — :func:`periodic` (the §3.2 time-based schedule)
and :func:`campaign` (a §6 rolling or evacuate-to-spare pass) — feed the
same executor, so every policy reboot is one audited action.

Layering: this package sits *below* the host and cluster layers and
imports only the foundation (``errors``, ``simkernel``).  Live hosts
reach it duck-typed through :func:`view_of_hosts`, and cluster-level
migration is injected as a callable by the scenario layer.
"""

from __future__ import annotations

from repro.control.actions import (
    Action,
    ActionKind,
    Plan,
    migrate,
    rejuvenate,
    rejuvenate_os,
)
from repro.control.detectors import (
    Detector,
    Hysteresis,
    Trigger,
    cpu_runnable_signal,
    disk_busy_signal,
    heap_utilization_signal,
    next_tick,
    nic_tx_signal,
    windowed_mean,
    windowed_rate,
)
from repro.control.executor import PlanExecutor
from repro.control.loop import ControlConfig, ControlLoop
from repro.control.planner import (
    AgingAwareStrategy,
    ConsolidationStrategy,
    Constraints,
    FirstFitDecreasingStrategy,
    FleetOrderStrategy,
    FleetView,
    HostView,
    PlacementStrategy,
    VMView,
    register_strategy,
    resolve_strategy,
    strategy_names,
    view_of_hosts,
)
from repro.control.schedule import campaign, periodic

__all__ = [
    "Action",
    "ActionKind",
    "AgingAwareStrategy",
    "ConsolidationStrategy",
    "Constraints",
    "ControlConfig",
    "ControlLoop",
    "Detector",
    "FirstFitDecreasingStrategy",
    "FleetOrderStrategy",
    "FleetView",
    "HostView",
    "Hysteresis",
    "PlacementStrategy",
    "Plan",
    "PlanExecutor",
    "Trigger",
    "VMView",
    "campaign",
    "cpu_runnable_signal",
    "disk_busy_signal",
    "heap_utilization_signal",
    "migrate",
    "next_tick",
    "nic_tx_signal",
    "periodic",
    "register_strategy",
    "rejuvenate",
    "rejuvenate_os",
    "resolve_strategy",
    "strategy_names",
    "view_of_hosts",
    "windowed_mean",
    "windowed_rate",
]
