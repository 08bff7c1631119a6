"""The closed loop: detect -> plan -> execute, on a fixed grid.

:class:`ControlLoop` is a simulation process.  Every ``interval_s``
seconds (on the drift-free grid from :func:`~repro.control.detectors
.next_tick`) it samples three detectors per host — CPU overload, CPU
underload, heap aging — snapshots the fleet into an inert
:class:`~repro.control.planner.FleetView`, asks the configured
:class:`~repro.control.planner.PlacementStrategy` for a
:class:`~repro.control.actions.Plan`, and applies it through the
:class:`~repro.control.executor.PlanExecutor`.

Determinism: the cycle grid is absolute (action durations never shift
later cycles), detectors and strategies are pure over their inputs, and
the only state consulted is the simulation's own — so the loop produces
identical decisions plain and under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import Table
from repro.control.detectors import (
    Detector,
    cpu_runnable_signal,
    disk_busy_signal,
    heap_utilization_signal,
    next_tick,
    nic_tx_signal,
)
from repro.control.executor import MigrateFn, PlanExecutor
from repro.control.planner import (
    STRATEGY_REGISTRY,
    Constraints,
    PlacementStrategy,
    resolve_strategy,
    view_of_hosts,
)
from repro.errors import ControlError


@dataclasses.dataclass(frozen=True)
class ControlConfig(Table):
    """All knobs of one control loop: the ``[policy]`` table of scenario
    and fleet specs, loaded by :meth:`~repro.config.Table.from_dict`.

    Thresholds: ``overload``/``underload`` are mean runnable jobs per
    core over the trailing ``window_s`` (the CPU gauge the hardware
    layer already publishes); ``aging_threshold``/``aging_rearm`` are
    VMM heap utilization.  ``cooldown_s`` applies to every detector.
    ``strategy`` names a :data:`~repro.control.planner.STRATEGY_REGISTRY`
    entry.  Invalid values raise :class:`~repro.errors.ControlError`
    (``interval_s: must be positive, got 0``).
    """

    TABLE = "policy"
    strategy: str = "fleet-order"
    interval_s: float = 60.0
    window_s: float = 60.0
    overload: float = 4.0
    underload: float = 0.05
    aging_threshold: float = 0.8
    aging_rearm: float = 0.4
    cooldown_s: float = 300.0
    migration_budget: int = 4
    min_hosts_up: int = 1
    rejuvenate: str = "warm"
    net_overload_bps: float = 0.0
    """NIC transmit rate (bytes/s over the trailing window) above which a
    host counts as overloaded; 0 disables the network detector."""
    disk_overload: float = 0.0
    """Disk busy fraction (iostat %util over the trailing window, in
    [0, 1]) above which a host counts as overloaded; 0 disables the
    disk detector."""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_REGISTRY:
            raise ControlError(
                f"strategy: must be one of {', '.join(STRATEGY_REGISTRY)}, "
                f"got {self.strategy!r}"
            )
        if self.interval_s <= 0:
            raise ControlError(f"interval_s: must be positive, got {self.interval_s}")
        if self.window_s <= 0:
            raise ControlError(f"window_s: must be positive, got {self.window_s}")
        if not 0 <= self.underload < self.overload:
            raise ControlError(
                "underload: need 0 <= underload < overload, got "
                f"underload={self.underload} overload={self.overload}"
            )
        if not 0 < self.aging_threshold <= 1:
            raise ControlError(
                f"aging_threshold: must be in (0, 1], got {self.aging_threshold}"
            )
        if not 0 <= self.aging_rearm <= self.aging_threshold:
            raise ControlError(
                f"aging_rearm: must be in [0, aging_threshold], got {self.aging_rearm}"
            )
        if self.cooldown_s < 0:
            raise ControlError(f"cooldown_s: must be >= 0, got {self.cooldown_s}")
        if self.net_overload_bps < 0:
            raise ControlError(
                "net_overload_bps: must be >= 0 (0 disables), "
                f"got {self.net_overload_bps}"
            )
        if not 0 <= self.disk_overload <= 1:
            raise ControlError(
                "disk_overload: must be a busy fraction in [0, 1] (0 disables), "
                f"got {self.disk_overload}"
            )
        self.constraints()  # checks migration_budget, min_hosts_up and rejuvenate

    def constraints(self) -> Constraints:
        """The SLA envelope strategies plan inside."""
        return Constraints(
            migration_budget=self.migration_budget,
            min_hosts_up=self.min_hosts_up,
            rejuvenate=self.rejuvenate,
        )


class ControlLoop:
    """One autonomic controller over a fixed set of hosts."""

    def __init__(
        self,
        sim: typing.Any,
        hosts: typing.Sequence[typing.Any],
        config: ControlConfig | None = None,
        migrate: MigrateFn | None = None,
        strategy: PlacementStrategy | None = None,
    ) -> None:
        self.sim = sim
        self.config = config or ControlConfig()
        self.strategy = strategy or resolve_strategy(self.config.strategy)
        self.constraints = self.config.constraints()
        self._hosts = list(hosts)
        self.executor = PlanExecutor(
            sim, {host.name: host for host in self._hosts}, migrate=migrate
        )
        self._detectors: dict[str, list[Detector]] = {}
        for host in self._hosts:
            cpu = cpu_runnable_signal(sim, host, self.config.window_s)
            detectors = [
                Detector(
                    "overload", host.name, cpu,
                    threshold=self.config.overload,
                    cooldown_s=self.config.cooldown_s,
                    direction="above",
                ),
                Detector(
                    "underload", host.name, cpu,
                    threshold=self.config.underload,
                    cooldown_s=self.config.cooldown_s,
                    direction="below",
                ),
                Detector(
                    "aging", host.name, heap_utilization_signal(host),
                    threshold=self.config.aging_threshold,
                    rearm=self.config.aging_rearm,
                    cooldown_s=self.config.cooldown_s,
                    direction="above",
                ),
            ]
            if self.config.net_overload_bps > 0:
                detectors.append(
                    Detector(
                        "net", host.name,
                        nic_tx_signal(sim, host, self.config.window_s),
                        threshold=self.config.net_overload_bps,
                        cooldown_s=self.config.cooldown_s,
                        direction="above",
                    )
                )
            if self.config.disk_overload > 0:
                detectors.append(
                    Detector(
                        "disk", host.name,
                        disk_busy_signal(sim, host, self.config.window_s),
                        threshold=self.config.disk_overload,
                        cooldown_s=self.config.cooldown_s,
                        direction="above",
                    )
                )
            self._detectors[host.name] = detectors
        self.plans: list = []
        self.cycles = 0

    def run(self, until: float) -> typing.Iterator[typing.Any]:
        """The loop process: tick on the grid until the horizon."""
        sim = self.sim
        origin = sim.now
        while True:
            tick = next_tick(origin, self.config.interval_s, sim.now)
            if tick > until:
                if until > sim.now:
                    yield sim.timeout(until - sim.now)
                return
            yield sim.timeout(tick - sim.now)
            yield from self._cycle(tick)

    def _cycle(self, now: float) -> typing.Iterator[typing.Any]:
        overloaded: set[str] = set()
        underloaded: set[str] = set()
        aging: set[str] = set()
        loads: dict[str, float] = {}
        for name, detectors in self._detectors.items():
            for detector in detectors:
                detector.observe(now)
                if detector.name == "overload" and detector.value is not None:
                    loads[name] = detector.value
                if not detector.active:
                    continue
                if detector.name == "underload":
                    underloaded.add(name)
                elif detector.name == "aging":
                    aging.add(name)
                else:  # overload / net / disk: all pressure signals
                    overloaded.add(name)
        view = view_of_hosts(
            self._hosts,
            loads=loads,
            overloaded=overloaded,
            underloaded=underloaded,
            aging=aging,
        )
        plan = self.strategy.plan(view, self.constraints)
        with self.sim.spans.span(
            "control.cycle", actor="control", detail=self.strategy.name
        ):
            yield from self.executor.apply(plan, cycle=self.cycles)
        self.plans.append(plan)
        self.cycles += 1

    def trigger_log(self) -> list[dict]:
        """Every detector firing as plain data, in (time, host, name) order.

        The per-firing complement of :meth:`summary`'s count table — the
        decision-timeline reconstruction in :mod:`repro.obs` joins these
        against the audit's action records to recover each decision's
        originating signal sample.
        """
        log = [
            {
                "time": trigger.time,
                "detector": trigger.detector,
                "host": trigger.host,
                "value": trigger.value,
            }
            for detectors in self._detectors.values()
            for detector in detectors
            for trigger in detector.triggers
        ]
        log.sort(key=lambda t: (t["time"], t["host"], t["detector"]))
        return log

    def summary(self) -> dict:
        """Plain-data account of the loop's run, for reports."""
        triggers: dict[str, int] = {}
        for detectors in self._detectors.values():
            for detector in detectors:
                triggers[detector.name] = (
                    triggers.get(detector.name, 0) + len(detector.triggers)
                )
        return {
            "strategy": self.strategy.name,
            "cycles": self.cycles,
            "migrations": self.executor.migrations,
            "rejuvenations": self.executor.rejuvenations,
            "skipped": self.executor.skipped,
            "failed": self.executor.failed,
            "deferred": sum(len(plan.deferred) for plan in self.plans),
            "triggers": triggers,
            "trigger_log": self.trigger_log(),
            "audit": list(self.executor.audit),
        }
