"""Control-loop and executor behavior, ending in the determinism pin.

The loop half runs against stub hosts and a scripted strategy so the
grid/audit mechanics are visible without a full scenario; the final test
closes the loop for real — ``run_scenario`` with a ``[policy]`` table —
and demands an identical decision audit from the batched backend and
the determinism sanitizer.
"""

import pytest

from repro.control import (
    Action,
    ActionKind,
    ControlConfig,
    ControlLoop,
    PlacementStrategy,
    Plan,
    PlanExecutor,
    migrate,
    rejuvenate,
)
from repro.errors import ControlError, HardwareError
from repro.scenario.runner import run_scenario
from repro.scenario.spec import (
    HostSpec,
    PolicySpec,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
)


class StubHost:
    """The minimum the loop/executor need: a name, VM inventory, reboot."""

    def __init__(self, sim, name, reboot_s=30.0, fail=False):
        self.sim = sim
        self.name = name
        self.vm_specs = {}
        self.reboot_s = reboot_s
        self.fail = fail
        self.reboots = []

    def reboot(self, strategy):
        if self.fail:
            raise HardwareError(f"{self.name}: reboot wedged")
        yield self.sim.timeout(self.reboot_s)
        self.reboots.append((self.sim.now, strategy))


class ScriptedStrategy(PlacementStrategy):
    """Returns canned plans and records when it was consulted."""

    name = "scripted"

    def __init__(self, sim, plans=()):
        self.sim = sim
        self.plans = list(plans)
        self.called_at = []

    def plan(self, view, constraints):
        self.called_at.append(self.sim.now)
        if self.plans:
            return self.plans.pop(0)
        return Plan(strategy=self.name)


class TestControlConfig:
    def test_validation(self):
        with pytest.raises(ControlError):
            ControlConfig(interval_s=0)
        with pytest.raises(ControlError):
            ControlConfig(window_s=-1)
        with pytest.raises(ControlError):
            ControlConfig(underload=2.0, overload=1.0)
        with pytest.raises(ControlError):
            ControlConfig(aging_threshold=1.5)
        with pytest.raises(ControlError):
            ControlConfig(aging_rearm=0.9, aging_threshold=0.8)
        with pytest.raises(ControlError):
            ControlConfig(cooldown_s=-1)

    def test_constraints_mirror_the_config(self):
        constraints = ControlConfig(
            migration_budget=2, min_hosts_up=3, rejuvenate="cold"
        ).constraints()
        assert constraints.migration_budget == 2
        assert constraints.min_hosts_up == 3
        assert constraints.rejuvenate == "cold"


class TestControlLoop:
    def test_ticks_on_the_grid_until_the_horizon(self, sim):
        strategy = ScriptedStrategy(sim)
        loop = ControlLoop(
            sim, [StubHost(sim, "h0")],
            config=ControlConfig(interval_s=60.0),
            strategy=strategy,
        )
        sim.run(sim.spawn(loop.run(300.0)))
        assert strategy.called_at == [60.0, 120.0, 180.0, 240.0, 300.0]
        assert loop.cycles == 5
        assert sim.now == 300.0  # runs out the clock even when idle

    def test_slow_actions_skip_ticks_without_drift(self, sim):
        host = StubHost(sim, "h0", reboot_s=130.0)
        strategy = ScriptedStrategy(
            sim, plans=[Plan("scripted", actions=(rejuvenate("h0"),))]
        )
        loop = ControlLoop(
            sim, [host],
            config=ControlConfig(interval_s=60.0),
            strategy=strategy,
        )
        sim.run(sim.spawn(loop.run(480.0)))
        # The 130 s reboot swallows the t=120/t=180 ticks, but every
        # later consultation is still on the absolute 60 s grid.
        assert strategy.called_at == [60.0, 240.0, 300.0, 360.0, 420.0, 480.0]
        assert host.reboots == [(190.0, "warm")]
        (entry,) = loop.executor.audit
        assert entry["time"] == 190.0  # recorded at completion
        assert entry["outcome"] == "applied"

    def test_metrics_off_means_no_signals_and_no_triggers(self, sim):
        loop = ControlLoop(sim, [StubHost(sim, "h0")])
        sim.run(sim.spawn(loop.run(240.0)))
        summary = loop.summary()
        assert summary["strategy"] == "fleet-order"
        assert summary["cycles"] == 4
        assert summary["triggers"] == {"overload": 0, "underload": 0, "aging": 0}
        assert summary["migrations"] == summary["rejuvenations"] == 0
        assert summary["audit"] == []


class TestPlanExecutor:
    def _apply(self, sim, executor, plan, cycle=0):
        sim.run(sim.spawn(executor.apply(plan, cycle)))

    def test_audit_entry_shape(self, sim):
        host = StubHost(sim, "h0")
        executor = PlanExecutor(sim, {"h0": host})
        plan = Plan(
            "scripted",
            actions=(rejuvenate("h0", "cold", reason="heap aging"),),
        )
        self._apply(sim, executor, plan, cycle=7)
        (entry,) = executor.audit
        assert entry == {
            "time": 30.0,
            "cycle": 7,
            "action": "rejuvenate-cold",
            "target": "h0",
            "outcome": "applied",
            "span": 1,  # the enclosing control.action span's id
            "reason": "heap aging",
        }
        assert executor.rejuvenations == 1

    def test_migration_without_a_mechanism_is_skipped(self, sim):
        executor = PlanExecutor(sim, {}, migrate=None)
        plan = Plan("scripted", actions=(migrate("a", "h0", "h1"),))
        self._apply(sim, executor, plan)
        assert executor.skipped == 1
        assert executor.audit[0]["outcome"] == "skipped"

    def test_injected_migration_is_applied(self, sim):
        calls = []

        def migrate_fn(source, target, vm):
            yield sim.timeout(10.0)
            calls.append((source, target, vm))

        executor = PlanExecutor(sim, {}, migrate=migrate_fn)
        plan = Plan("scripted", actions=(migrate("a", "h0", "h1"),))
        self._apply(sim, executor, plan)
        assert calls == [("h0", "h1", "a")]
        assert executor.migrations == 1
        entry = executor.audit[0]
        assert entry["outcome"] == "applied"
        assert entry["vm"] == "a" and entry["source"] == "h0"
        assert entry["target"] == "h1"

    def test_unknown_host_is_skipped_and_failures_are_contained(self, sim):
        wedged = StubHost(sim, "h1", fail=True)
        executor = PlanExecutor(sim, {"h1": wedged})
        plan = Plan(
            "scripted",
            actions=(rejuvenate("ghost"), rejuvenate("h1")),
            deferred=(migrate("a", "h1", "h0", reason="budget"),),
        )
        self._apply(sim, executor, plan)
        assert executor.skipped == 1 and executor.failed == 1
        outcomes = [e["outcome"] for e in executor.audit]
        assert outcomes == ["skipped", "failed", "deferred"]
        assert executor.audit[2]["reason"] == "budget"

    def test_noop_actions_are_audited(self, sim):
        executor = PlanExecutor(sim, {})
        plan = Plan(
            "scripted",
            actions=(Action(ActionKind.NO_OP, reason="nothing to do"),),
        )
        self._apply(sim, executor, plan)
        assert executor.audit[0]["outcome"] == "noop"


def _mini_spec() -> ScenarioSpec:
    """A two-host closed loop small enough for a unit-test budget: one
    loaded apache host, one idle host the policy should drain + reboot."""
    return ScenarioSpec(
        name="control-loop-mini",
        hosts=(
            HostSpec(
                name="busy",
                vms=(VMSpec(memory_gib=1.0, services=("apache",)),),
            ),
            HostSpec(name="idle", vms=(VMSpec(memory_gib=1.0),)),
        ),
        workloads=(WorkloadSpec(kind="httperf", concurrency=4),),
        policy=PolicySpec(
            strategy="first-fit-decreasing",
            interval_s=30.0,
            window_s=30.0,
            underload=0.001,
        ),
        warmup_s=20.0,
        observe_s=240.0,
    )


def test_closed_loop_is_identical_plain_and_sanitized(monkeypatch):
    """The acceptance pin: identical decisions — cycle count, audit
    times, targets, outcomes — from the inlined run loop and from the
    hooked loop the determinism sanitizer runs on."""
    for key in ("REPRO_SANITIZE", "REPRO_METRICS"):
        monkeypatch.delenv(key, raising=False)
    baseline = run_scenario(_mini_spec()).policy
    assert baseline["migrations"] == 1
    assert baseline["rejuvenations"] == 1
    assert baseline["failed"] == 0
    rebooted = [
        e["target"]
        for e in baseline["audit"]
        if e["action"].startswith("rejuvenate") and e["outcome"] == "applied"
    ]
    assert rebooted == ["idle"]

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert run_scenario(_mini_spec()).policy == baseline
