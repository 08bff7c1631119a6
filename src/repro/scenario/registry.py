"""Named scenario registry.

Ships a small set of built-in specs (demonstrations that the declarative
layer expresses setups the experiment modules never coded) and lets
users register their own.  ``scenario run <name>`` resolves here first;
anything else is treated as a TOML file path.
"""

from __future__ import annotations

import os

from repro.control import ControlConfig
from repro.errors import ScenarioError
from repro.scenario.spec import (
    FaultSpec,
    HostSpec,
    MaintenanceSpec,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
    load_toml,
)

_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add a spec to the registry under its own name."""
    if spec.name in _REGISTRY and not replace:
        raise ScenarioError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get(name: str) -> ScenarioSpec:
    """Look a registered scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"no scenario named {name!r}; known: {', '.join(names()) or '(none)'}"
        ) from None


def resolve(name_or_path: str) -> ScenarioSpec:
    """A registered name, or failing that a TOML spec file path."""
    if name_or_path in _REGISTRY:
        return _REGISTRY[name_or_path]
    if os.path.exists(name_or_path) or name_or_path.endswith(".toml"):
        return load_toml(name_or_path)
    return get(name_or_path)  # raises with the known-names message


# -- built-ins ---------------------------------------------------------------------
#
# Each of these is a setup the hand-written experiment modules never
# expressed: heterogeneous memory under rolling maintenance, a probed
# single host, an aging host racing a periodic schedule, and a cluster
# run by the autonomic control loop instead of a schedule.

register(
    ScenarioSpec(
        name="mixed-fleet-rolling",
        description=(
            "Three hosts each running one 1 GiB and one 4 GiB apache VM, "
            "warm rolling rejuvenation across the cluster"
        ),
        hosts=(
            HostSpec(
                count=3,
                vms=(
                    VMSpec(memory_gib=1.0, services=("apache",)),
                    VMSpec(memory_gib=4.0, services=("apache",)),
                ),
            ),
        ),
        workloads=(WorkloadSpec(kind="httperf", concurrency=2),),
        maintenance=MaintenanceSpec(kind="rolling", strategy="warm", settle_s=10.0),
        warmup_s=40.0,
        observe_s=120.0,
    )
)

register(
    ScenarioSpec(
        name="probed-warm-reboot",
        description=(
            "One host, three ssh VMs watched by ping probers through a "
            "warm VMM reboot"
        ),
        hosts=(HostSpec(vms=(VMSpec(count=3),)),),
        workloads=(WorkloadSpec(kind="prober", service="ssh"),),
        maintenance=MaintenanceSpec(kind="reboot", strategy="warm"),
        warmup_s=5.0,
        observe_s=60.0,
    )
)

register(
    ScenarioSpec(
        name="aging-vs-periodic",
        description=(
            "A leaking VMM raced against a periodic warm rejuvenation "
            "schedule over two simulated days"
        ),
        hosts=(HostSpec(vms=(VMSpec(count=2),)),),
        # 1 MiB/h against the 16 MiB Xen heap: exhaustion lands at ~16 h,
        # but the 12 h warm VMM rejuvenation keeps resetting the clock —
        # the proactive win the paper's §3.2 schedule is designed for.
        faults=FaultSpec(preset="paper-bugs", heap_leak_kib_per_hour=1024.0),
        maintenance=MaintenanceSpec(
            kind="periodic",
            strategy="warm",
            os_interval_s=6 * 3600.0,
            vmm_interval_s=12 * 3600.0,
        ),
        observe_s=2 * 86400.0,
    )
)

register(
    ScenarioSpec(
        name="autonomic-consolidation",
        description=(
            "Two loaded web hosts plus an idle host; the control loop "
            "consolidates the idle VMs away and rejuvenates only the "
            "emptied host"
        ),
        hosts=(
            HostSpec(
                name="web{i}",
                count=2,
                vms=(VMSpec(memory_gib=1.0, services=("apache",)),),
            ),
            HostSpec(name="idle0", vms=(VMSpec(count=2, memory_gib=1.0),)),
        ),
        workloads=(
            WorkloadSpec(kind="httperf", concurrency=4),
            WorkloadSpec(kind="prober", service="apache"),
        ),
        # No maintenance table: the policy decides what to rejuvenate.
        policy=ControlConfig(
            strategy="first-fit-decreasing",
            underload=0.001,
        ),
        warmup_s=40.0,
        observe_s=480.0,
    )
)
