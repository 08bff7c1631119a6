"""The VMM's CPU scheduler — a fluid model of Xen's credit scheduler.

Xen's credit scheduler gives each domain a *weight* (its proportional
share when the machine is contended; default 256) and an optional *cap*
(an absolute ceiling, e.g. 0.5 cores, enforced even when cores are
idle).  The fluid equivalent maps directly onto the simulation kernel's
shared CPU pool: a domain's runnable work executes with
``weight/256`` relative share and a per-job rate cap.

Guests route their CPU work through :meth:`CreditScheduler.execute`, so
scheduler policy affects every modelled activity — boot, service start,
request handling — without those call sites knowing about credits.
"""

from __future__ import annotations

import dataclasses

from repro.errors import VMMError
from repro.hardware.cpu import CpuPool
from repro.simkernel import Event

DEFAULT_WEIGHT = 256
"""Xen's default credit-scheduler weight."""


@dataclasses.dataclass(frozen=True)
class SchedulerParams:
    """Per-domain credit-scheduler configuration."""

    weight: int = DEFAULT_WEIGHT
    cap_cores: float | None = None
    """Absolute ceiling in cores (None = work-conserving, no cap)."""

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise VMMError(f"scheduler weight must be >= 1, got {self.weight}")
        if self.cap_cores is not None and self.cap_cores <= 0:
            raise VMMError(f"scheduler cap must be positive, got {self.cap_cores}")


_DEFAULT_PARAMS = SchedulerParams()
"""Shared immutable default: built per-call this is a surprisingly hot
allocation, since most domains never have explicit parameters set."""


class CreditScheduler:
    """Maps per-domain weights/caps onto the machine's CPU pool."""

    def __init__(self, cpu: CpuPool) -> None:
        self.cpu = cpu
        self._params: dict[str, SchedulerParams] = {}
        self.work_submitted: dict[str, float] = {}

    def set_params(self, domain_name: str, params: SchedulerParams) -> None:
        """Configure (or reconfigure) one domain's share."""
        self._params[domain_name] = params

    def params_for(self, domain_name: str) -> SchedulerParams:
        """The domain's share (Xen defaults if never configured)."""
        return self._params.get(domain_name, _DEFAULT_PARAMS)

    def remove_domain(self, domain_name: str) -> None:
        """Forget a destroyed domain's configuration."""
        self._params.pop(domain_name, None)

    def execute(self, domain_name: str, core_seconds: float) -> Event:
        """Run ``core_seconds`` of one domain's single-threaded work under
        its configured share."""
        params = self.params_for(domain_name)
        self.work_submitted[domain_name] = (
            self.work_submitted.get(domain_name, 0.0) + core_seconds
        )
        return self.cpu.execute_shared(
            core_seconds,
            weight=params.weight / DEFAULT_WEIGHT,
            cap=params.cap_cores,
        )
