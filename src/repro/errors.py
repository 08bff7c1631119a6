"""Exception hierarchy for the RootHammer reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package failures without masking programming errors such as
``TypeError``.  Subsystems define narrower classes here rather than locally so
that cross-layer code (e.g. the rejuvenation controller catching VMM faults)
does not need to import deep modules just for exception types.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class ProcessKilled(SimulationError):
    """A simulated process was forcibly killed (``Process.kill``)."""


class HardwareError(ReproError):
    """A simulated hardware component was misused or failed."""


class PowerError(HardwareError):
    """An operation required power state the machine is not in."""


class MemoryError_(ReproError):
    """Base class for simulated memory-management errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`; exported as ``SimMemoryError`` from the package.
    """


class OutOfMemoryError(MemoryError_):
    """The machine-frame allocator or a heap had no space left."""


class FrameOwnershipError(MemoryError_):
    """A frame extent was freed or claimed by a non-owner."""


class P2MError(MemoryError_):
    """A pseudo-physical to machine mapping was inconsistent."""


class VMMError(ReproError):
    """Base class for hypervisor-level errors."""


class HypercallError(VMMError):
    """A hypercall failed or was invoked with invalid arguments."""


class DomainError(VMMError):
    """A domain operation was invalid for the domain's current state."""


class VMMCrashed(VMMError):
    """The hypervisor crashed (e.g. heap exhaustion under aging)."""


class XenstoreError(VMMError):
    """The xenstore daemon rejected an operation or is out of memory."""


class GuestError(ReproError):
    """Base class for guest-OS level errors."""


class ServiceError(GuestError):
    """A guest service failed to start, stop, or serve a request."""


class FilesystemError(GuestError):
    """A guest filesystem operation referenced a missing file or block."""


class RejuvenationError(ReproError):
    """A rejuvenation operation (warm/saved/cold reboot) failed."""


class MigrationError(ReproError):
    """A live-migration operation failed."""


class ClusterError(ReproError):
    """A cluster-level orchestration error."""


class ControlError(ReproError):
    """The autonomic control plane was misconfigured or misused."""


class FleetError(ReproError):
    """A sharded-fleet spec was inconsistent or a shard broke protocol."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class ConfigError(ReproError):
    """A configuration value was out of range or inconsistent."""


class ScenarioError(ConfigError):
    """A declarative scenario spec was malformed or cannot be built."""
