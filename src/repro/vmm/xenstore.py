"""The xenstore daemon: dom0's hierarchical configuration store.

xenstored keeps the ``/local/domain/<id>/...`` tree that the toolstack and
device frontends coordinate through.  Two properties matter for this
reproduction:

* it lives in **domain 0**, so its aging (the changeset-8640 per-transaction
  leak, §2) cannot be fixed by restarting it — "xenstored is not
  restartable" — and therefore forces a dom0 (hence VMM) reboot;
* every domain create/destroy is a burst of transactions, so a leaky
  xenstored ages fastest exactly on machines that reboot VMs often.

Memory accounting is in bytes against a fixed budget (dom0 is small, §2).
When the budget is exhausted, operations start failing with
:class:`~repro.errors.XenstoreError` — the "I/O processing in the
privileged VM slows down" failure mode.
"""

from __future__ import annotations

import typing

from repro.config import AgingFaults
from repro.errors import XenstoreError
from repro.simkernel.metrics import NULL
from repro.units import MiB

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.metrics import MetricsRegistry

_ENTRY_OVERHEAD_BYTES = 64


class Xenstore:
    """An in-memory hierarchical key-value store with leak accounting.

    ``metrics`` (the owning simulator's registry, passed by the
    hypervisor) backs the ``vmm.xenstore_*_bytes`` gauges sampled per
    transaction — the observable trajectory of the changeset-8640 leak.
    """

    def __init__(
        self,
        budget_bytes: int = 4 * MiB,
        faults: AgingFaults | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if budget_bytes <= 0:
            raise XenstoreError(f"budget must be > 0, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.faults = faults if faults is not None else AgingFaults.healthy()
        self._tree: dict[str, str] = {}
        # The entries' bytes, kept by write() and remove() as a running
        # total; integer sums are exact, so it always equals a re-sum.
        self._live_bytes = 0
        self._leaked_bytes = 0
        self.transactions = 0
        self._metric_used = (
            metrics.gauge("vmm.xenstore_used_bytes") if metrics is not None else NULL
        )
        self._metric_leaked = (
            metrics.gauge("vmm.xenstore_leaked_bytes")
            if metrics is not None
            else NULL
        )

    # -- memory accounting ----------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def leaked_bytes(self) -> int:
        return self._leaked_bytes

    @property
    def used_bytes(self) -> int:
        return self._live_bytes + self._leaked_bytes

    @property
    def exhausted(self) -> bool:
        return self.used_bytes >= self.budget_bytes

    def _charge_transaction(self) -> None:
        self.transactions += 1
        leak = self.faults.xenstore_leak_per_txn_bytes
        if leak:
            self._leaked_bytes = min(
                self._leaked_bytes + leak, self.budget_bytes
            )
            self._metric_leaked.set(self._leaked_bytes)
        used = self.used_bytes
        self._metric_used.set(used)
        if used >= self.budget_bytes:
            raise XenstoreError(
                f"xenstored out of memory ({used}/{self.budget_bytes} B,"
                f" {self._leaked_bytes} B leaked)"
            )

    # -- store operations ---------------------------------------------------------------

    @staticmethod
    def _validate(path: str) -> str:
        if not path.startswith("/") or path != path.rstrip("/") and path != "/":
            raise XenstoreError(f"bad xenstore path {path!r}")
        return path

    def write(self, path: str, value: str) -> None:
        """Create or update one entry."""
        self._validate(path)
        self._charge_transaction()
        previous = self._tree.get(path)
        if previous is None:
            self._live_bytes += _ENTRY_OVERHEAD_BYTES + len(path) + len(value)
        else:
            self._live_bytes += len(value) - len(previous)
        self._tree[path] = value

    def remove(self, path: str) -> int:
        """Remove a path and its whole subtree; returns entries removed."""
        self._validate(path)
        self._charge_transaction()
        prefix = path.rstrip("/") + "/"
        victims = [p for p in self._tree if p == path or p.startswith(prefix)]
        for victim in victims:
            self._live_bytes -= (
                _ENTRY_OVERHEAD_BYTES + len(victim) + len(self._tree.pop(victim))
            )
        return len(victims)

    # -- toolstack helpers ------------------------------------------------------------------

    def register_domain(self, domid: int, name: str, memory_bytes: int) -> None:
        """The burst of writes a domain introduction performs."""
        base = f"/local/domain/{domid}"
        self.write(f"{base}/name", name)
        self.write(f"{base}/memory", str(memory_bytes))
        self.write(f"{base}/state", "introduced")

    def unregister_domain(self, domid: int) -> None:
        """Remove a domain's whole subtree."""
        self.remove(f"/local/domain/{domid}")
