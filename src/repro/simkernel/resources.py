"""Queued resources: capacity-limited contention points.

A :class:`Resource` models a serialized toolstack or a lock inside the
hypervisor.  Requests queue FIFO (or by priority) and are granted as
capacity frees up.

Usage from a process::

    with disk_lock.request() as req:
        yield req                 # wait until granted
        yield sim.timeout(0.008)  # hold the resource
    # released on exiting the with-block
"""

from __future__ import annotations

import heapq
import typing

from repro.errors import SimulationError
from repro.simkernel.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager so the resource is always released, even if
    the holding process is killed.
    """

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.sim, name=f"request:{resource.name}")
        self.resource = resource
        self.priority = priority
        self._order = 0

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: typing.Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (alias for release)."""
        self.resource.release(self)


class Resource:
    """A FIFO resource with integer capacity.

    ``capacity`` slots may be held at once; further requests wait in
    priority-then-FIFO order (default priority 0 gives plain FIFO).
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: list[tuple[int, int, Request]] = []
        self._sequence = 0
        if sim.sanitizer is not None:
            sim.sanitizer.register_resource(self)

    @property
    def count(self) -> int:
        """Number of currently granted requests."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests still waiting."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event fires when granted."""
        req = Request(self, priority=priority)
        self._sequence += 1
        req._order = self._sequence
        heapq.heappush(self._queue, (priority, self._sequence, req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot, or withdraw a waiting request.

        Releasing is idempotent so context-manager exit after an explicit
        release is harmless.
        """
        if request in self._users:
            self._users.discard(request)
            self._grant()
        elif not request.triggered:
            # Withdraw from the queue lazily: mark by failing nothing —
            # rebuild the heap without it (queues here are short).
            self._queue = [
                entry for entry in self._queue if entry[2] is not request
            ]
            heapq.heapify(self._queue)

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            _, _, req = heapq.heappop(self._queue)
            self._users.add(req)
            req.succeed(req)

