"""Event channels: the Xen inter-domain notification primitive.

Guests and dom0 communicate through numbered channels (console, xenstore,
device rings).  The suspend path must snapshot channel state into the
16 KB execution-state area and the resume handler re-establishes the
bindings (§4.2) — so the table supports exactly that: snapshot/restore
plus teardown when a domain dies.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.metrics import MetricsRegistry


@dataclasses.dataclass
class EventChannel:
    """One bound inter-domain channel."""

    port: int
    owner: str
    peer: str
    purpose: str


class EventChannelTable:
    """All channels managed by one hypervisor instance.

    ``metrics`` is the owning simulator's registry; the table is
    constructed by the hypervisor, which passes its ``sim.metrics``.
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self._channels: dict[int, EventChannel] = {}
        self._ports = itertools.count(1)
        # Nothing sends, but metrics-on bundles and pinned digests list it.
        if metrics is not None:
            metrics.counter("vmm.event_channel_sends")

    def bind(self, owner: str, peer: str, purpose: str) -> EventChannel:
        """Allocate and bind a new channel between two domains."""
        channel = EventChannel(next(self._ports), owner, peer, purpose)
        self._channels[channel.port] = channel
        return channel

    def channels_of(self, domain: str) -> list[EventChannel]:
        """All channels with ``domain`` on either end."""
        return [
            c
            for c in self._channels.values()
            if domain in (c.owner, c.peer)
        ]

    def close_domain(self, domain: str) -> int:
        """Tear down all of a dying domain's channels; returns count."""
        ports = [c.port for c in self.channels_of(domain)]
        for port in ports:
            del self._channels[port]
        return len(ports)

    def snapshot_domain(self, domain: str) -> list[dict[str, typing.Any]]:
        """Channel state for the execution-state save area (§4.2)."""
        return [dataclasses.asdict(c) for c in self.channels_of(domain)]

    def restore_domain(self, snapshot: list[dict[str, typing.Any]]) -> int:
        """Re-establish channels from a saved snapshot (resume handler).

        Ports are reallocated — the new VMM instance assigns fresh port
        numbers, as re-binding after reboot does — but owners, peers and
        purposes are preserved.  Returns channels restored.
        """
        for entry in snapshot:
            self.bind(entry["owner"], entry["peer"], entry["purpose"])
        return len(snapshot)

    def __len__(self) -> int:
        return len(self._channels)
