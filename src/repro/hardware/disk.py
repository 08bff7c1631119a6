"""Rotational disk model: FIFO service with stream-switch seeks.

The disk serves requests one at a time.  Long transfers are split into
chunks (``DiskSpec.chunk_bytes``); a chunk pays the seek penalty whenever
the head was last serving a *different* stream.  Two behaviours emerge,
both load-bearing for the paper's results:

* a **single stream** runs at full sequential bandwidth (one initial seek),
  so Xen's suspend of one 11 GB VM takes ~133 s at 85 MB/s — matching
  Figure 4;
* **interleaved streams** pay a seek per chunk, so 11 VMs booting (or
  being saved) in parallel see per-stream cost ``size × (1/bw + seek/chunk)``
  — the linear slopes of Figure 5;
* **small random reads** (512 KB files after a cold reboot) are seek-bound
  at ≈37 MB/s — the 69 % web-server degradation of Figure 8(b).

When the disk is uncontended a stream is served in multi-chunk bursts to
keep simulation event counts low; this does not change timing because
consecutive chunks of one stream pay no seek anyway.
"""

from __future__ import annotations

import typing

from repro.config import DiskSpec
from repro.errors import HardwareError
from repro.simkernel import Resource, Simulator
from repro.simkernel.process import Process

_UNCONTENDED_BURST_CHUNKS = 32


class DiskStats:
    """Lifetime counters for one disk (reset survives nothing)."""

    __slots__ = ("bytes_read", "bytes_written", "seeks", "requests")

    def __init__(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.seeks = 0
        self.requests = 0


class Disk:
    """One physical disk with a FIFO head."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self._head = Resource(sim, capacity=1, name=f"{name}.head")
        self._last_stream: typing.Hashable = None
        self.stats = DiskStats()
        self._metric_queue = sim.metrics.gauge("disk.queue_depth", disk=name)
        self._metric_busy = sim.metrics.counter("disk.busy_seconds", disk=name)

    # -- public API --------------------------------------------------------------

    def read(self, stream: typing.Hashable, nbytes: int) -> Process:
        """Start a read transfer; yield the returned process to wait."""
        return self.transfer(stream, nbytes, op="read")

    def write(self, stream: typing.Hashable, nbytes: int) -> Process:
        """Start a write transfer; yield the returned process to wait."""
        return self.transfer(stream, nbytes, op="write")

    def transfer(
        self, stream: typing.Hashable, nbytes: int, op: str = "read"
    ) -> Process:
        """Start a transfer of ``nbytes`` attributed to ``stream``.

        ``stream`` identifies head locality: consecutive chunks of the same
        stream are sequential on the platter; switching streams seeks.
        """
        if op not in ("read", "write"):
            raise HardwareError(f"unknown disk op {op!r}")
        if nbytes < 0:
            raise HardwareError(f"negative transfer size {nbytes}")
        return self.sim.spawn(
            self._run_transfer(stream, nbytes, op),
            name=f"{self.name}.{op}:{stream}",
        )

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the head (excludes the one being served)."""
        return self._head.queued

    # -- service loop ---------------------------------------------------------------

    def _run_transfer(
        self, stream: typing.Hashable, nbytes: int, op: str
    ) -> typing.Generator:
        bandwidth = self.spec.read_bw if op == "read" else self.spec.write_bw
        remaining = nbytes
        if remaining == 0:
            return None
            yield  # pragma: no cover - keeps this a generator
        while remaining > 0:
            with self._head.request() as grant:
                yield grant
                self._metric_queue.set(self._head.queued)
                contended = self._head.queued > 0
                burst_chunks = 1 if contended else _UNCONTENDED_BURST_CHUNKS
                take = min(remaining, burst_chunks * self.spec.chunk_bytes)
                needs_seek = self._last_stream != stream
                self._last_stream = stream
                service_time = take / bandwidth
                if needs_seek:
                    service_time += self.spec.seek_s
                    self.stats.seeks += 1
                self.stats.requests += 1
                yield self.sim.timeout(service_time)
                self._metric_busy.inc(service_time)
                remaining -= take
                if op == "read":
                    self.stats.bytes_read += take
                else:
                    self.stats.bytes_written += take
        return None
