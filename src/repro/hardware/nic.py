"""Network interface / link model: fluid bandwidth sharing plus latency.

All concurrent transmissions share the link fluidly (TCP flows on one
gigabit port), each paying a fixed latency on top.  The link supports a
*degradation factor* used to reproduce the Xen 3.0.0 quirk the paper hits
in Figure 7: network throughput sags for ~25 s after many domains are
created simultaneously.
"""

from __future__ import annotations

from repro.config import NicSpec
from repro.errors import HardwareError
from repro.simkernel import Event, SharedPool, Simulator


class NetworkLink:
    """A shared-bandwidth link with per-transfer latency."""

    def __init__(self, sim: Simulator, spec: NicSpec, name: str = "nic") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self._pool = SharedPool(
            sim, capacity=spec.bandwidth, per_job_cap=None, name=f"{name}.bw"
        )
        self._factor = 1.0
        self._up = True
        self._tx_name = name + ".tx"
        self.bytes_sent = 0
        self._metric_tx = sim.metrics.counter("nic.tx_bytes", nic=name)

    # -- link state ----------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self._up

    @property
    def degradation_factor(self) -> float:
        return self._factor

    def set_degradation(self, factor: float) -> None:
        """Scale effective bandwidth by ``factor`` (0 < factor <= 1)."""
        if not 0 < factor <= 1:
            raise HardwareError(f"degradation factor must be in (0,1], got {factor}")
        self._factor = factor
        self._pool.set_capacity(self.spec.bandwidth * factor)

    def clear_degradation(self) -> None:
        """Restore full link bandwidth."""
        self.set_degradation(1.0)

    def bring_down(self) -> None:
        """Drop the link (host rebooting): in-flight transfers fail."""
        self._up = False
        self._pool.drain()

    def bring_up(self) -> None:
        """Restore the link after a reboot window."""
        self._up = True

    # -- transfers ---------------------------------------------------------------------

    def transmit(self, nbytes: int) -> Event:
        """Send ``nbytes``; the returned event fires at last-byte delivery.

        Fails with :class:`HardwareError` if the link is (or goes) down.
        """
        if nbytes < 0:
            raise HardwareError(f"negative transmit size {nbytes}")
        sim = self.sim
        done = Event(sim, name=self._tx_name)
        if not self._up:
            done.fail(HardwareError(f"{self.name} is down"))
            return done
        # Chain two plain callbacks instead of spawning a delivery process:
        # transmit is the hottest allocation site in the request-serving
        # experiments, and a generator process costs an extra event, a
        # start timer and three trampoline resumptions per transfer.
        latency = self.spec.latency_s

        def finish(event: Event) -> None:
            if not event._ok:
                event._defused = True
                done.fail(HardwareError(f"{self.name} transfer aborted"))
            else:
                self.bytes_sent += nbytes
                self._metric_tx.inc(nbytes)
                if latency:
                    # Deliver at last-byte time without a timer allocation.
                    done.succeed_at(sim._now + latency, nbytes)
                else:
                    done.succeed(nbytes)

        self._pool.execute(float(nbytes)).callbacks.append(finish)
        return done
