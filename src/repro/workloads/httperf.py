"""An httperf-like HTTP workload generator (Mosberger & Jin, as cited).

Used two ways in the paper's evaluation:

* **Figure 7**: a stream of requests against one VM's Apache while the VMM
  reboots, plotting the moving average throughput of 50 requests;
* **Figure 8(b)**: 10 concurrent client processes requesting 10 000
  512 KB files exactly once each, before and after the reboot.

The client resolves its target service *per request* through a lookup
callable, because a cold reboot replaces the service object; requests
against an unreachable or missing service count as failures and are
retried after a short back-off — which is exactly how a real client's
throughput collapses to zero during downtime and recovers after it.

A served request is one float appended to
:attr:`Httperf.completion_times`, the only column any experiment,
scenario or fleet reads; Figure 7's throughput series bins it with
:func:`repro.analysis.timeline.bucketize`.

Two client models live here:

* :class:`Httperf` — **exact** mode, one simulated event chain per
  request; the semantic reference.
* :class:`FluidHttperf` + :class:`FluidCoordinator` — **fluid** mode:
  ``sessions`` closed-loop clients are a single number, advanced at
  aggregation ticks by a per-simulator coordinator that solves a
  processor-sharing rate model (numpy-vectorized across clients) against
  the live hardware objects.  A million concurrent sessions is one array
  slot; cross-validated against exact mode in
  ``tests/workloads/test_fluid.py``.  A quiet tick (since the last
  one, nothing but its own timeout left the scheduler; see
  :meth:`~repro.simkernel.kernel.Simulator.activity`) reuses the last
  solve instead of probing every client again.
"""

from __future__ import annotations

import typing
from bisect import bisect_left, bisect_right

import numpy

from repro.control.detectors import next_tick
from repro.errors import ReproError, ServiceError
from repro.guest.services import Service
from repro.simkernel import Process, Simulator


class Httperf:
    """A concurrent HTTP client against one (re-resolvable) service."""

    def __init__(
        self,
        sim: Simulator,
        lookup: typing.Callable[[], Service],
        paths: typing.Iterable[str],
        concurrency: int = 10,
        retry_interval_s: float = 0.25,
        each_path_once: bool = False,
        name: str = "httperf",
    ) -> None:
        if concurrency < 1:
            raise ReproError("concurrency must be >= 1")
        if retry_interval_s <= 0:
            raise ReproError("retry interval must be positive")
        self.sim = sim
        self.lookup = lookup
        self.name = name
        self.concurrency = concurrency
        self.retry_interval_s = retry_interval_s
        self.each_path_once = each_path_once
        self._paths = list(paths)
        if not self._paths:
            raise ReproError("httperf needs at least one path")
        self._cursor = 0
        self._stopped = False
        self._workers: list[Process] = []
        # Completion log.  Times are non-decreasing: workers append at
        # the simulated instant the reply lands, and the clock never
        # runs backwards — which is what lets the window queries below
        # use bisect instead of a full scan.
        self._times: list[float] = []
        self.failures = 0
        self._metric_latency = sim.metrics.histogram(
            "httperf.request_latency", client=name
        )
        self._metric_errors = sim.metrics.counter("httperf.errors", client=name)

    # -- control ----------------------------------------------------------------

    def start(self) -> "Httperf":
        """Launch the worker processes; returns self for chaining."""
        if self._workers:
            raise ReproError(f"{self.name} already started")
        self._workers = [
            self.sim.spawn(self._worker(), name=f"{self.name}.w{i}")
            for i in range(self.concurrency)
        ]
        return self

    def stop(self) -> None:
        """Kill all workers (pending requests are abandoned)."""
        self._stopped = True
        for worker in self._workers:
            if worker.is_alive:
                worker.kill()

    def wait(self) -> typing.Any:
        """An event that fires when all workers finish."""
        return self.sim.all_of(self._workers)

    # -- the client loop -----------------------------------------------------------

    def _next_path(self) -> str | None:
        if self.each_path_once:
            if self._cursor >= len(self._paths):
                return None
            path = self._paths[self._cursor]
            self._cursor += 1
            return path
        path = self._paths[self._cursor % len(self._paths)]
        self._cursor += 1
        return path

    def _worker(self) -> typing.Generator:
        sim = self.sim
        lookup = self.lookup
        tappend = self._times.append
        while not self._stopped:
            path = self._next_path()
            if path is None:
                return
            while not self._stopped:
                issued = sim._now
                try:
                    yield from lookup().handle_request(path=path)
                except (ServiceError, ReproError):
                    self.failures += 1
                    self._metric_errors.inc()
                    yield sim.timeout(self.retry_interval_s)
                    continue
                now = sim._now
                tappend(now)
                self._metric_latency.observe(now - issued)
                break

    # -- measurement -----------------------------------------------------------------

    @property
    def completion_times(self) -> list[float]:
        """Raw non-decreasing completion timestamps (read-only)."""
        return self._times

    def _window(self, since: float, until: float) -> tuple[int, int]:
        """Index range [lo, hi) of completions with since <= time <= until."""
        return bisect_left(self._times, since), bisect_right(self._times, until)

    def mean_rate(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Mean completions/second over a window."""
        lo, hi = self._window(since, until)
        if hi - lo < 2:
            return 0.0
        span = self._times[hi - 1] - self._times[lo]
        return (hi - lo - 1) / span if span > 0 else float("inf")


# -- fluid mode --------------------------------------------------------------------

_RESOURCES = 4
"""Waterfill resource axes: CPU (core-seconds), memory bus (bytes), disk
(bytes), NIC (bytes) — the four pools one Apache request touches."""


class FluidHttperf:
    """``sessions`` closed-loop HTTP clients as one fluid quantity.

    Instead of simulating each request, the client's throughput over each
    aggregation tick is the closed-loop asymptote ``sessions / L1``
    (``L1`` = one request's unloaded latency read off the live hardware
    objects), throttled by the owning machine's resource capacities when
    several clients share it (see :meth:`FluidCoordinator._solve`).
    Reachability is sampled once per tick through the same ``lookup``
    exact mode resolves per request, so downtime shows up as zero-rate
    ticks and retry-paced failures, quantized to the tick length.

    Everything is accounted in plain float rate * dt arithmetic from
    simulation state only — runs are bit-deterministic for a fixed seed,
    and identical no matter which process (or shard) hosts the client.
    """

    def __init__(
        self,
        coordinator: "FluidCoordinator",
        lookup: typing.Callable[[], Service],
        paths: typing.Iterable[str],
        sessions: int,
        retry_interval_s: float = 0.25,
        name: str = "fluid",
    ) -> None:
        if sessions < 1:
            raise ReproError("sessions must be >= 1")
        if retry_interval_s <= 0:
            raise ReproError("retry interval must be positive")
        self.coordinator = coordinator
        self.sim = coordinator.sim
        self.lookup = lookup
        self.name = name
        self.sessions = sessions
        self.retry_interval_s = retry_interval_s
        self._paths = list(paths)
        if not self._paths:
            raise ReproError("fluid httperf needs at least one path")
        self._since = self.sim.now
        # Columnar tick log: row k covers [t[k] - dt[k], t[k]].
        self._tick_t: list[float] = []
        self._tick_dt: list[float] = []
        self._tick_rate: list[float] = []
        self._tick_fail: list[float] = []
        self._tick_up: list[bool] = []
        self._completed = 0.0
        self.failures = 0.0
        self.downtime_s = 0.0
        self._warm_cursor = 0
        self._probe_ctx: tuple[typing.Any, float, float] | None = None
        self._residency: tuple | None = None
        self._metric_completed = self.sim.metrics.counter(
            "fluid.completed_requests", client=name
        )
        self._metric_errors = self.sim.metrics.counter(
            "fluid.failed_requests", client=name
        )
        coordinator.register(self)

    # -- per-tick model ---------------------------------------------------------

    def _probe(self) -> tuple[typing.Any, float, list[float], list[float]] | None:
        """Resolve the service and read the rate model's inputs.

        Returns ``(machine, demand, per_request_costs, capacities)`` or
        ``None`` when the service is unreachable this tick.  Costs and
        capacities are per :data:`_RESOURCES` axis.
        """
        try:
            service = self.lookup()
        except ReproError:
            return None
        guest = service.guest
        if not service.reachable or guest is None:
            return None
        try:
            machine = guest.machine
            total, cached = self._resident_bytes(guest)
        except ReproError:
            return None
        if total <= 0:
            return None
        payload = total / len(self._paths)
        resident = cached / total
        cpu_s = guest.profile.services.request_cpu_s
        nic = machine.nic
        nic_bw = nic.spec.bandwidth * nic.degradation_factor
        mem_bw = machine.membus.capacity
        disk_bw = machine.disk.spec.read_bw
        mem_bytes = resident * payload
        disk_bytes = (1.0 - resident) * payload
        solo_latency = (
            cpu_s
            + mem_bytes / mem_bw
            + disk_bytes / disk_bw
            + payload / nic_bw
            + nic.spec.latency_s
        )
        self._probe_ctx = (guest, payload, resident)
        return (
            machine,
            self.sessions / solo_latency,
            [cpu_s, mem_bytes, disk_bytes, payload],
            [float(machine.cpu.cores), mem_bw, disk_bw, nic_bw],
        )

    def _resident_bytes(self, guest: typing.Any) -> tuple[int, int]:
        """``(corpus bytes, cached corpus bytes)`` in the guest's image.

        Kept until the guest's filesystem or page cache changes object
        (compared with ``is``) or generation.  Every write to a size or a
        cached byte count moves a generation, so a kept pair equals a
        fresh one bit for bit.
        """
        filesystem = guest.filesystem
        page_cache = guest.page_cache
        kept = self._residency
        if (
            kept is not None
            and kept[0] is filesystem
            and kept[1] == filesystem.generation
            and kept[2] is page_cache
            and kept[3] == page_cache.generation
        ):
            return kept[4], kept[5]
        total = 0
        cached = 0
        for path in self._paths:
            size = filesystem.size_of(path)
            total += size
            cached += min(page_cache.cached_bytes(path), size)
        self._residency = (
            filesystem, filesystem.generation,
            page_cache, page_cache.generation,
            total, cached,
        )
        return total, cached

    def _warm(self, guest: typing.Any, budget_bytes: float) -> None:
        """Re-warm the page cache at the modeled miss rate.

        Exact mode's misses repopulate the cache one request at a time
        (``read_file`` inserts what it fetched from disk); mirror that by
        inserting the tick's modeled disk bytes into the corpus in cursor
        order, so a cache-cold window after a cold reboot recovers instead
        of persisting forever.
        """
        budget = int(budget_bytes)
        paths = self._paths
        filesystem = guest.filesystem
        page_cache = guest.page_cache
        for _ in range(len(paths)):
            if budget <= 0:
                return
            path = paths[self._warm_cursor % len(paths)]
            missing = filesystem.size_of(path) - page_cache.cached_bytes(path)
            if missing > 0:
                take = min(missing, budget)
                page_cache.insert(path, take)
                budget -= take
                if take < missing:
                    return
            self._warm_cursor += 1

    def _commit(self, start: float, end: float, rate: float, up: bool) -> None:
        """Account one tick interval [start, end] at a constant rate."""
        start = max(start, self._since)
        dt = end - start
        if dt <= 0:
            return
        self._tick_t.append(end)
        self._tick_dt.append(dt)
        self._tick_up.append(up)
        if up:
            self._tick_rate.append(rate)
            self._tick_fail.append(0.0)
            done = rate * dt
            self._completed += done
            context = self._probe_ctx
            if context is not None:
                guest, payload, resident = context
                if resident < 1.0:
                    self._warm(guest, done * (1.0 - resident) * payload)
            self._metric_completed.inc(done)
        else:
            fail_rate = self.sessions / self.retry_interval_s
            self._tick_rate.append(0.0)
            self._tick_fail.append(fail_rate)
            self.failures += fail_rate * dt
            self.downtime_s += dt
            self._metric_errors.inc(fail_rate * dt)

    # -- control -----------------------------------------------------------------

    def stop(self) -> None:
        """Account the final partial tick and stop the coordinator."""
        self.coordinator.finalize()

    # -- measurement -------------------------------------------------------------

    @property
    def total_completed(self) -> float:
        """Modeled request completions over the whole run (fractional)."""
        return self._completed

    def _window(
        self, since: float, until: float
    ) -> tuple[float, float, float, float]:
        """``(covered, completed, failed, down)`` over a window, one pass.

        Bisects once to the first tick ending at or after ``since``, then
        walks left to right until a tick starts at or after ``until``,
        adding each tick's overlap with the window: ``covered`` is the
        overlap seconds, ``down`` the unreachable ones, ``completed`` and
        ``failed`` the rates times the overlap.  Each sum starts at the
        integer 0 and adds with ``+=`` in tick order, so an empty window
        reads 0 and no summation order (``sum``'s compensation, numpy's
        pairwise tree) can move a bit.
        """
        ticks = self._tick_t
        dts = self._tick_dt
        rates = self._tick_rate
        fails = self._tick_fail
        ups = self._tick_up
        covered = completed = failed = down = 0
        for i in range(bisect_left(ticks, since), len(ticks)):
            end = ticks[i]
            start = end - dts[i]
            if start >= until:
                break
            overlap = (until if until < end else end) - (
                since if since > start else start
            )
            if overlap > 0:
                covered += overlap
                completed += rates[i] * overlap
                failed += fails[i] * overlap
                if not ups[i]:
                    down += overlap
        return covered, completed, failed, down

    def availability(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Reachable fraction of the accounted window (1.0 if empty)."""
        covered, _, _, down = self._window(since, until)
        return 1.0 - down / covered if covered > 0 else 1.0

    def mean_rate(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Mean completions/second over a window (downtime included)."""
        covered, completed, _, _ = self._window(since, until)
        return completed / covered if covered > 0 else 0.0

    def window_summary(self, since: float, until: float) -> dict[str, float]:
        """The cross-validation row for one observation window (one pass)."""
        covered, completed, failed, down = self._window(since, until)
        return {
            "requests": completed,
            "failures": failed,
            "mean_rate": completed / covered if covered > 0 else 0.0,
            "downtime_s": down,
            "availability": 1.0 - down / covered if covered > 0 else 1.0,
        }


class FluidCoordinator:
    """Advances every registered :class:`FluidHttperf` at aggregation ticks.

    One per simulator.  Ticks land on the **absolute** grid (multiples of
    ``tick_s``, via :func:`~repro.control.detectors.next_tick`), not at
    offsets from when the coordinator started: two simulations that build
    at different instants (a serial fleet vs. one of its shards) therefore
    account the same wall-aligned intervals, and windowed queries over a
    common span agree bit-for-bit.  ``next_tick`` steps past a grid point
    that float rounding puts at or before ``now`` (``tick_s = 0.7`` at
    t = 2.0999999999999996), so the clock always moves.

    A solve probes every client and runs a per-machine waterfill: clients
    demand their closed-loop rate; every machine scales its residents'
    demands by one factor so no resource (CPU, memory bus, disk, NIC)
    exceeds capacity — the fluid analogue of
    :class:`~repro.simkernel.sharing.SharedPool`'s proportional sharing.
    The solve is numpy-vectorized across clients; summation order is
    registration order, so results are deterministic.

    A **quiet** tick reuses the previous solve's ``(rate, up)`` per
    client instead.  A tick is quiet when :meth:`Simulator.activity`
    moved by exactly one since the last tick (this tick's own timeout),
    no client registered since, and no reachable client had a partly
    resident corpus on the solved tick.  Every write a probe reads
    happens inside a scheduler entry, which moves the mark, or in caller
    code between ``run()``/``step()`` calls, whose next call moves it;
    the only other code between two ticks is the commits, and the one
    commit that writes probe input (:meth:`FluidHttperf._warm`) runs only
    for a partly resident corpus.  So a reused pair equals a fresh solve
    bit for bit.  Under ``sim.sanitizer`` every tick solves, and a quiet
    tick whose kept pair differs is reported as ``stale-fluid-tick``.
    :meth:`finalize` always solves.
    """

    def __init__(self, sim: Simulator, tick_s: float = 1.0) -> None:
        if tick_s <= 0:
            raise ReproError("fluid tick must be positive")
        self.sim = sim
        self.tick_s = tick_s
        self._clients: list[FluidHttperf] = []
        self._proc: Process | None = None
        self._last = sim.now
        self._stopped = False
        # The last solve per client, or None while the next tick must
        # solve; and sim.activity() at the last tick.
        self._kept: list[tuple[float, bool]] | None = None
        self._mark = 0

    def register(self, client: FluidHttperf) -> None:
        """Add a client; starts the tick process on the first register."""
        if self._stopped:
            raise ReproError("fluid coordinator already finalized")
        self._clients.append(client)
        self._kept = None
        if self._proc is None:
            self._last = self.sim.now
            self._proc = self.sim.spawn(self._run(), name="fluid.coordinator")

    def _run(self) -> typing.Generator:
        sim = self.sim
        tick = self.tick_s
        while not self._stopped:
            yield sim.timeout(next_tick(0.0, tick, sim.now) - sim.now)
            mark = sim.activity()
            quiet = mark == self._mark + 1
            self._mark = mark
            self._account(sim.now, quiet)

    def _account(self, until: float, quiet: bool = False) -> None:
        """Commit every client over ``[last tick, until]``.

        A ``quiet`` tick reuses the kept solve; under the sanitizer it
        solves anyway and reports each client whose kept pair differs.
        """
        start = self._last
        if until <= start:
            return
        self._last = until
        kept = self._kept if quiet else None
        sanitizer = self.sim.sanitizer
        if kept is None or sanitizer is not None:
            solved = self._solve()
            if kept is not None:
                for client, old, new in zip(self._clients, kept, solved):
                    if old != new:
                        sanitizer.report(
                            "stale-fluid-tick",
                            f"fluid client {client.name!r} would reuse "
                            f"(rate, up) = {old!r} on the tick ending at "
                            f"t={until!r}, but a fresh solve gives {new!r}",
                        )
            kept = solved
        for client, (rate, up) in zip(self._clients, kept):
            client._commit(start, until, rate, up)

    def _solve(self) -> list[tuple[float, bool]]:
        """Probe every client and run the waterfill: ``(rate, up)`` each.

        The result is kept for quiet ticks unless a reachable client's
        corpus is partly resident: its commit re-warms the page cache,
        which the next probe reads.
        """
        clients = self._clients
        count = len(clients)
        up = numpy.zeros(count, dtype=bool)
        demand = numpy.zeros(count)
        costs = numpy.zeros((_RESOURCES, count))
        machine_index = numpy.zeros(count, dtype=int)
        machine_slots: dict[int, int] = {}
        capacities: list[list[float]] = []
        warming = False
        for i, client in enumerate(clients):
            probe = client._probe()
            if probe is None:
                continue
            machine, client_demand, cost, capacity = probe
            slot = machine_slots.setdefault(id(machine), len(machine_slots))
            if slot == len(capacities):
                capacities.append(capacity)
            machine_index[i] = slot
            up[i] = True
            demand[i] = client_demand
            costs[:, i] = cost
            warming = warming or client._probe_ctx[2] < 1.0
        if machine_slots:
            load = numpy.zeros((_RESOURCES, len(machine_slots)))
            for axis in range(_RESOURCES):
                numpy.add.at(load[axis], machine_index, demand * costs[axis])
            capacity = numpy.array(capacities).T
            # An axis nobody stresses (fully-resident corpus: zero disk
            # bytes) has load 0; the discarded division overflows, so
            # silence it rather than special-case the mask.
            with numpy.errstate(over="ignore", divide="ignore"):
                ratio = numpy.where(
                    load > 0.0, capacity / numpy.maximum(load, 1e-300), numpy.inf
                )
            scale = numpy.minimum(ratio.min(axis=0), 1.0)
            rates = demand * scale[machine_index]
        else:
            rates = demand
        solved = list(zip(rates.tolist(), up.tolist()))
        self._kept = None if warming else solved
        return solved

    def finalize(self) -> None:
        """Account the trailing partial tick and stop; idempotent."""
        if self._stopped:
            return
        self._account(self.sim.now)
        self._stopped = True
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
