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
  processor-sharing rate model (:func:`waterfill`, plain floats) against
  the live hardware objects.  A million concurrent sessions is one
  entry of the solve; cross-validated against exact mode in
  ``tests/workloads/test_fluid.py``.  A quiet tick (since the last
  one, nothing but its own timeout left the scheduler; see
  :meth:`~repro.simkernel.kernel.Simulator.activity`) reuses the last
  solve instead of probing every client again.  The tick log lives
  once, as rows in the coordinator; each client reads its own rows from
  there, so a quiet tick with metrics off touches no client.
"""

from __future__ import annotations

import typing
from bisect import bisect_left, bisect_right

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


def waterfill(
    probes: typing.Sequence[tuple[int, float, typing.Sequence[float]] | None],
    capacities: typing.Sequence[typing.Sequence[float]],
) -> list[float]:
    """Every client's rate under its machine's proportional waterfill.

    ``probes[i]`` is client ``i``'s ``(machine slot, demand, per-request
    costs)``, or ``None`` when it is down (rate ``0.0``);
    ``capacities[slot]`` is that machine's capacity.  Costs and
    capacities are per :data:`_RESOURCES` axis.  A machine's load on an
    axis adds ``demand * cost`` in client order; its scale is the least
    ``capacity / max(load, 1e-300)`` over the axes with a positive load,
    capped at 1.0; a client's rate is ``demand * scale``.  These are the
    float operations of the numpy solve this replaced, in its order, so
    every rate keeps its bits; ``tests/workloads/fluid_oracle.py`` keeps
    that solve as the oracle.
    """
    loads = [[0.0] * _RESOURCES for _ in capacities]
    for probe in probes:
        if probe is not None:
            slot, demand, costs = probe
            load = loads[slot]
            for axis in range(_RESOURCES):
                load[axis] += demand * costs[axis]
    scales = []
    for capacity, load in zip(capacities, loads):
        scale = 1.0
        for axis in range(_RESOURCES):
            if load[axis] > 0.0:
                ratio = capacity[axis] / max(load[axis], 1e-300)
                if ratio < scale:
                    scale = ratio
        scales.append(scale)
    return [
        0.0 if probe is None else probe[1] * scales[probe[0]] for probe in probes
    ]


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

    The client stores no tick log of its own.  Its rows are the
    coordinator's from the first one accounted after it registered
    (``_row0``), at its index (``_slot``) in each run's solve; only that
    first row is clipped, at ``_since``.  The totals fold those rows on
    read, and the window queries walk them; :meth:`tick_log` rebuilds
    them as columns.
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
        self._warm_cursor = 0
        self._probe_ctx: tuple[typing.Any, float, float] | None = None
        self._residency: tuple | None = None
        self._metric_completed = self.sim.metrics.counter(
            "fluid.completed_requests", client=name
        )
        self._metric_errors = self.sim.metrics.counter(
            "fluid.failed_requests", client=name
        )
        # The index into every solve, and the first row after registering.
        self._slot, self._row0 = coordinator.register(self)
        # The totals over the rows before _folded (see _fold).
        self._folded = self._row0
        self._completed = 0.0
        self._failures = 0.0
        self._downtime = 0.0

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

    def _length(self, row: int) -> float:
        """The seconds of the coordinator's row ``row`` that count here.

        Only the first row can start before ``_since``; it is clipped to
        ``end - max(start, since)``, and dropped where that is not
        positive.  Float subtraction rounds monotonically, so that is the
        smaller of the row's own ``end - start`` and ``end - since``, and
        no row keeps its raw start.
        """
        coordinator = self.coordinator
        dt = coordinator._dts[row]
        if row == self._row0:
            dt = min(dt, coordinator._ends[row] - self._since)
        return dt

    def _settle(self, row: int, rate: float, up: bool, warm: bool) -> None:
        """The per-client work of the row just accounted.

        ``warm`` (a solve tick with a partly resident corpus somewhere)
        re-warms this client's page cache, which the next probe reads; the
        ``fluid.*`` counters get their sample.  The coordinator calls this
        only for ``warm`` or with metrics on: everything else a tick means
        to a client is read from the rows when asked.
        """
        dt = self._length(row)
        if dt <= 0:
            return
        if up:
            done = rate * dt
            context = self._probe_ctx
            if warm and context is not None:
                guest, payload, resident = context
                if resident < 1.0:
                    self._warm(guest, done * (1.0 - resident) * payload)
            self._metric_completed.inc(done)
        else:
            fail_rate = self.sessions / self.retry_interval_s
            self._metric_errors.inc(fail_rate * dt)

    # -- control -----------------------------------------------------------------

    def stop(self) -> None:
        """Account the final partial tick and stop the coordinator."""
        self.coordinator.finalize()

    # -- measurement -------------------------------------------------------------

    def _segments(self, row: int) -> typing.Iterator[tuple]:
        """This client's rows from ``row`` on, one run at a time.

        Yields ``(ends, dts, lo, hi, rate, fail, up)``: rows ``lo`` to
        ``hi`` of the columns ``ends`` and ``dts`` share this client's
        ``(rate, up)`` in their run, ``fail`` being the retry-paced
        failure rate of a down row (rate 0.0, and fail 0.0 when up).  The
        first row, clipped by :meth:`_length`, comes as a one-row segment
        with columns of its own, or not at all once nothing of it is left.
        """
        coordinator = self.coordinator
        ends = coordinator._ends
        dts = coordinator._dts
        total = len(ends)
        run_rows = coordinator._run_rows
        solves = coordinator._run_solves
        fail_rate = self.sessions / self.retry_interval_s
        run = bisect_right(run_rows, row) - 1
        while row < total:
            rate, up = solves[run][self._slot]
            fail = 0.0
            if not up:
                rate, fail = 0.0, fail_rate
            run += 1
            hi = run_rows[run] if run < len(run_rows) else total
            if row == self._row0:
                dt = self._length(row)
                if dt > 0:
                    yield (ends[row],), (dt,), 0, 1, rate, fail, up
                row += 1
            if row < hi:
                yield ends, dts, row, hi, rate, fail, up
            row = hi

    def tick_log(
        self,
    ) -> tuple[list[float], list[float], list[float], list[float], list[bool]]:
        """Five columns ``(t, dt, rate, fail, up)``, one entry per tick.

        Row k covers ``[t[k] - dt[k], t[k]]`` at ``rate[k]`` completions
        and ``fail[k]`` failures per second; ``up[k]`` is reachability.
        Built from the coordinator's rows on each call, for tests and
        debugging.
        """
        t: list[float] = []
        dt: list[float] = []
        rate: list[float] = []
        fail: list[float] = []
        up: list[bool] = []
        for ends, dts, lo, hi, r, f, u in self._segments(self._row0):
            t += ends[lo:hi]
            dt += dts[lo:hi]
            rate += [r] * (hi - lo)
            fail += [f] * (hi - lo)
            up += [u] * (hi - lo)
        return t, dt, rate, fail, up

    def _fold(self) -> None:
        """Add the rows accounted since the last read to the totals.

        Left to right with ``+=`` from 0.0, as if each tick had added its
        own, so a total has the same bits however often it is read.
        """
        total = len(self.coordinator._ends)
        completed = self._completed
        failures = self._failures
        downtime = self._downtime
        for _, dts, lo, hi, rate, fail, up in self._segments(self._folded):
            if up:
                for i in range(lo, hi):
                    completed += rate * dts[i]
            else:
                for i in range(lo, hi):
                    dt = dts[i]
                    failures += fail * dt
                    downtime += dt
        self._completed = completed
        self._failures = failures
        self._downtime = downtime
        self._folded = total

    @property
    def total_completed(self) -> float:
        """Modeled request completions over the whole run (fractional)."""
        self._fold()
        return self._completed

    @property
    def failures(self) -> float:
        """Retry-paced failed requests over the whole run (fractional)."""
        self._fold()
        return self._failures

    @property
    def downtime_s(self) -> float:
        """Unreachable seconds over the whole run."""
        self._fold()
        return self._downtime

    def _window(
        self, since: float, until: float
    ) -> tuple[float, float, float, float]:
        """``(covered, completed, failed, down)`` over a window, one pass.

        Bisects once to the first row ending at or after ``since``, then
        walks left to right, run by run, until a row starts at or after
        ``until``, adding each row's overlap with the window: ``covered``
        is the overlap seconds, ``down`` the unreachable ones,
        ``completed`` and ``failed`` the rates times the overlap.  Each
        sum starts at the integer 0 and adds with ``+=`` in row order, so
        an empty window reads 0 and no summation order (``sum``'s
        compensation, numpy's pairwise tree) can move a bit.
        """
        covered = completed = failed = down = 0
        first = bisect_left(self.coordinator._ends, since, self._row0)
        for ends, dts, lo, hi, rate, fail, up in self._segments(first):
            for i in range(lo, hi):
                end = ends[i]
                start = end - dts[i]
                if start >= until:
                    return covered, completed, failed, down
                overlap = (until if until < end else end) - (
                    since if since > start else start
                )
                if overlap > 0:
                    covered += overlap
                    completed += rate * overlap
                    failed += fail * overlap
                    if not up:
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
    :class:`~repro.simkernel.sharing.SharedPool`'s proportional sharing
    (:func:`waterfill`).  Summation order is registration order, so
    results are deterministic.

    A **quiet** tick reuses the previous solve's ``(rate, up)`` per
    client instead.  A tick is quiet when :meth:`Simulator.activity`
    moved by exactly one since the last tick (this tick's own timeout),
    no client registered since, and no reachable client had a partly
    resident corpus on the solved tick.  Every write a probe reads
    happens inside a scheduler entry, which moves the mark, or in caller
    code between ``run()``/``step()`` calls, whose next call moves it;
    the only other code between two ticks is the accounting, and the one
    part of it that writes probe input (:meth:`FluidHttperf._warm`) runs
    only for a partly resident corpus.  So a reused pair equals a fresh solve
    bit for bit.  Under ``sim.sanitizer`` every tick solves, and a quiet
    tick whose kept pair differs is reported as ``stale-fluid-tick``.
    :meth:`finalize` always solves.

    Every accounted tick is one **row**, ``[end - dt, end]``, kept once
    for all clients.  Consecutive rows that share one solve form a
    **run**: a quiet tick reuses the kept list object, so its row
    extends the current run, and a solve starts a new one.  Clients read
    their ``(rate, up)`` for a row from its run's solve.  Two things
    still happen per client as a tick is accounted: a solve that found a
    partly resident corpus re-warms those page caches (the next probe
    reads them), and with metrics on every client's ``fluid.*`` counter
    gets its sample, which is output.
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
        # The rows: one accounted tick each, [end - dt, end].  The rows
        # of a run, from _run_rows[r] up to the next run's first row,
        # share the solve _run_solves[r].
        self._ends: list[float] = []
        self._dts: list[float] = []
        self._run_rows: list[int] = []
        self._run_solves: list[list[tuple[float, bool]]] = []

    def register(self, client: FluidHttperf) -> tuple[int, int]:
        """Add a client; starts the tick process on the first register.

        Returns the client's index into every solve and its first row.
        """
        if self._stopped:
            raise ReproError("fluid coordinator already finalized")
        self._clients.append(client)
        self._kept = None
        if self._proc is None:
            self._last = self.sim.now
            self._proc = self.sim.spawn(self._run(), name="fluid.coordinator")
        return len(self._clients) - 1, len(self._ends)

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
        """Account ``[last tick, until]`` as one row.

        A ``quiet`` tick reuses the kept solve, so its row extends the
        current run; under the sanitizer it solves anyway and reports each
        client whose kept pair differs.  A solve keeps its pairs for the
        next quiet tick unless a reachable client's corpus is partly
        resident: that client's cache is re-warmed here, and the next
        probe reads it.
        """
        start = self._last
        if until <= start:
            return
        self._last = until
        kept = self._kept if quiet else None
        sanitizer = self.sim.sanitizer
        warming = False
        if kept is None or sanitizer is not None:
            solved, warming = self._solve()
            if kept is not None:
                for client, old, new in zip(self._clients, kept, solved):
                    if old != new:
                        sanitizer.report(
                            "stale-fluid-tick",
                            f"fluid client {client.name!r} would reuse "
                            f"(rate, up) = {old!r} on the tick ending at "
                            f"t={until!r}, but a fresh solve gives {new!r}",
                        )
            self._kept = None if warming else solved
            kept = solved
        self._append(start, until, kept)
        if warming or self.sim.metrics.enabled:
            row = len(self._ends) - 1
            for client, (rate, up) in zip(self._clients, kept):
                client._settle(row, rate, up, warming)

    def _append(
        self, start: float, until: float, solve: list[tuple[float, bool]]
    ) -> None:
        """Add the row ``[start, until]``; a new ``solve`` starts a run."""
        solves = self._run_solves
        if not solves or solves[-1] is not solve:
            self._run_rows.append(len(self._ends))
            solves.append(solve)
        self._ends.append(until)
        self._dts.append(until - start)

    def _solve(self) -> tuple[list[tuple[float, bool]], bool]:
        """Probe every client and run the waterfill: ``(rate, up)`` each.

        Also says whether a reachable client's corpus is partly resident.
        """
        probes: list[tuple[int, float, list[float]] | None] = []
        machine_slots: dict[int, int] = {}
        capacities: list[list[float]] = []
        warming = False
        for client in self._clients:
            probe = client._probe()
            if probe is None:
                probes.append(None)
                continue
            machine, demand, costs, capacity = probe
            slot = machine_slots.setdefault(id(machine), len(machine_slots))
            if slot == len(capacities):
                capacities.append(capacity)
            probes.append((slot, demand, costs))
            warming = warming or client._probe_ctx[2] < 1.0
        rates = waterfill(probes, capacities)
        return [
            (rate, probe is not None) for rate, probe in zip(rates, probes)
        ], warming

    def finalize(self) -> None:
        """Account the trailing partial tick and stop; idempotent."""
        if self._stopped:
            return
        self._account(self.sim.now)
        self._stopped = True
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
