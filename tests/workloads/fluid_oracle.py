"""The per-tick fluid path: the test oracle for quiet ticks and tick rows.

This is :meth:`~repro.workloads.httperf.FluidCoordinator._account` as it
was before quiet ticks reused the previous tick's solve and before tick
rows moved into the coordinator: every tick probes every client, solves
the per-machine waterfill afresh and commits each client at the solved
rate into a per-client tick log (:class:`TickLog`, which is
``FluidHttperf._commit`` with the five columns and three running totals
it kept, its page-cache re-warm and its two counter increments).

The waterfill itself is :func:`numpy_waterfill`, the numpy solve that
:func:`repro.workloads.httperf.waterfill` replaced with plain floats;
``test_fluid_reuse.py`` compares the two by ``float.hex`` with a
hypothesis property.

``test_fluid_reuse.py`` patches :func:`reference_account` in for
``FluidCoordinator._account`` and diffs whole runs (tick logs, running
totals, window summaries and metric series) against the shipped
coordinator, bit for bit.  :func:`view` gives a client's oracle log when
the oracle ran and the client itself otherwise; both read the same way.
"""

from __future__ import annotations

import typing

import numpy

from repro.workloads.httperf import _RESOURCES

from tests.workloads import window_oracle


class TickLog:
    """One client's columnar tick log: row k covers [t[k] - dt[k], t[k]]."""

    def __init__(self, client: typing.Any) -> None:
        self.client = client
        self.t: list[float] = []
        self.dt: list[float] = []
        self.rate: list[float] = []
        self.fail: list[float] = []
        self.up: list[bool] = []
        self.total_completed = 0.0
        self.failures = 0.0
        self.downtime_s = 0.0

    def commit(self, start: float, end: float, rate: float, up: bool) -> None:
        """Account one tick interval [start, end] at a constant rate."""
        client = self.client
        start = max(start, client._since)
        dt = end - start
        if dt <= 0:
            return
        self.t.append(end)
        self.dt.append(dt)
        self.up.append(up)
        if up:
            self.rate.append(rate)
            self.fail.append(0.0)
            done = rate * dt
            self.total_completed += done
            context = client._probe_ctx
            if context is not None:
                guest, payload, resident = context
                if resident < 1.0:
                    client._warm(guest, done * (1.0 - resident) * payload)
            client._metric_completed.inc(done)
        else:
            fail_rate = client.sessions / client.retry_interval_s
            self.rate.append(0.0)
            self.fail.append(fail_rate)
            self.failures += fail_rate * dt
            self.downtime_s += dt
            client._metric_errors.inc(fail_rate * dt)

    def tick_log(self) -> tuple[list, list, list, list, list]:
        return self.t, self.dt, self.rate, self.fail, self.up

    def window_summary(self, since: float, until: float) -> dict[str, float]:
        return window_oracle.window_summary(self, since, until)


def _log(client: typing.Any) -> TickLog:
    """``client``'s oracle log, kept on its coordinator."""
    logs = client.coordinator.__dict__.setdefault("_oracle_logs", {})
    if client not in logs:
        logs[client] = TickLog(client)
    return logs[client]


def view(client: typing.Any) -> typing.Any:
    """``client``'s oracle log if the oracle accounted it, else ``client``."""
    if "_oracle_logs" in client.coordinator.__dict__:
        return _log(client)
    return client


def numpy_waterfill(
    probes: typing.Sequence[tuple[int, float, typing.Sequence[float]] | None],
    capacities: typing.Sequence[typing.Sequence[float]],
) -> list[float]:
    """:func:`~repro.workloads.httperf.waterfill`'s rates, solved in numpy.

    Same arguments: each client's ``(machine slot, demand, costs)`` or
    ``None`` when it is down, and each slot's capacities.  A down
    client has demand 0, costs 0 and slot 0.
    """
    count = len(probes)
    demand = numpy.zeros(count)
    costs = numpy.zeros((_RESOURCES, count))
    machine_index = numpy.zeros(count, dtype=int)
    for i, probe in enumerate(probes):
        if probe is not None:
            machine_index[i], demand[i], costs[:, i] = probe
    if not capacities:
        return demand.tolist()
    load = numpy.zeros((_RESOURCES, len(capacities)))
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
    return (demand * scale[machine_index]).tolist()


def reference_account(
    coordinator: typing.Any, until: float, quiet: bool = False
) -> None:
    """Probe, solve and commit every client; ``quiet`` is ignored."""
    start = coordinator._last
    if until <= start:
        return
    coordinator._last = until
    clients = coordinator._clients
    probes = []
    machine_slots: dict[int, int] = {}
    capacities: list[list[float]] = []
    for client in clients:
        probe = client._probe()
        if probe is None:
            probes.append(None)
            continue
        machine, client_demand, cost, capacity = probe
        slot = machine_slots.setdefault(id(machine), len(machine_slots))
        if slot == len(capacities):
            capacities.append(capacity)
        probes.append((slot, client_demand, cost))
    rates = numpy_waterfill(probes, capacities)
    for client, rate, probe in zip(clients, rates, probes):
        _log(client).commit(start, until, rate, probe is not None)
