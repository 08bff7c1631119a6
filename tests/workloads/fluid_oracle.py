"""The per-tick fluid solve: the test oracle for quiet-tick reuse.

This is :meth:`~repro.workloads.httperf.FluidCoordinator._account` as it
was before quiet ticks reused the previous tick's solve: every tick
probes every client, solves the per-machine waterfill afresh and commits
each client at the solved rate.  ``test_fluid_reuse.py`` patches it in
for ``FluidCoordinator._account`` and diffs whole runs (tick logs,
running totals, window summaries and metric series) against the
coordinator that reuses, bit for bit.
"""

from __future__ import annotations

import typing

import numpy

from repro.workloads.httperf import _RESOURCES


def reference_account(
    coordinator: typing.Any, until: float, quiet: bool = False
) -> None:
    """Probe, solve and commit every client; ``quiet`` is ignored."""
    start = coordinator._last
    if until <= start:
        return
    coordinator._last = until
    clients = coordinator._clients
    count = len(clients)
    up = numpy.zeros(count, dtype=bool)
    demand = numpy.zeros(count)
    costs = numpy.zeros((_RESOURCES, count))
    machine_index = numpy.zeros(count, dtype=int)
    machine_slots: dict[int, int] = {}
    capacities: list[list[float]] = []
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
    if machine_slots:
        load = numpy.zeros((_RESOURCES, len(machine_slots)))
        for axis in range(_RESOURCES):
            numpy.add.at(load[axis], machine_index, demand * costs[axis])
        capacity = numpy.array(capacities).T
        with numpy.errstate(over="ignore", divide="ignore"):
            ratio = numpy.where(
                load > 0.0, capacity / numpy.maximum(load, 1e-300), numpy.inf
            )
        scale = numpy.minimum(ratio.min(axis=0), 1.0)
        rates = demand * scale[machine_index]
    else:
        rates = demand
    for i, client in enumerate(clients):
        client._commit(start, until, float(rates[i]), bool(up[i]))
