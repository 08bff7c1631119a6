"""One planted simlint violation per rule, in rule order.

This file is a test fixture — it is linted by tests/devtools/test_simlint.py
and must keep exactly one violation of each rule at a stable location.  It
is never imported or executed.
"""

import heapq
import random
import time


def wall_clock_timestamp():
    return time.time()  # SL001: host clock read in simulation code


def unseeded_delay():
    return random.random()  # SL002: global-state RNG


def visit_hosts():
    visited = []
    for host in {"host0", "host1", "host2"}:  # SL003: set iteration order
        visited.append(host)
    return visited


def sneak_past_tiebreaker(sim, entry):
    heapq.heappush(sim._heap, entry)  # SL004: direct heap mutation


def check_capacity(capacity):
    assert capacity > 0  # SL005: vanishes under python -O


def record_boot(sim):
    sim.trace.record("vmm.boot.start")  # SL006: missing vmm_generation


def open_unregistered_span(sim, host):
    with sim.spans.span("reboot.sneaky", actor=host):  # SL008: not in SPAN_NAMES
        pass


def poke_backend_internals(sim):
    return sim.backend._run  # SL009: backend-private attr outside simkernel


def poke_shard_internals(fleet):
    return fleet._clients  # SL010: fleet/shard-private attr outside repro/fleet


import json  # SL016: module-level import that nothing reads
