"""The generator-based window queries: the test oracle for the one-pass ones.

These are :class:`~repro.workloads.httperf.FluidHttperf`'s window queries
as they were before they shared one left-to-right pass: each query steps
an ``_overlaps`` generator over the client's tick log and folds it, so
``window_summary`` walks the log five times.  ``requests``,
``failures_in`` and ``downtime`` folded with ``sum``; here that fold is
written out as what ``sum`` computed on Python 3.10 and 3.11 (start at
the integer 0, ``+=`` in tick order), because from 3.12 on ``sum`` adds
floats with compensation and would give other bits on other
interpreters.  They read the five columns of ``tick_log()``.
``test_window_queries.py`` compares the one-pass queries against these
by ``float.hex`` on random tick logs and windows.
"""

from __future__ import annotations

import typing
from bisect import bisect_left

INF = float("inf")


def overlaps(client: typing.Any, since: float, until: float):
    """(row index, overlap seconds) for ticks intersecting a window."""
    ticks, dts, _, _, _ = client.tick_log()
    lo = bisect_left(ticks, since)
    for i in range(lo, len(ticks)):
        end = ticks[i]
        start = end - dts[i]
        if start >= until:
            return
        overlap = min(end, until) - max(start, since)
        if overlap > 0:
            yield i, overlap


def requests(client: typing.Any, since: float = -INF, until: float = INF) -> float:
    rates = client.tick_log()[2]
    total = 0
    for i, ov in overlaps(client, since, until):
        total += rates[i] * ov
    return total


def failures_in(
    client: typing.Any, since: float = -INF, until: float = INF
) -> float:
    fails = client.tick_log()[3]
    total = 0
    for i, ov in overlaps(client, since, until):
        total += fails[i] * ov
    return total


def downtime(client: typing.Any, since: float = -INF, until: float = INF) -> float:
    ups = client.tick_log()[4]
    total = 0
    for i, ov in overlaps(client, since, until):
        if not ups[i]:
            total += ov
    return total


def availability(
    client: typing.Any, since: float = -INF, until: float = INF
) -> float:
    ups = client.tick_log()[4]
    total = 0.0
    down = 0.0
    for i, overlap in overlaps(client, since, until):
        total += overlap
        if not ups[i]:
            down += overlap
    return 1.0 - down / total if total > 0 else 1.0


def mean_rate(client: typing.Any, since: float = -INF, until: float = INF) -> float:
    rates = client.tick_log()[2]
    total = 0.0
    done = 0.0
    for i, overlap in overlaps(client, since, until):
        total += overlap
        done += rates[i] * overlap
    return done / total if total > 0 else 0.0


def window_summary(
    client: typing.Any, since: float, until: float
) -> dict[str, float]:
    return {
        "requests": requests(client, since, until),
        "failures": failures_in(client, since, until),
        "mean_rate": mean_rate(client, since, until),
        "downtime_s": downtime(client, since, until),
        "availability": availability(client, since, until),
    }
