"""Planted cross-module violations: the cluster side (fixture).

Never imported.  Plants, at stable locations:

* SL011 — a cluster-layer module importing from the application layer;
* the SL013 *sink* (``time.time`` inside ``_jitter``, reached through
  ``rebalance``, which a scenario module spawns) — its local SL001 is
  deliberately suppressed to show suppressing the local rule does not
  mask the reachability finding;
* SL015 — a stale ``skip=SL003`` directive on a line with no finding;
* the frozen ``PlanSpec`` that ``scenario/mutate.py`` violates (SL012)
  and whose private ledger ``experiments/tables.py`` reads (SL014).
"""

import dataclasses
import time

import repro.experiments.layout  # SL011: upward import (cluster -> application)


@dataclasses.dataclass(frozen=True)
class PlanSpec:
    """A frozen placement plan."""

    replicas: int = 1
    _ledger: tuple = ()


def _jitter():
    return time.time()  # simlint: skip=SL001


def rebalance(count):
    total = 0  # simlint: skip=SL003
    for _ in range(count):
        total += _jitter()
    return total


LAYOUT = repro.experiments.layout  # read: only SL011 flags the import
