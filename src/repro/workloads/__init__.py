"""Client workloads: httperf-style HTTP load, downtime probing, file reads.

These reproduce the paper's measurement methodology: request completion
times binned into throughput (Fig. 7), packet probing for downtime
(§5.3), and timed first/second file accesses (Fig. 8).
"""

from repro.workloads.fileread import (
    ReadMeasurement,
    degradation,
    first_and_second_read,
    timed_read,
)
from repro.workloads.httperf import Httperf
from repro.workloads.prober import PingProber, ProbedOutage

__all__ = [
    "Httperf",
    "PingProber",
    "ProbedOutage",
    "ReadMeasurement",
    "degradation",
    "first_and_second_read",
    "timed_read",
]
