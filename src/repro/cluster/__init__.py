"""Cluster environment: load balancing and live migration (§6).

The §6 analysis: how the warm-VM reboot compares, at cluster level, to
cold reboots and to live-migration-based maintenance with a spare host.
The rejuvenation passes themselves are :func:`repro.control.campaign`.
"""

from repro.cluster.cluster import Cluster, LoadBalancer
from repro.cluster.migration import MigrationSpec, live_migrate

__all__ = [
    "Cluster",
    "LoadBalancer",
    "MigrationSpec",
    "live_migrate",
]
