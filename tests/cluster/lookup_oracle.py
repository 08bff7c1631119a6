"""The one-entry-cache cluster lookup: the test oracle for the service index.

This is the per-VM resolver ``ScenarioBuilder._lookup`` returned for a
cluster before :meth:`~repro.cluster.Cluster.replica` answered from an
index.  It keeps its last hit while that hit stays reachable and still
belongs to the VM, and on a miss scans :meth:`~repro.cluster.Cluster
.services` host by host, which walks every host's domain list.
``test_service_index.py`` wraps every lookup a scenario makes and diffs
the indexed resolver against this one, call for call, errors included.
"""

from __future__ import annotations

import typing

from repro.errors import ReproError


def reference_lookup(
    cluster: typing.Any, vm_name: str, service: str
) -> typing.Callable[[], typing.Any]:
    """The scan-based resolver for ``service`` on VM ``vm_name``."""
    cache: list[typing.Any] = [None]

    def cluster_lookup() -> typing.Any:
        cached = cache[0]
        if (
            cached is not None
            and cached.reachable
            and cached.guest.name == vm_name
        ):
            return cached
        for candidate in cluster.services(service):
            if candidate.guest is not None and candidate.guest.name == vm_name:
                cache[0] = candidate
                return candidate
        raise ReproError(f"{vm_name} has no live {service} replica")

    return cluster_lookup
