"""Figure 9 / §6: total cluster throughput under three maintenance schemes.

A cluster of m hosts serves one replicated web service.  During
rejuvenation of one host the total drops to (m-1)p; the schemes differ in
how long the dip lasts and what follows it:

* **warm** rolling reboot — dip of ~42 s per host, full recovery;
* **cold** rolling reboot — dip of ~4 minutes per host, then a further
  (m-δ)p period of cache-miss degradation (δ ≈ 0.69 in §5.5);
* **live migration** with a spare — no dip at all, but the spare's
  capacity is reserved permanently (steady state (m-1)p of an (m+1)-host
  fleet) and each host's maintenance takes tens of minutes of migration.

The runner measures per-host and total request-rate series and extracts
those three signatures.
"""

from __future__ import annotations

import typing

from repro.analysis.report import ComparisonRow, render_table
from repro.analysis.timeline import (
    bucketize,
    mean_rate,
    sum_series,
    zero_intervals,
)
from repro.experiments.common import ExperimentResult
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.spec import (
    HostSpec,
    MaintenanceSpec,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
)
from repro.units import kib

_FILES_PER_HOST = 30
_FILE_BYTES = 2 * 1024 * kib(1)
_BUCKET_S = 5.0
_SIZE = 3
_SCHEMES = ("warm", "cold", "migration")


def _scenario(scheme: str, size: int, settle_s: float) -> ScenarioSpec:
    """The Figure 9 setup as a declarative spec: ``size`` hosts each
    serving one apache VM, a per-host httperf stream, and the requested
    maintenance scheme (migration reserves a spare)."""
    if scheme == "migration":
        maintenance = MaintenanceSpec(kind="migration", strategy="cold")
    else:
        maintenance = MaintenanceSpec(
            kind="rolling", strategy=scheme, settle_s=settle_s
        )
    return ScenarioSpec(
        name=f"fig9-{scheme}",
        hosts=(HostSpec(count=size, vms=(VMSpec(services=("apache",)),)),),
        spare=(scheme == "migration"),
        workloads=(
            WorkloadSpec(
                kind="httperf",
                directory="/www/{host}",
                files=_FILES_PER_HOST,
                file_kib=_FILE_BYTES / kib(1),
                concurrency=2,
            ),
        ),
        maintenance=maintenance,
    )


def _cluster_run(
    scheme: str, size: int = 3, settle_s: float = 30.0
) -> dict[str, typing.Any]:
    """Run one maintenance scheme over a fresh cluster; return series."""
    built = ScenarioBuilder(_scenario(scheme, size, settle_s)).build()
    sim = built.sim
    clients = [attached.client for attached in built.workloads]

    workload_start = sim.now
    warmup = 40.0
    sim.run(until=sim.now + warmup)
    maintenance_start = sim.now
    executor = built.executor()
    sim.run(sim.spawn(built.campaign(executor)))
    maintenance_end = sim.now
    sim.run(until=sim.now + 120)
    for client in clients:
        client.stop()

    # Bucket only from where the workload is in steady state, so a zero
    # bucket really means an outage.
    series_start = workload_start + 10.0
    per_host = [
        bucketize(
            client.completion_times,
            _BUCKET_S,
            start=series_start,
            end=maintenance_end + 110,
        )
        for client in clients
    ]
    total = sum_series(per_host)
    baseline = sum(
        client.mean_rate(
            since=maintenance_start - warmup * 0.75,
            until=maintenance_start - warmup * 0.1,
        )
        for client in clients
    )
    dips = [zero_intervals(series, _BUCKET_S) for series in per_host]
    # The first host's window: the pass starts on it the moment
    # maintenance starts, and the audit stamps its reboot's end.
    first_reboot_end = next(
        entry["time"]
        for entry in executor.audit
        if entry["action"].startswith("rejuvenate-")
    )
    return {
        "scheme": scheme,
        "total": total,
        "per_host": per_host,
        "baseline": baseline,
        "maintenance": (maintenance_start, maintenance_end),
        "per_host_outages": dips,
        "audit": executor.audit,
        "first_window": (maintenance_start, first_reboot_end),
    }


def cells(full: bool = False) -> list[tuple[tuple, str, dict]]:
    """Independent measurement cells for the parallel/serial runners."""
    return [
        ((scheme,), "_cluster_run", {"scheme": scheme, "size": _SIZE})
        for scheme in _SCHEMES
    ]


def assemble(
    full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    """Fold the per-scheme timeline payloads into the Figure 9 result."""
    result = ExperimentResult(
        "FIG9", "cluster total throughput during rolling rejuvenation"
    )
    size = _SIZE
    runs = {scheme: payloads[(scheme,)] for scheme in _SCHEMES}

    rows = []
    for scheme, data in runs.items():
        outage_total = sum(
            end - start
            for host_outages in data["per_host_outages"]
            for start, end in host_outages
        )
        duration = data["maintenance"][1] - data["maintenance"][0]
        rows.append((scheme, data["baseline"], outage_total, duration))
    result.tables.append(
        render_table(
            ["scheme", "baseline req/s", "total host-outage s", "maintenance s"],
            rows,
        )
    )
    result.data["runs"] = {
        scheme: {k: v for k, v in data.items()} for scheme, data in runs.items()
    }

    def per_host_outage(scheme: str) -> float:
        return sum(
            end - start
            for ho in runs[scheme]["per_host_outages"]
            for start, end in ho
        ) / size

    # Total throughput during the first host's rejuvenation relative to
    # the steady baseline: Figure 9's (m-1)p plateau.
    warm_run = runs["warm"]
    window = warm_run["first_window"]
    during = mean_rate(warm_run["total"], since=window[0], until=window[1])
    dip_fraction = during / warm_run["baseline"]

    maintenance_per_host = {
        scheme: (data["maintenance"][1] - data["maintenance"][0]) / size
        for scheme, data in runs.items()
    }
    result.rows = [
        # With 1 GiB VMs (not the paper's full 11 GiB load) the absolute
        # outages shrink; the paper values below are its 1-VM Figure 6
        # points, which match this cluster's per-host configuration.
        ComparisonRow("warm: per-host outage", 42.0, per_host_outage("warm"),
                      "s", tolerance=0.5),
        ComparisonRow("cold: per-host outage", 125.0, per_host_outage("cold"),
                      "s", tolerance=0.5),
        ComparisonRow(
            "migration: guest outage (stop-and-copy only)", 0.0,
            per_host_outage("migration"), "s", tolerance=0.01,
        ),
        ComparisonRow(
            "total throughput during warm reboot / baseline",
            (size - 1) / size,
            dip_fraction,
            "x",
            tolerance=0.15,
        ),
        ComparisonRow(
            "migration maintenance much longer than warm (1=yes)",
            1.0,
            1.0
            if maintenance_per_host["migration"] > 2 * maintenance_per_host["warm"]
            else 0.0,
            "",
            tolerance=0.01,
        ),
    ]
    return result
