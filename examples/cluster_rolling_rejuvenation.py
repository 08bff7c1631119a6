#!/usr/bin/env python3
"""Cluster maintenance: warm rolling reboot vs cold vs live migration (§6).

Three replicated web hosts behind a round-robin load balancer (plus a
spare for the migration scheme).  Every host's VMM gets rejuvenated; the
script reports what the cluster's clients saw under each scheme.

Run:  python examples/cluster_rolling_rejuvenation.py
"""

from repro.analysis.report import render_table
from repro.cluster import Cluster, LoadBalancer, MigrationSpec, live_migrate
from repro.control import PlanExecutor, campaign
from repro.simkernel import Simulator
from repro.units import fmt_duration


def run_scheme(scheme: str) -> dict:
    sim = Simulator()
    cluster = Cluster(
        sim,
        size=3,
        vms_per_host=1,
        services=("ssh",),
        spare=(scheme == "migration"),
    )
    sim.run(sim.spawn(cluster.start()))
    balancer = LoadBalancer(sim, lambda: cluster.services("sshd"))

    rejected_at: list[float] = []

    def lb_prober(sim):
        while True:
            try:
                balancer.pick()
            except Exception:
                rejected_at.append(sim.now)
            yield sim.timeout(1.0)

    hosts = {host.name: host for host in cluster.hosts}
    if cluster.spare is not None:
        hosts[cluster.spare.name] = cluster.spare

    def migrate(source: str, target: str, vm: str):
        yield from live_migrate(hosts[source], hosts[target], vm, MigrationSpec())

    # One executor applies every reboot and migration and audits each.
    executor = PlanExecutor(sim, hosts, migrate=migrate)
    probe = sim.spawn(lb_prober(sim))
    start = sim.now
    if scheme == "migration":
        maintenance = campaign(
            executor, cluster.hosts, "cold", spare=cluster.spare
        )
    else:
        maintenance = campaign(executor, cluster.hosts, scheme, settle_s=10)
    sim.run(sim.spawn(maintenance))
    probe.kill()
    return {
        "scheme": scheme,
        "maintenance": sim.now - start,
        "lb_rejections": len(rejected_at),
        "dispatched": balancer.dispatched,
        "hosts": executor.rejuvenations,
    }


def main() -> None:
    print("== cluster-wide VMM rejuvenation, three schemes ==\n")
    results = [run_scheme(s) for s in ("warm", "cold", "migration")]
    print(
        render_table(
            ["scheme", "hosts", "total maintenance", "LB probes refused"],
            [
                (
                    r["scheme"],
                    r["hosts"],
                    fmt_duration(r["maintenance"]),
                    r["lb_rejections"],
                )
                for r in results
            ],
        )
    )
    print(
        "\nWith >= 2 replicas, every scheme keeps the *service* up (the load\n"
        "balancer always finds a live replica); they differ in degraded-\n"
        "capacity time — seconds per host for warm, minutes for cold, and\n"
        "tens of minutes (plus a dedicated spare) for live migration."
    )


if __name__ == "__main__":
    main()
