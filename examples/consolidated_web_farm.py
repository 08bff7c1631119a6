#!/usr/bin/env python3
"""A consolidated web farm under live load, rebooted warm vs cold.

Eleven VMs on one host: one Apache VM serving a cached corpus to an
httperf-style client, the rest running JBoss application servers — the
heavyweight-service scenario from the paper's introduction.  The VMM is
rejuvenated mid-traffic and the script shows the throughput timeline, the
TCP session fate, and the post-reboot cache behaviour.

Run:  python examples/consolidated_web_farm.py
"""

from repro.analysis.timeline import AnnotatedTimeline, bucketize
from repro.core import RootHammer, VMSpec
from repro.guest.tcp import TcpSession
from repro.units import fmt_duration, gib, kib
from repro.workloads import Httperf


def build_farm() -> RootHammer:
    specs = [VMSpec("web", memory_bytes=gib(1), services=("apache",))]
    specs += [
        VMSpec(f"app{i}", memory_bytes=gib(1), services=("jboss",))
        for i in range(10)
    ]
    return RootHammer.started(vms=specs)


def run_scenario(strategy: str) -> None:
    controller = build_farm()
    web = controller.guest("web")
    paths = web.filesystem.create_many("/www", 150, kib(512))
    controller.run_process(web.warm_file_cache(paths))

    client = Httperf(
        controller.sim,
        lambda: controller.guest("web").service("apache"),
        paths,
        concurrency=4,
        name=f"farm-{strategy}",
    ).start()
    session = TcpSession(
        controller.sim,
        controller.guest("app0").service("jboss"),
        client_timeout_s=60,
        name="app0-client",
    )

    base = controller.now
    controller.run_for(20)
    report = controller.rejuvenate(strategy)
    cache_right_after = controller.guest("web").page_cache.used_bytes
    controller.run_for(90)
    client.stop()

    series = bucketize(
        [t - base for t in client.completion_times],
        bucket_s=2.0,
        start=0.0,
        end=report.finished - base + 90,
    )
    timeline = AnnotatedTimeline(
        series, [(p.name, p.start - base, p.end - base) for p in report.phases]
    )
    summary = controller.downtime_summary(since=base)

    print(f"--- {strategy}-VM reboot under load ---")
    print(timeline.render())
    print(f"  mean downtime across the farm : {fmt_duration(summary.mean)}")
    print(f"  JBoss TCP session             : {session.state.value}")
    print(f"  web cache right after reboot  : "
          f"{cache_right_after // kib(1)} KiB resident")
    session.close()
    print()


def main() -> None:
    print("== consolidated web farm: warm vs cold rejuvenation ==\n")
    for strategy in ("warm", "cold"):
        run_scenario(strategy)


if __name__ == "__main__":
    main()
