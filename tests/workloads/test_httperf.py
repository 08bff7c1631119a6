"""Unit tests for the httperf-like workload generator."""

import collections

import pytest

from repro.analysis.timeline import bucketize
from repro.errors import ReproError
from repro.experiments.common import build_testbed
from repro.units import kib
from repro.workloads import Httperf

from tests.conftest import build_started_host


@pytest.fixture()
def web_host(sim):
    host = build_started_host(sim, n_vms=1, services=("apache",))
    guest = host.guest("vm0")
    paths = guest.filesystem.create_many("/www", 20, kib(512))
    sim.run(sim.spawn(guest.warm_file_cache(paths)))
    return host, paths


def make_client(sim, host, paths, **kwargs):
    return Httperf(
        sim, lambda: host.guest("vm0").service("apache"), paths, **kwargs
    )


class TestValidation:
    def test_needs_paths(self, sim, web_host):
        host, _ = web_host
        with pytest.raises(ReproError):
            make_client(sim, host, [])

    def test_needs_concurrency(self, sim, web_host):
        host, paths = web_host
        with pytest.raises(ReproError):
            make_client(sim, host, paths, concurrency=0)

    def test_double_start_rejected(self, sim, web_host):
        host, paths = web_host
        client = make_client(sim, host, paths).start()
        with pytest.raises(ReproError):
            client.start()
        client.stop()


class TestServing:
    def test_completions_accumulate(self, sim, web_host):
        host, paths = web_host
        client = make_client(sim, host, paths, concurrency=2).start()
        sim.run(until=sim.now + 5)
        client.stop()
        times = client.completion_times
        assert len(times) > 5
        assert times == sorted(times)

    def test_each_path_once_terminates(self, sim, web_host):
        host, paths = web_host
        service = host.guest("vm0").service("apache")
        requested = []

        class Recording:
            """Looks up the real service and records each path asked."""

            def handle_request(self, path):
                requested.append(path)
                return service.handle_request(path=path)

        recorder = Recording()
        client = Httperf(
            sim, lambda: recorder, paths, concurrency=4, each_path_once=True
        ).start()
        sim.run(client.wait())
        assert sorted(requested) == sorted(paths)
        assert len(client.completion_times) == len(paths)
        assert client.wait().triggered

    def test_nic_bound_rate(self, sim, web_host):
        """Cached 512 KiB files are NIC-bound: ~228 req/s on gigabit."""
        host, paths = web_host
        client = make_client(sim, host, paths, concurrency=4).start()
        sim.run(until=sim.now + 10)
        client.stop()
        assert 180 <= client.mean_rate() <= 260

    def test_failures_counted_during_outage(self, sim, web_host):
        host, paths = web_host
        guest = host.guest("vm0")
        client = make_client(sim, host, paths, concurrency=2).start()
        sim.run(until=sim.now + 2)
        sim.run(sim.spawn(guest.run_suspend_handler()))
        sim.run(until=sim.now + 5)
        assert client.failures > 0
        sim.run(sim.spawn(guest.run_resume_handler()))
        count_at_resume = len(client.completion_times)
        sim.run(until=sim.now + 2)
        client.stop()
        assert len(client.completion_times) > count_at_resume  # recovered

    def test_mean_rate_empty_window(self, sim, web_host):
        host, paths = web_host
        client = make_client(sim, host, paths)
        assert client.mean_rate() == 0.0

    def test_throughput_timeline_windows(self, sim, web_host):
        """Figure 7's series: completion times binned per window."""
        host, paths = web_host
        start = sim.now
        client = make_client(sim, host, paths, concurrency=2).start()
        sim.run(until=sim.now + 10)
        client.stop()
        timeline = bucketize(client.completion_times, 1.0, start=start)
        assert len(timeline) >= 9
        assert all(rate > 0 for _, rate in timeline[:-1])
        assert sum(rate for _, rate in timeline) == len(client.completion_times)
        times = [t for t, _ in timeline]
        assert times == sorted(times)


class TestLockstep:
    """The exact client's workers start at one instant on requests of
    equal size, and a processor-sharing stage finishes equal jobs that
    arrived together at one instant: so the workers move through CPU,
    membus and NIC as one batch for the whole run.  Pinned so that any
    change to it (a model change, which moves FIG7's and FIG8's rows)
    shows here first."""

    @pytest.mark.parametrize(
        ("concurrency", "instants", "rate"),
        [(1, 1918, 191.8), (2, 997, 199.4), (4, 509, 203.6)],
    )
    def test_every_completion_instant_holds_one_batch(
        self, concurrency, instants, rate
    ):
        controller = build_testbed(1, services=("apache",))
        guest = controller.guest("vm00")
        paths = guest.filesystem.create_many("/www", 8, kib(512))
        controller.run_process(guest.warm_file_cache(paths))
        client = Httperf(
            controller.sim,
            lambda: controller.host.guest("vm00").service("apache"),
            paths,
            concurrency=concurrency,
        ).start()
        controller.run_for(10.0)
        client.stop()
        batches = collections.Counter(client.completion_times)
        assert set(batches.values()) == {concurrency}
        assert len(batches) == instants
        assert len(client.completion_times) / 10.0 == pytest.approx(rate)
