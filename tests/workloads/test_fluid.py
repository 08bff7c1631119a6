"""Fluid (vectorized) httperf: cross-validation against exact mode.

Exact mode is the semantic reference; the fluid model must agree with it
within the tolerances below on a rolling-rejuvenation scenario, and be
bit-deterministic for a fixed seed.  The tolerances are part of the
model's contract (documented in DESIGN.md, "Fleet tier & fluid
workloads"): the fluid model quantizes reachability to the aggregation
tick and replaces per-request queueing with a closed-loop asymptote, so
it is expected to drift a few percent on throughput — never on the
downtime ledger, which both modes derive from the same retry pacing.
"""

import math

import pytest

from repro.errors import ReproError, ScenarioError
from repro.guest import PageCache
from repro.scenario import ScenarioSpec, run_scenario
from repro.simkernel import Simulator
from repro.units import kib
from repro.workloads.httperf import FluidCoordinator, FluidHttperf

from tests.conftest import build_started_host

THROUGHPUT_RTOL = 0.20
"""Relative tolerance, fluid vs exact, on requests and mean_rate."""

FAILURES_RTOL = 0.15
"""Relative tolerance on retry-paced failure counts during outages."""

DOWNTIME_ATOL_S = 5.0
"""Absolute tolerance (seconds) between the fluid downtime ledger and
exact mode's retry estimate (``failures * retry_interval / concurrency``)."""

AVAILABILITY_ATOL = 0.05
"""Absolute tolerance on the availability fraction."""


def _xval_spec(mode: str, seed: int = 0) -> ScenarioSpec:
    """Two apache hosts under rolling warm rejuvenation, one client each.

    ``sessions`` (fluid) matches ``concurrency`` (exact) so both modes
    model the same closed-loop client population.
    """
    workload = {
        "kind": "httperf",
        "service": "apache",
        "files": 8,
        "file_kib": 512.0,
        "mode": mode,
    }
    if mode == "fluid":
        workload["sessions"] = 8
    else:
        workload["concurrency"] = 8
    return ScenarioSpec.from_dict(
        {
            "name": f"xval-{mode}",
            "seed": seed,
            "hosts": [{"count": 2, "vms": [{"count": 1, "services": ["apache"]}]}],
            "workloads": [workload],
            "maintenance": {"kind": "rolling", "strategy": "warm"},
            "warmup_s": 30.0,
            "observe_s": 120.0,
        }
    )


def _aggregate(report):
    out = {"requests": 0.0, "failures": 0.0, "mean_rate": 0.0}
    for workload in report.workloads:
        for key in out:
            out[key] += workload.metrics[key]
    return out


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def reports(self):
        return run_scenario(_xval_spec("exact")), run_scenario(_xval_spec("fluid"))

    def test_throughput_within_tolerance(self, reports):
        exact, fluid = (_aggregate(r) for r in reports)
        assert fluid["requests"] == pytest.approx(
            exact["requests"], rel=THROUGHPUT_RTOL
        )
        assert fluid["mean_rate"] == pytest.approx(
            exact["mean_rate"], rel=THROUGHPUT_RTOL
        )

    def test_failures_within_tolerance(self, reports):
        exact, fluid = (_aggregate(r) for r in reports)
        assert exact["failures"] > 0  # the rolling reboot must bite
        assert fluid["failures"] == pytest.approx(
            exact["failures"], rel=FAILURES_RTOL
        )

    def test_downtime_matches_exact_retry_estimate(self, reports):
        exact_report, fluid_report = reports
        # Exact mode: each failure is one of `concurrency` workers
        # sleeping retry_interval_s, so wall-clock unreachable time is
        # failures * retry / concurrency.
        exact_downtime = sum(
            w.metrics["failures"] * 0.25 / 8 for w in exact_report.workloads
        )
        fluid_downtime = sum(
            w.metrics["downtime_s"] for w in fluid_report.workloads
        )
        assert fluid_downtime == pytest.approx(
            exact_downtime, abs=DOWNTIME_ATOL_S
        )

    def test_availability_within_tolerance(self, reports):
        exact_report, fluid_report = reports
        span = 150.0  # warmup + observe: both clients run the whole span
        for exact_w, fluid_w in zip(
            exact_report.workloads, fluid_report.workloads
        ):
            exact_avail = 1.0 - (exact_w.metrics["failures"] * 0.25 / 8) / span
            assert fluid_w.metrics["availability"] == pytest.approx(
                exact_avail, abs=AVAILABILITY_ATOL
            )


class TestDeterminism:
    def test_same_seed_identical_reports(self):
        first = run_scenario(_xval_spec("fluid")).to_dict()
        second = run_scenario(_xval_spec("fluid")).to_dict()
        assert first == second  # bit-identical, floats compared with ==

    def test_tick_grid_is_absolute(self, sim):
        # Ticks land on the wall-aligned grid regardless of when the
        # client registered, so serial and sharded runs account the
        # same intervals.
        host = build_started_host(sim, n_vms=1, services=("apache",))
        guest = host.guest("vm0")
        paths = guest.filesystem.create_many("/www", 4, kib(512))
        sim.run(sim.spawn(guest.warm_file_cache(paths)))
        coordinator = FluidCoordinator(sim, tick_s=1.0)
        client = FluidHttperf(
            coordinator, lambda: host.guest("vm0").service("apache"),
            paths, sessions=4,
        )
        sim.run(until=sim.now + 10.0)
        client.stop()
        times = client.tick_log()[0]
        assert times == sorted(times)
        # Every tick boundary except a trailing partial is integral.
        assert all(t == int(t) for t in times[:-1])

    @pytest.mark.parametrize("tick_s", [0.7, 0.1])
    def test_tick_grid_advances_past_rounded_grid_points(self, tick_s):
        # (floor(now / tick) + 1) * tick can round back to now itself
        # (tick_s = 0.7 at t = 2.0999999999999996); the coordinator must
        # still move the clock instead of re-arming zero-delay timeouts.
        # The step bound keeps a stalled grid from hanging the test.
        sim = Simulator()
        coordinator = FluidCoordinator(sim, tick_s=tick_s)
        sim.spawn(coordinator._run())
        for _ in range(1000):
            sim.step()
            if sim.now > 10.0:
                break
        assert sim.now > 10.0


class TestFluidModel:
    @pytest.fixture()
    def web(self, sim):
        host = build_started_host(sim, n_vms=1, services=("apache",))
        guest = host.guest("vm0")
        paths = guest.filesystem.create_many("/www", 8, kib(512))
        return host, guest, paths

    def _client(self, sim, host, paths, warm=True, sessions=8, **kwargs):
        if warm:
            guest = host.guest("vm0")
            sim.run(sim.spawn(guest.warm_file_cache(paths)))
        coordinator = FluidCoordinator(sim, tick_s=1.0)
        return FluidHttperf(
            coordinator, lambda: host.guest("vm0").service("apache"),
            paths, sessions=sessions, **kwargs,
        )

    def test_nic_bound_rate_matches_exact_band(self, sim, web):
        """Cached 512 KiB files are NIC-bound: ~230 req/s on gigabit,
        the same band the exact-mode test asserts."""
        host, _, paths = web
        client = self._client(sim, host, paths)
        sim.run(until=sim.now + 10.0)
        client.stop()
        assert 180 <= client.mean_rate() <= 260
        assert client.total_completed > 1000

    def test_outage_zeroes_rate_and_paces_failures(self, sim, web):
        host, guest, paths = web
        client = self._client(sim, host, paths)
        sim.run(until=sim.now + 3.0)
        sim.run(sim.spawn(guest.run_suspend_handler()))
        down_start = sim.now
        sim.run(until=sim.now + 5.0)
        sim.run(sim.spawn(guest.run_resume_handler()))
        down_end = sim.now
        sim.run(until=sim.now + 3.0)
        client.stop()
        # The fluid model quantizes reachability to whole ticks, so
        # assert over the tick-aligned interior of the outage.
        lo, hi = math.ceil(down_start), math.floor(down_end)
        summary = client.window_summary(lo, hi)
        assert summary["requests"] == 0.0
        assert summary["downtime_s"] == pytest.approx(hi - lo)
        assert summary["failures"] == pytest.approx(
            client.sessions * summary["downtime_s"] / client.retry_interval_s
        )
        assert summary["availability"] == 0.0
        # And it recovered afterwards.
        after = client.window_summary(math.ceil(down_end), sim.now)
        assert after["requests"] > 0.0
        assert after["downtime_s"] == 0.0

    def test_cold_cache_recovers_by_rewarming(self, sim, web):
        """A cache-cold corpus starts disk-bound and climbs back to the
        NIC-bound rate as the modeled misses repopulate the cache."""
        host, _, paths = web
        client = self._client(sim, host, paths, warm=False)
        sim.run(until=sim.now + 30.0)
        client.stop()
        rates = client.tick_log()[2]
        assert rates[0] < rates[-1]
        assert rates[-1] >= 190  # back in the cached, NIC-bound band

    def test_kept_residency_follows_every_byte_count_write(self, sim, web):
        """The kept (corpus, cached) pair is re-read after every write that
        moves a byte count: page-cache invalidate and insert, a file
        resize, and a fresh page cache with an equal generation."""
        host, guest, paths = web
        client = self._client(sim, host, paths)

        def resident():
            kept = client._probe()
            client._residency = None
            assert client._probe()[1:] == kept[1:]
            return client._probe_ctx[2]

        assert resident() == 1.0
        guest.page_cache.invalidate(paths[0])
        assert resident() == 7 / 8
        guest.filesystem.create(paths[1], kib(1024))
        assert resident() == 7 / 9
        guest.page_cache.insert(paths[0], kib(512))
        assert resident() == 8 / 9
        fresh = PageCache(guest.page_cache.capacity_bytes)
        fresh.generation = guest.page_cache.generation
        guest.page_cache = fresh
        assert resident() == 0.0

    def test_window_summary_full_run_consistency(self, sim, web):
        host, _, paths = web
        client = self._client(sim, host, paths)
        sim.run(until=sim.now + 5.0)
        client.stop()
        summary = client.window_summary(0.0, sim.now)
        assert summary["requests"] == pytest.approx(client.total_completed)
        assert summary["failures"] == pytest.approx(client.failures)
        assert summary["downtime_s"] == pytest.approx(client.downtime_s)

    def test_finalize_is_idempotent(self, sim, web):
        host, _, paths = web
        client = self._client(sim, host, paths)
        sim.run(until=sim.now + 2.5)
        client.stop()
        total = client.total_completed
        client.stop()  # second stop: no double accounting
        assert client.total_completed == total

    def test_validation(self, sim, web):
        host, _, paths = web
        coordinator = FluidCoordinator(sim, tick_s=1.0)
        lookup = lambda: host.guest("vm0").service("apache")  # noqa: E731
        with pytest.raises(ReproError):
            FluidHttperf(coordinator, lookup, [], sessions=4)
        with pytest.raises(ReproError):
            FluidHttperf(coordinator, lookup, paths, sessions=0)
        with pytest.raises(ReproError):
            FluidHttperf(coordinator, lookup, paths, sessions=4,
                         retry_interval_s=0.0)


class TestSpecValidation:
    def test_mode_must_be_known(self):
        with pytest.raises(ScenarioError, match="mode"):
            ScenarioSpec.from_dict(
                {"name": "x", "workloads": [{"kind": "httperf", "mode": "warp"}]}
            )

    def test_fluid_only_for_httperf(self):
        with pytest.raises(ScenarioError, match="fluid"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "workloads": [
                        {"kind": "prober", "mode": "fluid"}
                    ],
                }
            )

    def test_sessions_and_tick_validated(self):
        with pytest.raises(ScenarioError, match="sessions"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "workloads": [
                        {"kind": "httperf", "mode": "fluid", "sessions": 0}
                    ],
                }
            )
        with pytest.raises(ScenarioError, match="tick_s"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "workloads": [
                        {"kind": "httperf", "mode": "fluid", "tick_s": 0.0}
                    ],
                }
            )

    def test_mixed_tick_lengths_rejected_at_build(self):
        with pytest.raises(ScenarioError, match="tick"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "hosts": [
                        {"count": 1, "vms": [{"count": 2, "services": ["apache"]}]}
                    ],
                    "workloads": [
                        {"kind": "httperf", "vm": "vm00", "mode": "fluid",
                         "tick_s": 1.0},
                        {"kind": "httperf", "vm": "vm01", "mode": "fluid",
                         "tick_s": 2.0},
                    ],
                }
            )
