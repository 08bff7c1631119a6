"""Quiet fluid ticks and shared tick rows: a differential test.

:class:`~repro.workloads.httperf.FluidCoordinator` serves a quiet tick
(nothing but its own timeout left the scheduler since the last one) from
the previous solve instead of probing every client again, and keeps one
set of tick rows that every client reads.  Each case below runs twice:
once with the per-tick path from ``fluid_oracle.py`` patched in (a solve
every tick, committed into a per-client tick log), once as shipped.
Every client's ``tick_log()`` against the oracle's log, its totals,
observation-window summary and (metrics on) its two ``fluid.*`` counter
series must agree bit for bit.  Where a case has quiet stretches, the
shipped coordinator must also have probed less, so the reuse path really
ran; a sanitized coordinator solves every tick and must find no kept
pair stale.  A hypothesis property does the same over random tick
scripts, and another compares the plain-float waterfill with the numpy
solve it replaced.
"""

import itertools
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ReproError
from repro.fleet import run_fleet_shard
from repro.scenario import ScenarioBuilder
from repro.simkernel import Simulator
from repro.simkernel.sanitizer import DeterminismWarning
from repro.units import kib
from repro.workloads.httperf import FluidCoordinator, FluidHttperf, waterfill

from tests.conftest import build_started_host
from tests.fleet.test_fleet import _fleet
from tests.workloads.fluid_oracle import numpy_waterfill, reference_account, view

SERIES = ("fluid.completed_requests", "fluid.failed_requests")


def _bits(value):
    """``value`` with every float replaced by its exact hex spelling."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _record(sim, clients, since, until):
    record = []
    for client in clients:
        log = view(client)
        record.append({
            "ticks": list(log.tick_log()),
            "totals": [log.total_completed, log.failures, log.downtime_s],
            "window": log.window_summary(since, until),
        })
    if sim.metrics.enabled:
        series = sim.metrics.series_snapshot()
        record.append({name: series[name] for name in SERIES})
    return _bits(record)


def _observe(case):
    """Run ``case``; return its record, its probe count and its simulator."""
    probes = [0]
    probe = FluidHttperf._probe

    def counted(client):
        probes[0] += 1
        return probe(client)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FluidHttperf, "_probe", counted)
        sim, clients, (since, until) = case()
    return _record(sim, clients, since, until), probes[0], sim


def _check(case, quiet=True):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FluidCoordinator, "_account", reference_account)
        expected, oracle_probes, _ = _observe(case)
    got, probes, sim = _observe(case)
    assert got == expected
    if sim.sanitizer is not None:
        assert probes == oracle_probes  # a sanitized coordinator always solves
        assert not sim.sanitizer.reports
    elif quiet:
        assert probes < oracle_probes


# -- rolling fleets ------------------------------------------------------------


def _shard(strategy):
    """One 4-host fleet shard with telemetry, rebooting two hosts an epoch."""
    spec = _fleet(strategy=strategy, shards=1, telemetry=True)
    (plan,) = spec.shard_plans()
    built = []
    build = ScenarioBuilder.build

    def recording(builder):
        built.append(build(builder))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScenarioBuilder, "build", recording)
        run_fleet_shard(plan)
    (scenario,) = built
    clients = [attached.client for attached in scenario.workloads]
    return scenario.sim, clients, (spec.warmup_s, spec.warmup_s + spec.observe_s)


@pytest.mark.parametrize("strategy", ["warm", "cold", "saved"])
def test_rolling_fleet(strategy):
    _check(lambda: _shard(strategy))


def test_cold_fleet_rewarms_its_caches():
    _, clients, _ = _shard("cold")
    assert any(client._warm_cursor > 0 for client in clients)


# -- one host ------------------------------------------------------------------


def _host(sim, vms=1):
    host = build_started_host(sim, n_vms=vms, services=("apache",))
    paths = []
    for i in range(vms):
        guest = host.guest(f"vm{i}")
        paths.append(guest.filesystem.create_many("/www", 8, kib(512)))
        sim.run(sim.spawn(guest.warm_file_cache(paths[-1])))
    return host, paths


def _client(coordinator, host, vm, paths, sessions=8, lookup=None):
    if lookup is None:
        lookup = lambda: host.guest(vm).service("apache")  # noqa: E731
    return FluidHttperf(
        coordinator, lookup, paths, sessions=sessions, name=f"fluid-{vm}"
    )


def _after(sim, delay, action):
    def run():
        yield sim.timeout(delay)
        result = action()
        if result is not None:
            yield from result

    sim.spawn(run())


def _slump():
    """A warm reboot resumes two VMs, so the NIC slumps for a while."""
    sim = Simulator(metrics=True)
    host, paths = _host(sim, vms=2)
    start = sim.now
    client = _client(FluidCoordinator(sim), host, "vm0", paths[0])
    _after(sim, 5.0, lambda: host.reboot("warm"))
    sim.run(until=start + 90.0)
    client.stop()
    slumps = sim.trace.select("host.quirk.slump.start", since=start)
    assert slumps, "the reboot should have slumped the NIC"
    return sim, [client], (start, sim.now)


def _shared():
    """Two clients on one machine: the waterfill scales both down."""
    sim = Simulator(metrics=True)
    host, paths = _host(sim, vms=2)
    start = sim.now
    coordinator = FluidCoordinator(sim)
    clients = [
        _client(coordinator, host, f"vm{i}", paths[i], sessions=64)
        for i in range(2)
    ]
    sim.run(until=start + 20.0)
    for client in clients:
        demand = client._probe()[1]
        assert max(view(client).tick_log()[2]) < demand  # scale below 1
    clients[0].stop()
    return sim, clients, (start, sim.now)


def _raising():
    """One lookup raises while a timer-set flag is up, one always raises."""
    sim = Simulator(metrics=True)
    host, paths = _host(sim)
    start = sim.now
    coordinator = FluidCoordinator(sim)
    gone = [False]

    def flaky():
        if gone[0]:
            raise ReproError("no replica")
        return host.guest("vm0").service("apache")

    def missing():
        raise ReproError("never placed")

    sim.call_at(start + 10.5, lambda: gone.__setitem__(0, True))
    sim.call_at(start + 20.5, lambda: gone.__setitem__(0, False))
    clients = [
        _client(coordinator, host, "vm0", paths[0], lookup=flaky),
        _client(coordinator, host, "vm0", paths[0], lookup=missing),
    ]
    sim.run(until=start + 30.0)
    coordinator.finalize()
    assert (
        view(clients[0]).downtime_s > 0
        and view(clients[1]).total_completed == 0
    )
    return sim, clients, (start, sim.now)


def _late_register():
    """A second client registers from a process, mid-run."""
    sim = Simulator(metrics=True)
    host, paths = _host(sim, vms=2)
    start = sim.now
    coordinator = FluidCoordinator(sim)
    clients = [_client(coordinator, host, "vm0", paths[0])]
    _after(
        sim, 10.5,
        lambda: clients.append(_client(coordinator, host, "vm1", paths[1])),
    )
    sim.run(until=start + 30.0)
    coordinator.finalize()
    assert view(clients[1]).tick_log()[0][0] == math.ceil(start + 10.5)
    return sim, clients, (start, sim.now)


def _between_runs():
    """The NIC goes down and up by direct calls between ``run`` calls."""
    sim = Simulator(metrics=True)
    host, paths = _host(sim)
    start = sim.now
    client = _client(FluidCoordinator(sim), host, "vm0", paths[0])
    nic = host.machine.nic
    sim.run(until=start + 10.5)
    nic.bring_down()
    sim.run(until=start + 20.0)
    nic.bring_up()
    sim.run(until=start + 30.0)
    client.stop()
    assert view(client).downtime_s > 0
    return sim, [client], (start, sim.now)


def _between_steps():
    """The same direct calls, between ``step`` calls."""
    sim = Simulator(metrics=True)
    host, paths = _host(sim)
    start = sim.now
    client = _client(FluidCoordinator(sim), host, "vm0", paths[0])
    nic = host.machine.nic

    def step_to(until):
        for _ in range(10_000):
            if sim.peek() > until:
                return
            sim.step()
        raise AssertionError("the clock stalled")

    step_to(start + 10.5)
    nic.bring_down()
    step_to(start + 20.0)
    nic.bring_up()
    step_to(start + 30.0)
    client.stop()
    assert view(client).downtime_s > 0
    return sim, [client], (start, sim.now)


def _finalize_after_call():
    """``finalize`` right after a direct call: the trailing tick is down."""
    sim = Simulator(metrics=True)
    host, paths = _host(sim)
    start = sim.now
    client = _client(FluidCoordinator(sim), host, "vm0", paths[0])
    sim.run(until=start + 10.5)
    host.machine.nic.bring_down()
    client.stop()
    assert view(client).tick_log()[4][-1] is False
    return sim, [client], (start, sim.now)


@pytest.mark.parametrize(
    "case, quiet",
    [
        pytest.param(_slump, True, id="nic-slump"),
        pytest.param(_shared, True, id="shared-machine"),
        pytest.param(_raising, True, id="lookup-raises"),
        pytest.param(_late_register, True, id="late-register"),
        pytest.param(_between_runs, True, id="call-between-runs"),
        pytest.param(_between_steps, False, id="call-between-steps"),
        pytest.param(_finalize_after_call, True, id="finalize-after-call"),
    ],
)
def test_one_host(case, quiet):
    _check(case, quiet)


# -- tick scripts --------------------------------------------------------------

_OPS = st.one_of(
    # run(until=...) to a whole second k ahead, or half a second past it
    st.tuples(st.just("run"), st.integers(1, 8), st.booleans()),
    st.tuples(st.just("step"), st.integers(1, 4)),
    st.tuples(st.just("nic"), st.booleans()),
    # a page-cache eviction: the next solve re-warms, and keeps nothing
    st.tuples(st.just("evict"), st.integers(0, 7)),
    st.tuples(st.just("register"), st.integers(0, 1)),
    st.tuples(
        st.just("read"),
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=40.0),
    ),
    st.tuples(st.just("finalize")),
)


def _script(ops, metrics, sanitize=None):
    """Run ``ops`` between calls into one host's simulator.

    Returns what the reads saw (each client's totals and one window
    summary, mid-run), the final record and the simulator.
    """
    sim = Simulator(metrics=metrics, sanitize=sanitize)
    host, paths = _host(sim, vms=2)
    start = sim.now
    coordinator = FluidCoordinator(sim)
    clients = [_client(coordinator, host, "vm0", paths[0])]
    nic = host.machine.nic
    reads = []
    for op, *args in ops:
        if op == "run":
            ahead, off_grid = args
            sim.run(until=math.floor(sim.now) + ahead + (0.5 if off_grid else 0))
        elif op == "step":
            for _ in range(args[0]):
                if sim.peek() == math.inf:
                    break
                sim.step()
        elif op == "nic":
            if args[0]:
                nic.bring_up()
            else:
                nic.bring_down()
        elif op == "evict":
            host.guest("vm0").page_cache.invalidate(paths[0][args[0]])
        elif op == "register":
            if not coordinator._stopped:
                vm = args[0]
                clients.append(_client(coordinator, host, f"vm{vm}", paths[vm]))
        elif op == "read":
            since, length = args
            for client in clients:
                log = view(client)
                reads.append([
                    log.total_completed, log.failures, log.downtime_s,
                    log.window_summary(start + since, start + since + length),
                ])
        else:
            coordinator.finalize()
    return _bits(reads), _record(sim, clients, start, sim.now), sim


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=12), metrics=st.booleans())
@example(  # a late client's first row is clipped at its registration
    ops=[("run", 2, True), ("register", 1), ("run", 3, False),
         ("read", 0.0, 40.0), ("finalize",)],
    metrics=True,
)
@example(
    ops=[("step", 2), ("nic", False), ("step", 3), ("read", 0.0, 40.0),
         ("nic", True), ("evict", 3), ("run", 4, True), ("read", 1.0, 5.0),
         ("run", 2, False), ("finalize",), ("read", 0.0, 40.0)],
    metrics=False,
)
def test_tick_scripts_match_the_oracle(ops, metrics):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FluidCoordinator, "_account", reference_account)
        *expected, _ = _script(ops, metrics)
    *got, _ = _script(ops, metrics)
    assert got == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeterminismWarning)
        *sanitized, sim = _script(ops, metrics, sanitize=True)
    assert sanitized == expected
    assert not sim.sanitizer.reports


# -- the waterfill against the numpy solve ---------------------------------------

# A cost of 5e-324 or 1e-301 makes a load below 1e-300; 0.0 leaves an
# axis unloaded.
_COST = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-301]),
    st.floats(min_value=0.0, max_value=1e9),
)
_CAPACITY = st.one_of(
    st.integers(min_value=0, max_value=2**40),
    st.floats(min_value=0.0, max_value=1e12),
)
_PROBE = st.one_of(
    st.none(),  # a down client
    st.tuples(
        st.sampled_from("abcd"),  # its machine
        st.floats(min_value=1e-3, max_value=1e6),  # its demand
        st.lists(_COST, min_size=4, max_size=4),
    ),
)


def _solve_inputs(clients, machines):
    """``waterfill``'s arguments, machine slots in first-seen order as
    ``FluidCoordinator._solve`` numbers them."""
    slots: dict[str, int] = {}
    probes = []
    for probe in clients:
        if probe is None:
            probes.append(None)
            continue
        machine, demand, costs = probe
        slot = slots.setdefault(machine, len(slots))
        probes.append((slot, demand, costs))
    return probes, [machines[machine] for machine in slots]


@settings(max_examples=300, deadline=None)
@given(
    clients=st.lists(_PROBE, max_size=8),
    machines=st.fixed_dictionaries(
        {m: st.lists(_CAPACITY, min_size=4, max_size=4) for m in "abcd"}
    ),
)
@example(  # no reachable machine
    clients=[None, None], machines={m: [1.0] * 4 for m in "abcd"}
)
@example(  # down clients between clients that share machines, seen b, a
    clients=[None, ("b", 300.0, [2e-4, 1e6, 0.0, 5e5]),
             ("a", 50.0, [1e-3, 0.0, 0.0, 5e5]), None,
             ("b", 700.0, [2e-4, 1e6, 0.0, 5e5])],
    machines={"a": [2, 4e9, 8e7, 1.25e8], "b": [2.0, 4e9, 8e7, 1.25e8],
              "c": [0] * 4, "d": [0] * 4},
)
@example(  # a machine's load adds in client order (reversed, it differs)
    clients=[("a", 1.0, [1.0, 0.0, 0.0, 0.0]), ("a", 1.0, [1e-16, 0.0, 0.0, 0.0]),
             ("a", 1.0, [1e-16, 0.0, 0.0, 0.0])],
    machines={m: [0.5, 1, 1, 1] for m in "abcd"},
)
@example(  # loads below 1e-300 (on c's third axis, the least ratio),
    # integer capacities, and zero capacities on d's unloaded axes
    clients=[("c", 1.0, [5e-324, 1e-301, 1e-301, 0.0]),
             ("d", 2.0, [0.0, 1e-3, 0.0, 1.0]),
             ("c", 2.0, [5e-324, 0.0, 0.0, 1e-301])],
    machines={"a": [1] * 4, "b": [1] * 4, "c": [3, 2, 1e-305, 2**40],
              "d": [0, 5, 0, 2**40]},
)
def test_waterfill_matches_the_numpy_solve(clients, machines):
    probes, capacities = _solve_inputs(clients, machines)
    got = waterfill(probes, capacities)
    expected = numpy_waterfill(probes, capacities)
    assert [rate.hex() for rate in got] == [rate.hex() for rate in expected]


# -- the sanitizer checks every reuse ------------------------------------------


def test_sanitizer_reports_a_stale_reuse(monkeypatch):
    # A mark that moves by exactly one per tick calls every tick quiet,
    # the reboots included: the sanitized solve must catch the stale pair.
    marks = itertools.count()
    monkeypatch.setattr(Simulator, "activity", lambda sim: next(marks))
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.warns(DeterminismWarning, match=r"\[stale-fluid-tick\]"):
        sim, clients, _ = _shard("warm")
    stale = [r for r in sim.sanitizer.reports if r.code == "stale-fluid-tick"]
    first = stale[0]
    assert first.time == int(first.time)  # a tick of the 1 s grid
    assert any(repr(client.name) in first.message for client in clients)


def test_sanitized_fleet_finds_no_stale_reuse(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeterminismWarning)
        sim, _, _ = _shard("cold")
    assert sim.sanitizer is not None and not sim.sanitizer.reports
