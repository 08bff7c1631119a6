"""Shared fixtures: quickly built, fully started simulated hosts, and a
result cache that never leaves pytest's temporary directory."""

import os

import pytest

from repro.config import paper_testbed
from repro.core import Host, RootHammer, VMSpec
from repro.simkernel import Simulator
from repro.units import gib


@pytest.fixture(scope="session", autouse=True)
def private_result_cache(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a session temp dir, so no test reads or
    writes the user's result cache (a CLI run with the default cache
    would, and a later run would replay its payloads).  A test that sets
    its own dir with ``monkeypatch`` keeps it for its duration."""
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("result-cache"))
    yield
    if saved is None:
        del os.environ["REPRO_CACHE_DIR"]
    else:
        os.environ["REPRO_CACHE_DIR"] = saved


@pytest.fixture()
def sim():
    return Simulator()


def build_started_host(sim, n_vms=2, services=("ssh",), profile=None, **host_kwargs):
    """A started host with ``n_vms`` 1 GiB VMs (helper, not a fixture)."""
    host = Host(sim, profile=profile or paper_testbed(), **host_kwargs)
    host.install_vms(
        VMSpec(f"vm{i}", memory_bytes=gib(1), services=services)
        for i in range(n_vms)
    )
    sim.run(sim.spawn(host.start()))
    return host


@pytest.fixture()
def started_host(sim):
    """Two ssh VMs, fully booted."""
    return build_started_host(sim, n_vms=2)


@pytest.fixture()
def controller():
    """A RootHammer controller with two ssh VMs."""
    return RootHammer.started(
        vms=[VMSpec(f"vm{i}", memory_bytes=gib(1)) for i in range(2)]
    )
