"""Unit tests for the network link model."""

import pytest

from repro.config import NicSpec
from repro.errors import HardwareError
from repro.hardware import NetworkLink
from repro.simkernel import Simulator
from repro.units import MiB, mib


@pytest.fixture()
def sim():
    return Simulator()


def make_link(sim, **kwargs):
    return NetworkLink(sim, NicSpec(**kwargs), name="eth0")


class TestTransmit:
    def test_single_transfer_at_line_rate(self, sim):
        link = make_link(sim, latency_s=0)
        done = link.transmit(117 * MiB)
        sim.run(done)
        assert sim.now == pytest.approx(1.0, rel=1e-6)

    def test_latency_added(self, sim):
        link = make_link(sim, latency_s=0.01)
        done = link.transmit(0)
        sim.run(done)
        assert sim.now == pytest.approx(0.01)

    def test_two_transfers_share_bandwidth(self, sim):
        link = make_link(sim, latency_s=0)
        a = link.transmit(117 * MiB)
        b = link.transmit(117 * MiB)
        sim.run(sim.all_of([a, b]))
        assert sim.now == pytest.approx(2.0, rel=1e-6)

    def test_negative_size_rejected(self, sim):
        with pytest.raises(HardwareError):
            make_link(sim).transmit(-1)

    def test_bytes_sent_accumulates(self, sim):
        link = make_link(sim)
        sim.run(link.transmit(mib(5)))
        sim.run(link.transmit(mib(7)))
        assert link.bytes_sent == mib(12)


class TestDegradation:
    def test_factor_slows_transfers(self, sim):
        link = make_link(sim, latency_s=0)
        link.set_degradation(0.5)
        done = link.transmit(117 * MiB)
        sim.run(done)
        assert sim.now == pytest.approx(2.0, rel=1e-6)

    def test_clear_restores(self, sim):
        link = make_link(sim, latency_s=0)
        link.set_degradation(0.5)
        link.clear_degradation()
        done = link.transmit(117 * MiB)
        sim.run(done)
        assert sim.now == pytest.approx(1.0, rel=1e-6)

    def test_factor_changes_midflight(self, sim):
        link = make_link(sim, latency_s=0)
        done = link.transmit(117 * MiB)

        def degrade(sim):
            yield sim.timeout(0.5)
            link.set_degradation(0.25)

        sim.spawn(degrade(sim))
        sim.run(done)
        # 0.5 s at full rate (half done) + 0.5 remaining at quarter rate = 2 s.
        assert sim.now == pytest.approx(2.5, rel=1e-6)

    def test_invalid_factor_rejected(self, sim):
        link = make_link(sim)
        with pytest.raises(HardwareError):
            link.set_degradation(0)
        with pytest.raises(HardwareError):
            link.set_degradation(1.5)


class TestLinkState:
    def test_down_link_fails_new_transfers(self, sim):
        link = make_link(sim)
        link.bring_down()
        done = link.transmit(100)
        done.defuse()
        sim.run()
        assert not done.ok

    def test_bring_down_aborts_inflight(self, sim):
        link = make_link(sim, latency_s=0)
        done = link.transmit(117 * MiB)

        def cut(sim):
            yield sim.timeout(0.1)
            link.bring_down()

        sim.spawn(cut(sim))
        done.defuse()
        sim.run()
        assert not done.ok
        assert not link.is_up

    def test_bring_up_recovers(self, sim):
        link = make_link(sim, latency_s=0)
        link.bring_down()
        link.bring_up()
        done = link.transmit(mib(1))
        sim.run(done)
        assert done.ok
