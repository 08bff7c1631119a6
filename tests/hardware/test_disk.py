"""Unit tests for the disk service-time model.

Several tests pin the *calibration*: the emergent numbers that the paper's
figures depend on (sequential bandwidth, interleave slope, random-read
throughput).
"""

import pytest

from repro.config import DiskSpec
from repro.errors import HardwareError
from repro.hardware import Disk
from repro.simkernel import Simulator
from repro.units import GiB, KiB, MiB, gib, kib, mib


@pytest.fixture()
def sim():
    return Simulator()


def make_disk(sim, **kwargs):
    return Disk(sim, DiskSpec(**kwargs), name="d0")


class TestSingleStream:
    def test_sequential_read_runs_at_full_bandwidth(self, sim):
        disk = make_disk(sim)
        proc = disk.read("s1", gib(1))
        sim.run(proc)
        expected = 0.008 + gib(1) / (88 * MiB)
        assert sim.now == pytest.approx(expected, rel=0.01)

    def test_sequential_write_bandwidth(self, sim):
        disk = make_disk(sim)
        proc = disk.write("s1", gib(1))
        sim.run(proc)
        expected = 0.008 + gib(1) / (85 * MiB)
        assert sim.now == pytest.approx(expected, rel=0.01)

    def test_xen_suspend_11gib_calibration(self, sim):
        """Writing one 11 GiB VM image must take ~133 s (Figure 4 anchor)."""
        disk = make_disk(sim)
        proc = disk.write("vm-image", gib(11))
        sim.run(proc)
        assert 125 <= sim.now <= 140

    def test_zero_byte_transfer(self, sim):
        disk = make_disk(sim)
        proc = disk.read("s1", 0)
        sim.run(proc)
        assert sim.now == 0.0

    def test_negative_size_rejected(self, sim):
        with pytest.raises(HardwareError):
            make_disk(sim).read("s1", -1)

    def test_unknown_op_rejected(self, sim):
        with pytest.raises(HardwareError):
            make_disk(sim).transfer("s1", 10, op="scan")

    def test_small_read_pays_one_seek(self, sim):
        disk = make_disk(sim)
        proc = disk.read("s1", kib(512))
        sim.run(proc)
        expected = 0.008 + kib(512) / (88 * MiB)
        assert sim.now == pytest.approx(expected, rel=0.01)

    def test_consecutive_same_stream_no_extra_seek(self, sim):
        disk = make_disk(sim)

        def reader(sim):
            yield disk.read("s1", mib(2))
            yield disk.read("s1", mib(2))

        sim.run(sim.spawn(reader(sim)))
        assert disk.stats.seeks == 1


class TestInterleaving:
    def test_stream_switch_costs_seek(self, sim):
        disk = make_disk(sim)

        def reader(sim):
            yield disk.read("a", mib(2))
            yield disk.read("b", mib(2))
            yield disk.read("a", mib(2))

        sim.run(sim.spawn(reader(sim)))
        assert disk.stats.seeks == 3

    def test_concurrent_streams_interleave_with_seeks(self, sim):
        """Two concurrent 64 MiB reads must each pay per-chunk seeks."""
        disk = make_disk(sim)
        a = disk.read("a", mib(64))
        b = disk.read("b", mib(64))
        sim.run(sim.all_of([a, b]))
        # Interleaved: 32 chunks of 2 MiB per stream; each chunk pays a seek.
        chunks = 32
        expected = 2 * chunks * (0.008 + mib(2) / (88 * MiB))
        assert sim.now == pytest.approx(expected, rel=0.05)

    def test_parallel_boot_slope_calibration(self, sim):
        """11 concurrent 215 MiB reads -> ~3.4 s per stream (Fig. 5 anchor)."""
        disk = make_disk(sim)
        procs = [disk.read(f"vm{i}", mib(215)) for i in range(11)]
        sim.run(sim.all_of(procs))
        per_stream_slope = sim.now / 11
        assert 3.0 <= per_stream_slope <= 3.9

    def test_concurrency_hurts_aggregate_throughput(self, sim):
        disk = make_disk(sim)
        solo = disk.read("solo", mib(64))
        sim.run(solo)
        solo_time = sim.now

        sim2 = Simulator()
        disk2 = make_disk(sim2)
        pair = [disk2.read(s, mib(64)) for s in ("a", "b")]
        sim2.run(sim2.all_of(pair))
        assert sim2.now > 2 * solo_time  # seeks make 2 streams worse than 2x

    def test_random_small_file_throughput_calibration(self, sim):
        """512 KiB random reads must land near 37 MiB/s — the cold-reboot
        web-server degradation anchor (Figure 8(b): 69 % drop from 117)."""
        disk = make_disk(sim)
        nfiles = 50

        def reader(sim):
            for i in range(nfiles):
                yield disk.read(f"file{i}", kib(512))

        sim.run(sim.spawn(reader(sim)))
        throughput = nfiles * kib(512) / sim.now / MiB
        assert 33 <= throughput <= 41


class TestStats:
    def test_byte_accounting(self, sim):
        disk = make_disk(sim)

        def worker(sim):
            yield disk.read("a", mib(3))
            yield disk.write("b", mib(5))

        sim.run(sim.spawn(worker(sim)))
        assert disk.stats.bytes_read == mib(3)
        assert disk.stats.bytes_written == mib(5)

    def test_queue_depth_visible(self, sim):
        disk = make_disk(sim)
        disk.read("a", mib(64))
        disk.read("b", mib(64))

        depths = []

        def probe(sim):
            yield sim.timeout(0.01)
            depths.append(disk.queue_depth)

        sim.spawn(probe(sim))
        sim.run()
        assert depths and depths[0] >= 1
