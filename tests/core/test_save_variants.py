"""Tests for the §7 related-work save accelerations."""

import pytest

from repro.analysis.downtime import reboot_downtime_summary
from repro.core import (
    ALL_VARIANTS,
    COMPRESSED,
    INCREMENTAL,
    PLAIN,
    RAMDISK,
    RootHammer,
    SaveVariant,
    VMSpec,
    variant_by_name,
)
from repro.errors import ConfigError, RejuvenationError
from repro.units import gib


def controller(n=2):
    return RootHammer.started(
        vms=[VMSpec(f"vm{i}", memory_bytes=gib(1)) for i in range(n)]
    )


class TestVariantSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SaveVariant("x", compression_ratio=0)
        with pytest.raises(ConfigError):
            SaveVariant("x", compression_ratio=1.5)
        with pytest.raises(ConfigError):
            SaveVariant("x", save_fraction=0)
        with pytest.raises(ConfigError):
            SaveVariant("x", medium="tape")
        with pytest.raises(ConfigError):
            SaveVariant("x", compression_cpu_s_per_gib=-1)

    def test_byte_accounting(self):
        assert INCREMENTAL.save_bytes(1000) == 300
        assert INCREMENTAL.restore_bytes(1000) == 1000  # full read (§7)
        assert COMPRESSED.save_bytes(1000) == 500
        assert COMPRESSED.restore_bytes(1000) == 500
        assert PLAIN.save_bytes(1000) == 1000

    def test_codec_cost(self):
        assert COMPRESSED.codec_cpu_s(gib(2)) == pytest.approx(6.0)
        assert PLAIN.codec_cpu_s(gib(2)) == 0.0

    def test_lookup_by_name(self):
        assert variant_by_name("ramdisk") is RAMDISK
        with pytest.raises(ConfigError):
            variant_by_name("quantum")


class TestVariantReboots:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
    def test_all_variants_round_trip_state(self, variant):
        rh = controller()
        guest = rh.guest("vm0")
        guest.page_cache.insert("/hot", 4096)
        rh.rejuvenate("saved", variant=variant)
        after = rh.guest("vm0")
        assert after is guest
        assert after.page_cache.cached_bytes("/hot") == 4096
        after.verify_memory_image()

    def test_incremental_writes_less(self):
        rh_plain = controller()
        w0 = rh_plain.host.machine.disk.stats.bytes_written
        rh_plain.rejuvenate("saved", variant=PLAIN)
        plain_written = rh_plain.host.machine.disk.stats.bytes_written - w0

        rh_inc = controller()
        w0 = rh_inc.host.machine.disk.stats.bytes_written
        rh_inc.rejuvenate("saved", variant=INCREMENTAL)
        inc_written = rh_inc.host.machine.disk.stats.bytes_written - w0
        assert inc_written < 0.5 * plain_written

    def test_ramdisk_bypasses_scsi_disk(self):
        rh = controller()
        scsi_before = rh.host.machine.disk.stats.bytes_written
        rh.rejuvenate("saved", variant=RAMDISK)
        scsi_delta = rh.host.machine.disk.stats.bytes_written - scsi_before
        assert scsi_delta < gib(1) // 10  # only housekeeping, no images
        assert rh.host.machine.ramdisk.stats.bytes_written >= 2 * gib(1)

    def test_every_acceleration_helps_but_none_reaches_warm(self):
        """The §7 claim, measured: each acceleration shrinks the saved
        reboot's downtime; all remain far above the warm reboot."""
        downtimes = {}
        for label, strategy, options in [
            ("warm", "warm", {}),
            ("plain", "saved", {"variant": PLAIN}),
            ("incremental", "saved", {"variant": INCREMENTAL}),
            ("compressed", "saved", {"variant": COMPRESSED}),
            ("ramdisk", "saved", {"variant": RAMDISK}),
        ]:
            rh = controller(n=3)
            t0 = rh.now
            rh.rejuvenate(strategy, **options)
            downtimes[label] = reboot_downtime_summary(
                rh.sim.trace, since=t0
            ).mean
        assert downtimes["incremental"] < downtimes["plain"]
        assert downtimes["compressed"] < downtimes["plain"]
        assert downtimes["ramdisk"] < downtimes["plain"]
        for label in ("plain", "incremental", "compressed", "ramdisk"):
            assert downtimes[label] > 2 * downtimes["warm"], label

    def test_options_rejected_for_other_strategies(self):
        rh = controller()
        with pytest.raises(RejuvenationError):
            rh.rejuvenate("warm", variant=PLAIN)
