"""Unit and property tests for the guest page cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GuestError
from repro.guest import PageCache
from repro.units import mib

from tests.guest.page_cache_oracle import ReferencePageCache


class TestBasics:
    def test_empty_cache(self):
        cache = PageCache(mib(100))
        assert cache.used_bytes == 0
        assert cache.cached_bytes("/f") == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(GuestError):
            PageCache(0)

    def test_insert_and_query(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        assert cache.cached_bytes("/f") == mib(10)
        assert cache.used_bytes == mib(10)

    def test_insert_accumulates(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        cache.insert("/f", mib(5))
        assert cache.cached_bytes("/f") == mib(15)

    def test_negative_sizes_rejected(self):
        cache = PageCache(100)
        with pytest.raises(GuestError):
            cache.insert("/f", -1)
        with pytest.raises(GuestError):
            cache.split_read("/f", -1)


class TestSplitRead:
    def test_cold_read_is_all_uncached(self):
        cache = PageCache(mib(100))
        cached, uncached = cache.split_read("/f", mib(10))
        assert (cached, uncached) == (0, mib(10))

    def test_warm_read_is_all_cached(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        cached, uncached = cache.split_read("/f", mib(10))
        assert (cached, uncached) == (mib(10), 0)

    def test_partial_hit(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(4))
        cached, uncached = cache.split_read("/f", mib(10))
        assert (cached, uncached) == (mib(4), mib(6))

    def test_hit_miss_stats(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        cache.split_read("/f", mib(10))
        cache.split_read("/g", mib(3))
        assert cache.hits_bytes == mib(10)
        assert cache.misses_bytes == mib(3)


class TestEviction:
    def test_lru_eviction(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(6))
        cache.insert("/b", mib(6))  # /a must be evicted
        assert cache.cached_bytes("/a") == 0
        assert cache.cached_bytes("/b") == mib(6)

    def test_touch_protects_from_eviction(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(4))
        cache.insert("/b", mib(4))
        cache.touch("/a")  # now /b is LRU
        cache.insert("/c", mib(4))
        assert cache.cached_bytes("/a") == mib(4)
        assert cache.cached_bytes("/b") == 0

    def test_single_file_larger_than_capacity_trimmed(self):
        cache = PageCache(mib(10))
        cache.insert("/huge", mib(50))
        assert cache.cached_bytes("/huge") == mib(10)
        assert cache.used_bytes == mib(10)

    def test_invalidate(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(2))
        cache.invalidate("/a")
        assert cache.cached_bytes("/a") == 0
        cache.invalidate("/missing")  # no error

    def test_clear_models_image_loss(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(2))
        cache.insert("/b", mib(2))
        cache.clear()
        assert cache.used_bytes == 0
        assert cache.resident_files() == []


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "read", "invalidate", "touch"]),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=2 * 1024 * 1024),
        ),
        max_size=50,
    )
)
def test_cache_never_exceeds_capacity(ops):
    """Property: whatever the operation sequence, used_bytes stays within
    capacity and per-file residency is non-negative."""
    capacity = 4 * 1024 * 1024
    cache = PageCache(capacity)
    for op, file_index, nbytes in ops:
        path = f"/f{file_index}"
        if op == "insert":
            cache.insert(path, nbytes)
        elif op == "read":
            cached, uncached = cache.split_read(path, nbytes)
            assert cached + uncached == nbytes
            assert cached >= 0 and uncached >= 0
        elif op == "invalidate":
            cache.invalidate(path)
        else:
            cache.touch(path)
        assert 0 <= cache.used_bytes <= capacity
        assert all(cache.cached_bytes(p) > 0 for p in cache.resident_files())


def _call(cache, op, path, nbytes):
    """One operation's return value, or its error type and message."""
    try:
        if op == "insert":
            return cache.insert(path, nbytes)
        if op == "read":
            return cache.split_read(path, nbytes)
        if op == "invalidate":
            return cache.invalidate(path)
        if op == "clear":
            return cache.clear()
        return cache.touch(path)
    except GuestError as error:
        return type(error), str(error)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=64),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "read", "invalidate", "clear", "touch"]),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=-2, max_value=80),
        ),
        max_size=60,
    ),
)
def test_running_total_matches_the_summing_oracle(capacity, ops):
    """Property: the same returns, the same LRU order (so the same
    evictions) and the same ``used_bytes`` as the summing cache after
    every step; and ``generation`` moves whenever a byte count changed."""
    cache, oracle = PageCache(capacity), ReferencePageCache(capacity)
    for op, file_index, nbytes in ops:
        path = f"/f{file_index}"
        before = dict(cache._cached), cache.generation
        assert _call(cache, op, path, nbytes) == _call(oracle, op, path, nbytes)
        assert cache.resident_files() == oracle.resident_files()
        assert cache._cached == oracle._cached
        assert cache.used_bytes == oracle.used_bytes
        assert cache.free_bytes == oracle.free_bytes
        assert (cache.hits_bytes, cache.misses_bytes) == (
            oracle.hits_bytes, oracle.misses_bytes,
        )
        if dict(cache._cached) != before[0]:
            assert cache.generation != before[1]
