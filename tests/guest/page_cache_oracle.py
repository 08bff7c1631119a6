"""The summing page cache: the test oracle for the running-total one.

This is :class:`~repro.guest.PageCache` as it was before it kept
``used_bytes`` as a running total: every read of ``used_bytes`` sums
every resident file, and eviction re-sums once per loop pass.  It also
keeps the eviction loop's trim branch for a kept file larger than the
cache, which the running-total class dropped because ``insert`` caps
that file first.  ``test_page_cache.py`` drives both with the same
random operation sequences and compares every return value, every
eviction and ``used_bytes`` after each step.
"""

from __future__ import annotations

import collections

from repro.errors import GuestError


class ReferencePageCache:
    """Byte-accounted LRU cache over file contents."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise GuestError(f"cache capacity must be > 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._cached: collections.OrderedDict[str, int] = collections.OrderedDict()
        self.hits_bytes = 0
        self.misses_bytes = 0

    @property
    def used_bytes(self) -> int:
        return sum(self._cached.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def cached_bytes(self, path: str) -> int:
        return self._cached.get(path, 0)

    def split_read(self, path: str, nbytes: int) -> tuple[int, int]:
        if nbytes < 0:
            raise GuestError(f"negative read size {nbytes}")
        cached = min(self.cached_bytes(path), nbytes)
        uncached = nbytes - cached
        self.hits_bytes += cached
        self.misses_bytes += uncached
        return cached, uncached

    def insert(self, path: str, nbytes: int) -> int:
        if nbytes < 0:
            raise GuestError(f"negative insert size {nbytes}")
        target = min(
            self.cached_bytes(path) + nbytes, self.capacity_bytes
        )
        if target == 0:
            return 0
        self._cached[path] = target
        self._cached.move_to_end(path)
        self._evict_to_fit(keep=path)
        return self._cached.get(path, 0)

    def touch(self, path: str) -> None:
        if path in self._cached:
            self._cached.move_to_end(path)

    def invalidate(self, path: str) -> None:
        self._cached.pop(path, None)

    def clear(self) -> None:
        self._cached.clear()

    def _evict_to_fit(self, keep: str) -> None:
        while self.used_bytes > self.capacity_bytes:
            victim = next(iter(self._cached))
            if victim == keep:
                self._cached[keep] = self.capacity_bytes
                break
            del self._cached[victim]

    def resident_files(self) -> list[str]:
        return list(self._cached)
