"""The guest file cache (page cache) — the performance state a cold
reboot destroys.

§2: "The primary cause [of post-reboot degradation] is to lose the file
cache."  The model is byte-granular per file with LRU eviction: enough to
reproduce first-access-vs-second-access behaviour (Figure 8) without
tracking three million page frames.

The cache object lives inside the guest kernel image, so its fate follows
the memory image's fate automatically: preserved by on-memory
suspend/resume, round-tripped by disk save/restore, and gone when a cold
boot constructs a fresh kernel.
"""

from __future__ import annotations

import collections

from repro.errors import GuestError


class PageCache:
    """Byte-accounted LRU cache over file contents.

    ``generation`` moves whenever a file's cached byte count may have
    changed (insert, invalidate, clear, eviction), so a reader can keep a
    sum over the cache until it does; an LRU reorder (``touch``) or a
    read's hit/miss accounting (``split_read``) leaves it alone.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise GuestError(f"cache capacity must be > 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._cached: collections.OrderedDict[str, int] = collections.OrderedDict()
        self._used = 0
        self.generation = 0
        self.hits_bytes = 0
        self.misses_bytes = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def cached_bytes(self, path: str) -> int:
        """How many bytes of ``path`` are currently cached."""
        return self._cached.get(path, 0)

    def split_read(self, path: str, nbytes: int) -> tuple[int, int]:
        """Partition a read into (cached, uncached) bytes and count stats."""
        if nbytes < 0:
            raise GuestError(f"negative read size {nbytes}")
        cached = min(self.cached_bytes(path), nbytes)
        uncached = nbytes - cached
        self.hits_bytes += cached
        self.misses_bytes += uncached
        return cached, uncached

    def insert(self, path: str, nbytes: int) -> int:
        """Cache ``nbytes`` of ``path`` (cumulative), evicting LRU files as
        needed.  Returns the bytes actually resident afterwards."""
        if nbytes < 0:
            raise GuestError(f"negative insert size {nbytes}")
        target = min(
            self.cached_bytes(path) + nbytes, self.capacity_bytes
        )
        if target == 0:
            return 0
        self.generation += 1
        self._used += target - self._cached.get(path, 0)
        self._cached[path] = target
        self._cached.move_to_end(path)
        self._evict_to_fit()
        return self._cached.get(path, 0)

    def touch(self, path: str) -> None:
        """Mark a file recently used (cache hit path)."""
        if path in self._cached:
            self._cached.move_to_end(path)

    def invalidate(self, path: str) -> None:
        """Drop one file's cached bytes (no-op if not resident)."""
        self.generation += 1
        self._used -= self._cached.pop(path, 0)

    def clear(self) -> None:
        """What losing the memory image does to the cache."""
        self.generation += 1
        self._used = 0
        self._cached.clear()

    def _evict_to_fit(self) -> None:
        # ``insert`` caps the file it just cached at capacity and moves it
        # to the MRU end, so evicting LRU-first fits before reaching it.
        while self._used > self.capacity_bytes:
            self._used -= self._cached.popitem(last=False)[1]

    def resident_files(self) -> list[str]:
        """Paths with any cached bytes, LRU-first."""
        return list(self._cached)
