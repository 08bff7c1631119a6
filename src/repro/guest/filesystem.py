"""The guest's view of its virtual disk: a flat file catalogue.

Each VM gets one physical disk partition in the paper's setup; we model
the filesystem as named files with sizes.  Actual I/O timing goes through
the machine's disk model (for misses) or memory bus (for cache hits) —
the filesystem only answers "does this file exist and how big is it".
"""

from __future__ import annotations

from repro.errors import FilesystemError


class Filesystem:
    """Name → size catalogue for one guest's virtual disk.

    ``generation`` moves on every :meth:`create` and :meth:`remove`, so a
    reader can keep a sum over file sizes until it does.
    """

    def __init__(self) -> None:
        self._files: dict[str, int] = {}
        self.generation = 0

    def create(self, path: str, nbytes: int) -> None:
        """Add (or resize) a file at ``path``."""
        if nbytes < 0:
            raise FilesystemError(f"negative file size for {path!r}")
        if not path or not path.startswith("/"):
            raise FilesystemError(f"bad path {path!r}")
        self._files[path] = nbytes
        self.generation += 1

    def create_many(self, prefix: str, count: int, nbytes: int) -> list[str]:
        """Create ``count`` equal-size files (the 10 000×512 KB web corpus)."""
        paths = [f"{prefix}/{i:06d}" for i in range(count)]
        for path in paths:
            self.create(path, nbytes)
        return paths

    def size_of(self, path: str) -> int:
        """The file's size; raises :class:`FilesystemError` if absent."""
        try:
            return self._files[path]
        except KeyError:
            raise FilesystemError(f"no such file {path!r}") from None

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file."""
        return path in self._files

    def remove(self, path: str) -> None:
        """Delete a file; raises if absent."""
        if path not in self._files:
            raise FilesystemError(f"no such file {path!r}")
        del self._files[path]
        self.generation += 1

    def paths(self) -> list[str]:
        """All file paths, sorted."""
        return sorted(self._files)

    @property
    def total_bytes(self) -> int:
        return sum(self._files.values())

    def __len__(self) -> int:
        return len(self._files)
