"""Pooled, content-address-cached execution of independent work cells.

A :class:`Cell` is one deterministic unit of work — a ``"module:function"``
reference plus plain parameters — whose payload depends only on those
inputs and the package source, never on which process runs it or in what
order.  This module is the tier-independent machinery that exploits that:

* **fan-out** — cells are fanned across a
  :class:`~concurrent.futures.ProcessPoolExecutor` (or run serially
  in-process for ``jobs=1``), so long cells from one plan overlap short
  cells from another;
* **memoisation** — each payload is stored in a content-addressed cache
  keyed on the cell's function, its parameters, the timing-profile
  fingerprint and a hash of the package source, so re-running a sweep
  recomputes only cells whose inputs actually changed.

It lives at the foundation layer because every execution tier rides on
it: experiment sweeps (:mod:`repro.experiments.parallel`) and fleet
shards (:mod:`repro.fleet.runner`).  Nothing here knows
what a cell *computes* — plan construction and payload assembly belong to
the tiers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import typing
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import repro
from repro.config import paper_testbed
from repro.errors import ReproError

_CACHE_VERSION = 4
"""Bump to invalidate every cached payload at once.

2: workload mode/sessions/tick entered the scenario spec schema and the
kernel backend/horizon entered the digest material; payloads keyed under
version 1 predate both and must never alias the new cells.

3: scenario reports and fleet shard payloads gained the control-plane
``policy`` block (and specs the ``policy`` table); version-2 payloads
lack the key and must not replay into policy-aware consumers.

4: fleet shard payloads gained the ``telemetry`` blob (and specs the
``slo``/``telemetry`` keys, audit entries their ``span`` join key);
version-3 payloads lack them and must not replay into the telemetry
merge.
"""


@dataclasses.dataclass(frozen=True, eq=False)
class Cell:
    """One independent measurement: a function call on a fresh testbed."""

    experiment_id: str
    key: tuple
    fn: str
    """``"module:function"`` — resolvable in a worker process."""
    params: dict[str, typing.Any]

    def digest(self, full: bool) -> str:
        """Content address of this cell's payload.

        Two cells share a digest only if they would compute the same
        payload: same function, same parameters, same timing profile and
        same package source.  ``repr`` of the sorted parameter items is
        stable because cell parameters are ints/floats/strs/bools (and,
        for fleet shard cells, canonically ordered dicts of those).
        """
        material = repr(
            (
                _CACHE_VERSION,
                self.fn,
                sorted(self.params.items()),
                bool(full),
                _profile_fingerprint(),
                code_version(),
            )
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _profile_fingerprint() -> str:
    """The default timing profile, as cache-key material.

    ``TimingProfile`` is a frozen dataclass tree of scalars, so its repr
    captures every calibrated constant an experiment can observe.
    """
    return repr(paper_testbed())


_code_version: str | None = None


def code_version() -> str:
    """A hash over the ``repro`` package source (cache-key material)."""
    global _code_version
    if _code_version is None:
        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version = h.hexdigest()
    return _code_version


def _execute_cell(fn: str, params: dict[str, typing.Any]) -> typing.Any:
    """Worker-side cell execution (top level, so it pickles)."""
    import importlib

    module_name, _, attr = fn.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr)(**params)


# -- the result cache --------------------------------------------------------------


def cache_dir() -> Path:
    """Where payloads live: ``$REPRO_CACHE_DIR`` or a user-cache default."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return Path(xdg) / "repro-experiments"


def _cache_path(digest: str) -> Path:
    # Shard by the first byte to keep directory listings manageable.
    return cache_dir() / digest[:2] / f"{digest}.pkl"


def _cache_load(digest: str) -> tuple[bool, typing.Any]:
    """(hit, payload); unreadable or corrupt entries are just misses.

    Deliberately catches every Exception: depending on which opcode the
    corruption lands on, unpickling garbage raises UnpicklingError,
    EOFError, ValueError, UnicodeDecodeError, ImportError...  A cache
    read must never be able to fail a sweep.
    """
    try:
        blob = _cache_path(digest).read_bytes()
        return True, pickle.loads(blob)
    except Exception:
        return False, None


def _cache_store(digest: str, payload: typing.Any) -> None:
    """Atomic write (unique temp file + rename): concurrent writers of
    the same digest each land a complete file, last one wins."""
    path = _cache_path(digest)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - cache is best-effort
        pass


def clear_cache() -> int:
    """Delete every cached payload; returns the number removed."""
    removed = 0
    root = cache_dir()
    if root.is_dir():
        for path in root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
    return removed


# -- the runners -------------------------------------------------------------------


@dataclasses.dataclass
class SweepStats:
    """What a pooled sweep actually did (observability + tests)."""

    total_cells: int = 0
    cache_hits: int = 0
    executed: int = 0


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_cells(
    cells: typing.Sequence[Cell],
    jobs: int | None = None,
    use_cache: bool = True,
    stats: SweepStats | None = None,
    full: bool = False,
) -> dict[tuple[str, tuple], typing.Any]:
    """Execute a pooled cell list; returns payloads keyed by
    ``(experiment id, cell key)``.

    Every tier fans its cells through here — experiment sweeps
    (:mod:`repro.experiments.parallel`) and fleet shards
    (:mod:`repro.fleet.runner`) — so they all pool, parallelise and
    content-address cache alike.  ``full`` joins the cache key: a
    full-workload experiment run never replays a quick one's payload.

    A missed cell that repeats an earlier one's function and parameters
    (SEC53 plans three of FIG6's cells) runs once and shares its payload;
    ``total_cells`` and ``cache_hits`` still count every planned cell.
    """
    jobs = _resolve_jobs(jobs)
    if stats is None:
        stats = SweepStats()
    stats.total_cells += len(cells)

    payloads: dict[tuple[str, tuple], typing.Any] = {}
    misses: list[tuple[Cell, str]] = []
    repeats: list[tuple[Cell, Cell]] = []
    first_of: dict[str, Cell] = {}
    for cell in cells:
        digest = cell.digest(full) if use_cache else ""
        if use_cache:
            hit, payload = _cache_load(digest)
            if hit:
                payloads[(cell.experiment_id, cell.key)] = payload
                stats.cache_hits += 1
                continue
        call = repr((cell.fn, sorted(cell.params.items())))
        first = first_of.setdefault(call, cell)
        if first is cell:
            misses.append((cell, digest))
        else:
            repeats.append((cell, first))

    stats.executed += len(misses)
    if jobs == 1:
        # In-process serial path: same cells, no pool overhead.
        for cell, digest in misses:
            payload = _execute_cell(cell.fn, cell.params)
            payloads[(cell.experiment_id, cell.key)] = payload
            if use_cache:
                _cache_store(digest, payload)
    elif misses:
        # More CPU-bound workers than cores only adds scheduler thrash, and
        # idle workers beyond the miss count only add fork cost.
        workers = min(jobs, len(misses), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: list[tuple[Cell, str, Future]] = [
                (cell, digest, pool.submit(_execute_cell, cell.fn, cell.params))
                for cell, digest in misses
            ]
            for cell, digest, future in futures:
                payload = future.result()
                payloads[(cell.experiment_id, cell.key)] = payload
                if use_cache:
                    _cache_store(digest, payload)
    for cell, first in repeats:
        payloads[(cell.experiment_id, cell.key)] = payloads[
            (first.experiment_id, first.key)
        ]
    return payloads
