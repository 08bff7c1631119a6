"""The traced run: spans at public entry points, layer self time, live memory.

Three instruments, all in the benchmark's own files (nothing in ``src/``
changes):

* ``SpanLog`` wrappers around the public entry points in ``ENTRY_POINTS``
  record spans (name, start, end, parent span, run id, wall and CPU
  clocks).  Spans stay in memory and are written when the run ends.
* A ``cProfile`` pass gives every function's self time and every
  caller -> callee edge with its call count.  ``attribute`` folds them
  into the layers of ``repro.devtools.simlint.layers.DEFAULT_LAYER_MAP``:
  a layer's self time is the time while one of its frames is the
  innermost ``repro`` frame, so time in the standard library, numpy or
  generated code is charged to the ``repro`` frame that called it.  The
  profiler sees generator resumptions as calls, which is what reaches
  the simulated actors' code without editing ``src/``.
* A tracemalloc pass rebuilds the largest scenario the run built and
  measures the bytes that ``repro.memory`` allocations hold at its end.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
import typing
from pathlib import Path

LAYERS = (
    "simkernel", "memory", "jobs", "hardware", "vmm", "guest", "control",
    "core", "workloads", "aging", "analysis", "obs", "cluster", "scenario",
    "fleet", "experiments",
)
"""The layers reported per run: the packages of the simlint layer map,
without the foundation's single modules (errors, units, config, the
package root), whose time counts as unmapped."""

UNMAPPED = "unmapped"

EXPERIMENTS = (
    "FIG2", "FIG4", "FIG5", "SEC52", "FIG6", "SEC53", "FIG7", "FIG8", "SEC56",
    "FIG9", "EXT-PROACTIVE", "EXT-GRANULARITY", "EXT-AUTONOMIC",
)
"""``repro.experiments.experiment_ids()`` when the benchmark was defined;
the per-experiment metrics are fixed to these."""

ENTRY_POINTS = (
    # (module, qualified name, span group)
    ("repro.experiments.parallel", "run_all_parallel", "experiments.sweep"),
    ("repro.jobs", "run_cells", "jobs.run"),
    ("repro.jobs", "code_version", "jobs.digest"),
    ("repro.jobs", "Cell.digest", "jobs.digest"),
    ("repro.scenario.builder", "ScenarioBuilder.build", "scenario.build"),
    ("repro.fleet.runner", "run_fleet", "fleet.run"),
    ("repro.fleet.runner", "merge_shards", "fleet.merge"),
    ("repro.obs.bundle", "capture_shard", "obs.capture"),
    ("repro.obs.bundle", "TelemetryBundle.merge", "obs.merge"),
    ("repro.obs.bundle", "TelemetryBundle.to_dict", "obs.merge"),
    ("repro.obs.bundle", "TelemetryBundle.write", "obs.export"),
    ("repro.obs.bundle", "TelemetryBundle.load", "obs.export"),
    ("repro.obs.bundle", "TelemetryBundle.write_perfetto", "obs.export"),
    ("repro.obs.bundle", "TelemetryBundle.write_prometheus", "obs.export"),
    ("repro.analysis.obs", "write_perfetto", "analysis.export"),
)


# -- spans ---------------------------------------------------------------------------


class SpanLog:
    """In-memory spans of one benchmark run; ``write`` saves them."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def open(self, name: str, group: str = "") -> dict:
        record = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            "name": name,
            "group": group or name,
            "start": time.perf_counter(),
            "cpu_start": time.process_time(),
        }
        self.spans.append(record)
        self._open.append(record)
        return record

    def close(self, record: dict) -> None:
        record["cpu_end"] = time.process_time()
        record["end"] = time.perf_counter()
        self._open.remove(record)

    @contextlib.contextmanager
    def span(self, name: str, group: str = "") -> typing.Iterator[dict]:
        record = self.open(name, group)
        try:
            yield record
        finally:
            self.close(record)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans}, handle, indent=1)

    def total(
        self, group: str, cpu: bool = False, outer: tuple[str, ...] = ()
    ) -> float:
        """Seconds inside spans of ``group``, skipping a span nested in
        another span of ``group`` or of any group in ``outer`` (so that
        ``code_version`` inside ``Cell.digest``, or a bundle's ``to_dict``
        inside its ``write``, is counted once)."""
        skip = {group, *outer}
        by_id = {record["id"]: record for record in self.spans}
        seconds = 0.0
        for record in self.spans:
            if record["group"] != group or "end" not in record:
                continue
            parent = by_id.get(record["parent"])
            while parent is not None and parent["group"] not in skip:
                parent = by_id.get(parent["parent"])
            if parent is not None:
                continue
            if cpu:
                seconds += record["cpu_end"] - record["cpu_start"]
            else:
                seconds += record["end"] - record["start"]
        return seconds


class LargestBuild:
    """The scenario builder with the most VM memory seen so far."""

    def __init__(self) -> None:
        self.builder: typing.Any = None
        self.vm_bytes = -1

    def offer(self, builder: typing.Any) -> None:
        size = sum(
            host.count * sum(vm.count * vm.memory_bytes for vm in host.vms)
            for host in builder.spec.hosts
        )
        if size > self.vm_bytes:
            self.builder, self.vm_bytes = builder, size


def _resolve(qualname: str, module: typing.Any) -> tuple[typing.Any, str]:
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install_entry_points(
    log: SpanLog, largest: LargestBuild
) -> typing.Callable[[], None]:
    """Wrap every entry point; returns the undo.

    Each entry point's module is imported first, so that a later
    ``from x import f`` picks up the wrapper.  Module-level functions are
    replaced in every loaded ``repro`` module that holds them (``from x
    import f`` copies the reference); methods are replaced on their
    class.  An entry point the program lacks raises: its span metrics
    would otherwise read 0, which looks like a speed-up.
    """
    undo: list[tuple[typing.Any, str, typing.Any]] = []
    for module_name, qualname, group in ENTRY_POINTS:
        try:
            owner, attr = _resolve(qualname, importlib.import_module(module_name))
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as exc:
            raise LookupError(
                f"entry point {module_name}:{qualname} not found"
            ) from exc
        name = f"{module_name}:{qualname}"
        if isinstance(owner, type):
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind is not None else raw
            wrapped = _traced(fn, log, name, group, largest)
            undo.append((owner, attr, raw))
            setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
            continue
        wrapped = _traced(raw, log, name, group, largest)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                vars(loaded).get(attr) is raw
            ):
                undo.append((loaded, attr, raw))
                setattr(loaded, attr, wrapped)

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


def _traced(
    fn: typing.Callable, log: SpanLog, name: str, group: str, largest: LargestBuild
) -> typing.Callable:
    @functools.wraps(fn)
    def traced(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
        record = log.open(name, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(record)
        if group == "scenario.build":
            largest.offer(args[0])
        elif isinstance(result, os.PathLike):  # the file an export wrote
            with contextlib.suppress(OSError):
                record["bytes"] = os.stat(result).st_size
        return result

    return traced


# -- layer attribution from the profile ----------------------------------------------


class LayerMap:
    """File -> layer, for the profiled program and the benchmark itself."""

    def __init__(self, src: Path, bench: Path) -> None:
        self.repro = os.path.realpath(src / "repro") + os.sep
        self.bench = os.path.realpath(bench) + os.sep
        self._cache: dict[str, str | None] = {}

    def package(self, filename: str) -> str | None:
        """The ``repro`` package a file belongs to, or None outside it."""
        real = os.path.realpath(filename)
        if not real.startswith(self.repro):
            return None
        parts = Path(real[len(self.repro):]).parts
        if len(parts) == 1:
            stem = Path(parts[0]).stem
            return "" if stem == "__init__" else stem
        return parts[0]

    def is_bench(self, filename: str) -> bool:
        return os.path.realpath(filename).startswith(self.bench)

    def layer(self, filename: str) -> str | None:
        """A reported layer, ``unmapped``, or None for foreign code whose
        time belongs to the calling ``repro`` frame."""
        if filename in self._cache:
            return self._cache[filename]
        package = self.package(filename)
        if package is not None:
            found = package if package in LAYERS else UNMAPPED
        elif self.is_bench(filename):
            found = UNMAPPED
        else:
            found = None
        self._cache[filename] = found
        return found


def attribute(
    stats: dict, layers: LayerMap
) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds, entering calls) per layer from ``pstats`` data.

    Foreign functions (no layer) pass their own time up to their callers
    in proportion to each caller edge's share of it, and time that
    reached them from below in proportion to each edge's inclusive time;
    it settles on the nearest layer.  A call entering a layer from a
    foreign frame is resolved the same way, by call counts.  Time or
    calls that find no layer above them count as unmapped.
    """
    self_s: dict[str, float] = collections.defaultdict(float)
    calls: dict[str, float] = collections.defaultdict(float)
    layer_of = {key: layers.layer(key[0]) for key in stats}

    pending: dict[tuple, float] = collections.defaultdict(float)
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of[key]
        if layer is not None:
            self_s[layer] += tt
            continue
        _push(pending, key, tt, callers, 2, layer_of, self_s)
    for _ in range(64):
        if not pending:
            break
        moving, pending = pending, collections.defaultdict(float)
        for key, amount in moving.items():
            _push(pending, key, amount, stats[key][4], 3, layer_of, self_s)
    self_s[UNMAPPED] += sum(pending.values())

    origin = _CallOrigins(stats, layer_of)
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        layer = layer_of[key]
        if layer is None or layer == UNMAPPED:
            continue
        for caller, edge in callers.items():
            shares = origin.of(caller)
            calls[layer] += edge[1] * (1.0 - shares.get(layer, 0.0))
    return dict(self_s), dict(calls)


def _push(
    pending: dict,
    key: tuple,
    amount: float,
    callers: dict,
    weight: int,
    layer_of: dict,
    self_s: dict,
) -> None:
    """Share ``amount`` among ``key``'s callers by edge field ``weight``
    (2: self time, 3: inclusive time)."""
    edges = {c: e[weight] for c, e in callers.items() if c != key}
    total = sum(edges.values())
    if not edges or total <= 0.0:
        edges = {c: e[1] for c, e in callers.items() if c != key}
        total = sum(edges.values())
    if total <= 0.0:
        self_s[UNMAPPED] += amount
        return
    for caller, share in edges.items():
        part = amount * share / total
        layer = layer_of.get(caller)
        if layer is not None:
            self_s[layer] += part
        else:
            pending[caller] += part


class _CallOrigins:
    """Which layers a call made from a given function comes from."""

    def __init__(self, stats: dict, layer_of: dict) -> None:
        self.stats = stats
        self.layer_of = layer_of
        self.memo: dict[tuple, dict[str, float]] = {}

    def of(self, key: tuple, depth: int = 0) -> dict[str, float]:
        layer = self.layer_of.get(key)
        if layer is not None:
            return {layer: 1.0}
        if key in self.memo:
            return self.memo[key]
        callers = {
            c: e[1] for c, e in self.stats.get(key, (0, 0, 0, 0, {}))[4].items()
            if c != key
        }
        total = sum(callers.values())
        if depth > 32 or total <= 0:
            return {UNMAPPED: 1.0}
        self.memo[key] = {UNMAPPED: 1.0}  # cycle guard
        shares: dict[str, float] = collections.defaultdict(float)
        for caller, count in callers.items():
            for layer, share in self.of(caller, depth + 1).items():
                shares[layer] += share * count / total
        self.memo[key] = dict(shares)
        return self.memo[key]


def code_key(fn: typing.Callable) -> tuple[str, int, str]:
    """The ``pstats`` key of a Python function."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_count(stats: dict, fn: typing.Callable) -> int:
    entry = stats.get(code_key(fn))
    return int(entry[1]) if entry is not None else 0


def experiment_seconds(stats: dict, layers: LayerMap) -> dict[str, float]:
    """Inclusive profiled seconds per experiment: time entering each
    runner module from the sweep harness (the jobs layer, the experiments
    package's non-runner modules, or the benchmark).  Calls from the
    simulation itself, such as generator resumptions, are already inside
    the harness's call and are not counted again."""
    out = dict.fromkeys(EXPERIMENTS, 0.0)
    experiments = sys.modules.get("repro.experiments")
    if experiments is None:
        return out
    runner_files = {
        os.path.realpath(experiments.runner_module(key).__file__): key
        for key in experiments.experiment_ids()
        if key in out
    }
    real = functools.lru_cache(maxsize=None)(os.path.realpath)
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        experiment = runner_files.get(real(key[0]))
        if experiment is None:
            continue
        for caller, edge in callers.items():
            caller_file = real(caller[0])
            if caller_file in runner_files:
                continue
            if layers.package(caller_file) in ("jobs", "experiments") or (
                layers.is_bench(caller_file)
            ):
                out[experiment] += edge[3]
    return out


# -- live memory ---------------------------------------------------------------------

FRAMES = 4
"""Traceback depth tracemalloc keeps: enough to see past numpy's Python
wrappers (``np.full`` and the like) to the ``repro`` frame that asked."""


def live_memory_mb(builder: typing.Any, layers: LayerMap) -> float:
    """MiB held by ``repro.memory`` allocations at the end of a rebuild of
    ``builder``'s scenario (bring-up included), by innermost repro frame."""
    if builder is None:
        return 0.0
    builder_cls = type(builder)
    tracemalloc.start(FRAMES)
    try:
        built = builder_cls(
            builder.spec,
            profile=builder.profile,
            backend=builder.backend,
            metrics=builder.metrics,
        ).build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = 0
    for trace in snapshot.traces:
        for frame in reversed(trace.traceback):
            package = layers.package(frame.filename)
            if package is not None:
                if package == "memory":
                    held += trace.size
                break
    del built
    return held / 2**20


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out.append((f"{UNMAPPED}.self_s", "s", "lower"))
    out += [
        ("simkernel.timer_waste", "ratio", "lower"),
        ("simkernel.sims", "count", "lower"),
    ]
    out += [(f"experiments.{key}.s", "s", "lower") for key in EXPERIMENTS]
    out += [
        ("scenario.builds", "count", "lower"),
        ("scenario.build_s", "s", "lower"),
        ("memory.live_mb", "MiB", "lower"),
        ("jobs.cells", "count", "lower"),
        ("jobs.hit_ratio", "ratio", "higher"),
        ("jobs.digest_s", "s", "lower"),
        ("jobs.cache_mb", "MiB", "lower"),
        ("jobs.wait_s", "s", "lower"),
        ("fleet.merge_s", "s", "lower"),
        ("obs.capture_s", "s", "lower"),
        ("obs.merge_s", "s", "lower"),
        ("obs.export_s", "s", "lower"),
        ("obs.wait_s", "s", "lower"),
        ("obs.bundle_mb", "MiB", "lower"),
        ("analysis.export_s", "s", "lower"),
        ("analysis.trace_mb", "MiB", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("host.calib_s", "s", "lower"),
    ]
    return out
