"""Trace instrumentation for simulations — a columnar trace engine.

Experiments need to observe *when* things happened — when a service went
down, when the VMM finished reloading, how throughput evolved.  Rather than
sprinkling ad-hoc lists everywhere, every simulator carries a
:class:`Tracer`; components record typed occurrences and analyses query
them afterwards.

Storage is *columnar* (struct-of-arrays), not a list of record objects:

* the hot append path writes one entry into each of three plain-list
  columns: time, interned kind-id and payload dict;
* record *sequences* are never stored at all — ``record()`` bumps the
  sequence counter exactly once per stored record and :meth:`Tracer.clear`
  keeps the counter growing, so the sequence of the i-th stored record is
  always ``seq_base + i + 1`` (see :meth:`Tracer.clear` for the invariant).

Queries (:meth:`Tracer.select`, :meth:`Tracer.times`, prefix matching)
find the time window with :func:`bisect.bisect_left` and
:func:`~bisect.bisect_right` on the (non-decreasing) time column, take
each matching kind's rows in that window from per-kind row-index lists
(extended only after new records arrive), and materialize a
:class:`TraceRecord` view only for matching rows, its time as a
``float``.

The trace is an append-only log: nothing runs when a record is made,
and code that must react to an occurrence waits on an event its owner
hands out (the crash watchdog waits on
:meth:`repro.core.host.Host.vmm_crashed`).

Records are strictly ordered by (time, sequence), matching the
deterministic event order of the kernel.
"""

from __future__ import annotations

import typing
from bisect import bisect_left, bisect_right

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator

class TraceKindSpec(typing.NamedTuple):
    """Declared payload shape for one trace kind (see :data:`TRACE_SCHEMA`)."""

    required: frozenset[str]
    optional: frozenset[str] = frozenset()

    @property
    def allowed(self) -> frozenset[str]:
        return self.required | self.optional


def _spec(*required: str, optional: typing.Iterable[str] = ()) -> TraceKindSpec:
    return TraceKindSpec(frozenset(required), frozenset(optional))


TRACE_SCHEMA: dict[str, TraceKindSpec] = {
    # hardware layer
    "hw.reset.start": _spec("machine"),
    "hw.reset.done": _spec("machine", "post_s"),
    "hw.quick_reload": _spec("machine"),
    # hypervisor (Hypervisor._trace stamps vmm_generation on every kind)
    "vmm.boot.start": _spec("vmm_generation"),
    "vmm.boot.done": _spec("vmm_generation", "duration"),
    "vmm.scrub.done": _spec("vmm_generation", "gib", "duration"),
    "vmm.dom0.created": _spec("vmm_generation"),
    "vmm.domain.created": _spec("vmm_generation", "domain", "domid"),
    "vmm.domain.destroyed": _spec("vmm_generation", "domain"),
    "vmm.save.start": _spec("vmm_generation", "domain"),
    "vmm.save.done": _spec("vmm_generation", "domain"),
    "vmm.restore.done": _spec("vmm_generation", "domain"),
    "vmm.shutdown.start": _spec("vmm_generation"),
    "vmm.shutdown.done": _spec("vmm_generation"),
    "vmm.crash": _spec("vmm_generation", "reason"),
    "vmm.xexec.loaded": _spec("vmm_generation"),
    "vmm.onmem.suspended": _spec("vmm_generation", "domain"),
    "vmm.onmem.resumed": _spec("vmm_generation", "domain"),
    "vmm.preserved.reserved": _spec("vmm_generation", "domain"),
    # host orchestration
    "host.started": _spec("host"),
    "host.dom0.booted": _spec("host"),
    "host.dom0.shutdown": _spec("host"),
    "host.quirk.slump.start": _spec("host"),
    "host.quirk.slump.end": _spec("host"),
    "host.crash_recovery.start": _spec("host"),
    "host.crash_recovery.done": _spec("host", "duration"),
    # reboot strategies
    "reboot.start": _spec("host", "strategy"),
    "reboot.phase": _spec("host", "strategy", "phase", "start", "end"),
    "reboot.done": _spec("host", "strategy", "total"),
    # guest lifecycle
    "guest.boot.start": _spec("domain"),
    "guest.boot.done": _spec("domain"),
    "guest.shutdown.start": _spec("domain"),
    "guest.shutdown.done": _spec("domain"),
    "guest.rejuvenation.start": _spec("domain"),
    "guest.rejuvenation.done": _spec("domain", "duration"),
    # service availability (the Figure 6 downtime signal)
    "service.up": _spec("service", "service_kind", "domain", optional=["reason"]),
    "service.down": _spec("service", "service_kind", "domain", optional=["reason"]),
    "service.microreboot": _spec("domain", "service"),
    # cluster-level live migration
    "migration.start": _spec("domain", "source", "destination"),
    "migration.done": _spec("domain", "source", "destination"),
    # causal spans (written only by repro.simkernel.spans; SL008 enforces)
    "span.begin": _spec("span", "parent", "name", "actor", "detail"),
    "span.end": _spec("span"),
    # workloads and monitoring
    "tcp.session.closed": _spec("session", "outcome", "service"),
    "probe.up": _spec("prober", "downtime"),
    "probe.down": _spec("prober"),
    "watchdog.detected": _spec("host"),
    "control.decision": _spec(
        "cycle", "action", "target", "outcome",
        # "span" is the id of the enclosing control.action (or, for
        # deferred actions, control.cycle) span — the deterministic join
        # key decision-timeline reconstruction pivots on.
        optional=["vm", "source", "reason", "span"],
    ),
}
"""Declared payload columns per trace kind.

This is the contract ``repro.devtools.simlint`` rule SL006 enforces
statically: every ``record()`` call with a literal kind must name a kind
declared here and pass exactly the required payload keys (plus any of the
optional ones).  Keeping the declaration next to the columnar engine makes
the schema the single source of truth for both the linter and readers
asking "what fields does this kind carry?".
"""

_MISSING = object()
"""Sentinel for 'this record has no such payload field' in filters."""

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class TraceRecord:
    """One recorded occurrence (immutable by convention).

    This is a *view*: the engine stores columns, not record objects, and
    builds a ``TraceRecord`` only when a query matches.  A plain
    ``__slots__`` class rather than a frozen dataclass: the
    frozen-dataclass ``__init__`` (one ``object.__setattr__`` per field)
    costs several times a direct attribute store.

    Attributes
    ----------
    time:
        Simulated time of the record.
    kind:
        Dotted event-kind string, e.g. ``"vmm.reboot.start"``,
        ``"service.up"`` — dots give a cheap namespace for prefix queries.
    fields:
        Arbitrary payload (domain id, service name, byte counts, ...).
    """

    __slots__ = ("time", "sequence", "kind", "fields")

    def __init__(
        self,
        time: float,
        sequence: int,
        kind: str,
        fields: dict[str, typing.Any],
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.kind = kind
        self.fields = fields

    def __getitem__(self, key: str) -> typing.Any:
        return self.fields[key]

    def get(self, key: str, default: typing.Any = None) -> typing.Any:
        """Field lookup with a default (dict.get semantics)."""
        return self.fields.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceRecord(time={self.time!r}, sequence={self.sequence!r}, "
            f"kind={self.kind!r}, fields={self.fields!r})"
        )


class Tracer:
    """Collects trace records for one simulation, columnar-style."""

    __slots__ = (
        "_sim",
        "_sequence",
        "_seq_base",
        "_kind_ids",
        "_kind_names",
        "_prefix_cache",
        "_times",
        "_kids",
        "_payloads",
        "_tappend",
        "_kappend",
        "_pappend",
        "_kind_rows",
        "_indexed",
        "_schema",
    )

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._schema: dict[str, TraceKindSpec] | None = None
        self._sequence = 0
        self._seq_base = 0
        self._kind_ids: dict[str, int] = {}
        self._kind_names: list[str] = []
        self._prefix_cache: dict[str, list[int] | None] = {}
        self._new_columns()

    def _new_columns(self) -> None:
        """Fresh list-backed columns; the bound ``append`` methods are
        cached so ``record()`` pays no attribute lookups on them.

        ``_kind_rows[kid]`` holds the rows of kind ``kid`` among the
        first ``_indexed`` rows, in row order (see :meth:`_index`).
        """
        self._times: list[float] = []
        self._kids: list[int] = []
        self._payloads: list[dict[str, typing.Any]] = []
        self._tappend = self._times.append
        self._kappend = self._kids.append
        self._pappend = self._payloads.append
        self._kind_rows: list[list[int]] = [[] for _ in self._kind_names]
        self._indexed = 0

    # -- recording -------------------------------------------------------------

    def record(self, kind: str, **fields: typing.Any) -> None:
        """Append a record stamped with the current simulated time.

        One list append per column and no per-record object; nothing
        else runs.  Returns ``None``; use :meth:`last` to inspect what
        was just recorded.
        """
        if self._schema is not None:
            self._check_schema(kind, fields)
        self._sequence += 1
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = self._intern(kind)
        self._tappend(self._sim._now)
        self._kappend(kid)
        self._pappend(fields)

    def enable_schema_validation(self) -> None:
        """Check every future record's payload against :data:`TRACE_SCHEMA`.

        Turned on by the simulator when the determinism sanitizer is
        attached — the runtime complement of simlint rule SL006 for call
        sites the static check cannot see (``**kwargs`` expansion,
        computed kinds).  Off by default so the unvalidated hot path
        costs a single ``is not None`` test.
        """
        self._schema = TRACE_SCHEMA

    def _check_schema(self, kind: str, fields: dict[str, typing.Any]) -> None:
        """Declared kinds must carry required ⊆ fields ⊆ allowed.

        Undeclared kinds pass — ad-hoc kinds are legitimate in tests and
        exploratory scripts; SL006 already bars them from ``src/``.
        """
        spec = self._schema.get(kind)  # type: ignore[union-attr]
        if spec is None:
            return
        keys = fields.keys()
        if not spec.required <= keys:
            missing = sorted(spec.required - keys)
            raise SimulationError(
                f"trace record {kind!r} is missing required fields {missing}"
            )
        if not keys <= spec.allowed:
            extra = sorted(keys - spec.allowed)
            raise SimulationError(
                f"trace record {kind!r} carries undeclared fields {extra}"
            )

    def _intern(self, kind: str) -> int:
        kid = self._kind_ids[kind] = len(self._kind_names)
        self._kind_names.append(kind)
        self._kind_rows.append([])
        self._prefix_cache.clear()  # a new kind may extend any prefix set
        return kid

    # -- columnar internals ----------------------------------------------------

    def _prefix_kids(self, prefix: str) -> list[int] | None:
        """Kind-ids whose names start with ``prefix`` (``None`` = all)."""
        try:
            return self._prefix_cache[prefix]
        except KeyError:
            pass
        names = self._kind_names
        if not prefix:
            kids = None
        else:
            kids = [kid for kid, name in enumerate(names) if name.startswith(prefix)]
            if len(kids) == len(names):
                kids = None
        self._prefix_cache[prefix] = kids
        return kids

    def _index(self) -> list[list[int]]:
        """The per-kind row-index lists, extended over the rows recorded
        since the last query."""
        rows = self._kind_rows
        start = self._indexed
        kids = self._kids
        if start < len(kids):
            appends = [kind_rows.append for kind_rows in rows]
            for i in range(start, len(kids)):
                appends[kids[i]](i)
            self._indexed = len(kids)
        return rows

    def _matches(
        self,
        prefix: str,
        since: float,
        until: float,
        filters: list[tuple[str, typing.Any]],
    ) -> typing.Sequence[int]:
        """Row indices matching kind prefix, time window and fields."""
        times = self._times
        lo, hi = 0, len(times)
        if since != _NEG_INF:
            lo = bisect_left(times, since)
        if until != _POS_INF:
            hi = bisect_right(times, until)
        if lo >= hi:
            return []
        wanted = self._prefix_kids(prefix)
        if wanted is None:
            idx: typing.Sequence[int] = range(lo, hi)
        else:
            rows = self._index()
            matched: list[int] = []
            for kid in wanted:
                kind_rows = rows[kid]
                first = bisect_left(kind_rows, lo)
                matched += kind_rows[first:bisect_left(kind_rows, hi, first)]
            if len(wanted) > 1:
                matched.sort()  # each kind's rows are one sorted run
            idx = matched
        if not filters:
            return idx
        payloads = self._payloads
        out = []
        for i in idx:
            fields = payloads[i]
            for key, value in filters:
                got = fields.get(key, _MISSING)
                if got is _MISSING or got != value:
                    break
            else:
                out.append(i)
        return out

    def _records(self, idx: typing.Iterable[int]) -> typing.Iterator[TraceRecord]:
        """Record views of rows ``idx``, times as ``float``."""
        times, kids, names = self._times, self._kids, self._kind_names
        payloads, base = self._payloads, self._seq_base + 1
        for i in idx:
            yield TraceRecord(float(times[i]), base + i, names[kids[i]], payloads[i])

    # -- querying -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kids)

    def __iter__(self) -> typing.Iterator[TraceRecord]:
        return self._records(range(len(self._kids)))

    def select(
        self,
        prefix: str = "",
        since: float = _NEG_INF,
        until: float = _POS_INF,
        **field_filters: typing.Any,
    ) -> list[TraceRecord]:
        """Return records matching a kind prefix, time window and fields.

        ``field_filters`` keep only records where each named field equals
        the given value (missing fields never match).  The time window is
        two bisections and the kind prefix a slice of each matching
        kind's row list; a :class:`TraceRecord` is materialized per
        *matching* row only.
        """
        idx = self._matches(prefix, since, until, list(field_filters.items()))
        return list(self._records(idx))

    def first(
        self,
        prefix: str,
        since: float = _NEG_INF,
        until: float = _POS_INF,
        **field_filters: typing.Any,
    ) -> TraceRecord | None:
        """The earliest record matching prefix, window and fields, or None."""
        idx = self._matches(prefix, since, until, list(field_filters.items()))
        return next(self._records(idx[:1]), None)

    def last(
        self,
        prefix: str,
        since: float = _NEG_INF,
        until: float = _POS_INF,
        **field_filters: typing.Any,
    ) -> TraceRecord | None:
        """The latest record matching prefix, window and fields, or None."""
        idx = self._matches(prefix, since, until, list(field_filters.items()))
        return next(self._records(idx[-1:]), None)

    def times(
        self,
        prefix: str,
        since: float = _NEG_INF,
        until: float = _POS_INF,
        **field_filters: typing.Any,
    ) -> list[float]:
        """Times of all matching records, as floats (no record views)."""
        idx = self._matches(prefix, since, until, list(field_filters.items()))
        times = self._times
        return [float(times[i]) for i in idx]

    def clear(self) -> None:
        """Drop all records.

        Invariant: the sequence counter is **not** reset — it keeps
        growing monotonically across clears, so records made after a
        ``clear()`` always carry strictly larger sequences than anything
        recorded before it.  Resumable analyses rely on this to order
        observations across windows without keeping the records
        themselves.
        """
        self._seq_base = self._sequence
        self._new_columns()
