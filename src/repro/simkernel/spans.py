"""Causal spans on top of the columnar tracer.

Flat trace records say *when* something happened; spans say *why* — every
span has a parent, so a FIG7 downtime number can be walked back to the
exact reboot phase (and the exact domain's suspend) that produced it.
The design deliberately adds no storage of its own:

* a span is two ordinary trace records, ``span.begin`` and ``span.end``,
  whose integer ``span``/``parent`` ids are payload fields like any
  other (see :mod:`repro.simkernel.tracing`);
* nesting is tracked with **per-actor stacks** — concurrent processes
  (eleven domains suspending in parallel) each carry their own actor
  name, so interleaved begin/end pairs never mis-parent;
* cross-actor causality (a domain's suspend caused by its host's reboot)
  is expressed by passing ``parent=tracker.current(host_actor)``
  explicitly at the spawn site.

Spans ride the deterministic event paths and never schedule, draw
randomness, or mutate component state, so instrumented and
uninstrumented runs produce bit-identical experiment rows — the same
contract the determinism sanitizer established.

Span *names* form a closed taxonomy (:data:`SPAN_NAMES`): simlint rule
SL008 statically rejects unregistered literal names, and
:meth:`SpanTracker.span` rejects them at runtime, so the Perfetto
exporter and the critical-path analyzer can rely on the vocabulary.
Per-instance variation (which strategy, which phase, which domain) goes
in the free-form ``detail`` field, not the name.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator

ROOT = 0
"""``parent`` id of a top-level span (real span ids start at 1)."""

SPAN_NAMES: frozenset[str] = frozenset(
    {
        # whole-host rejuvenation (detail = strategy value)
        "reboot",
        # one strategy phase inside a reboot (detail = phase name)
        "reboot.phase",
        # per-domain VMM work during a reboot / save-restore cycle
        "vmm.suspend",
        "vmm.resume",
        "vmm.save",
        "vmm.restore",
        # guest-OS lifecycle (detail = domain where not the actor)
        "guest.boot",
        "guest.shutdown",
        "guest.rejuvenation",
        # one VM's live migration (detail = source->destination)
        "migration.vm",
        # fleet tier: one host's epoch-scheduled reboot (detail = strategy)
        "fleet.host",
        # autonomic control plane: one loop cycle (detail = strategy name)
        "control.cycle",
        # one applied action inside a cycle (detail = action kind)
        "control.action",
    }
)
"""The registered span taxonomy — the only names :meth:`SpanTracker.span`
accepts.  Extend this set (and DESIGN.md's taxonomy table) when
instrumenting a new control flow; SL008 keeps call sites honest."""


class Span:
    """One open span; a context manager handed out by :class:`SpanTracker`.

    ``with`` scoping is the API on purpose: the tracker can then assert
    strict last-in-first-out nesting per actor, which is what makes the
    begin/end records reconstructible into a tree without per-record
    parent back-pointers.
    """

    __slots__ = ("tracker", "name", "actor", "detail", "parent", "id")

    def __init__(
        self,
        tracker: "SpanTracker",
        name: str,
        actor: str,
        detail: str,
        parent: int | None,
    ) -> None:
        self.tracker = tracker
        self.name = name
        self.actor = actor
        self.detail = detail
        self.parent = parent
        self.id = 0  # assigned at __enter__

    def __enter__(self) -> "Span":
        self.tracker._begin(self)
        return self

    def __exit__(self, exc_type: typing.Any, exc: typing.Any, tb: typing.Any) -> None:
        self.tracker._end(self)


class SpanTracker:
    """Per-simulator span bookkeeping: id allocation and actor stacks.

    Lives on every :class:`~repro.simkernel.kernel.Simulator` as
    ``sim.spans``; holds no records itself — begin/end land in
    ``sim.trace`` as ``span.begin`` / ``span.end`` records.
    """

    __slots__ = ("_sim", "_next_id", "_stacks")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._next_id = 0
        self._stacks: dict[str, list[int]] = {}

    def span(
        self,
        name: str,
        actor: str,
        detail: str = "",
        parent: int | None = None,
    ) -> Span:
        """An unopened span; use as ``with sim.spans.span(...) as sp:``.

        ``parent`` overrides the implicit parent (the actor's innermost
        open span) for cross-actor causality; pass
        ``tracker.current(other_actor)`` from the site that knows the
        causal origin.  An explicit :data:`ROOT` (the other actor had
        nothing open) falls back to this actor's own stack, so the same
        call site works whether or not the causal origin is active.
        """
        if name not in SPAN_NAMES:
            raise SimulationError(
                f"span name {name!r} is not registered in SPAN_NAMES"
            )
        return Span(self, name, actor, detail, parent)

    def current(self, actor: str) -> int:
        """The innermost open span id for ``actor`` (:data:`ROOT` if none)."""
        stack = self._stacks.get(actor)
        return stack[-1] if stack else ROOT

    # -- called by Span.__enter__/__exit__ only ------------------------------------

    def _begin(self, span: Span) -> None:
        self._next_id += 1
        span.id = self._next_id
        stack = self._stacks.setdefault(span.actor, [])
        parent = span.parent
        if not parent:  # None or ROOT: the actor's own innermost span
            parent = stack[-1] if stack else ROOT
        span.parent = parent
        stack.append(span.id)
        self._sim.trace.record(
            "span.begin",
            span=span.id,
            parent=parent,
            name=span.name,
            actor=span.actor,
            detail=span.detail,
        )

    def _end(self, span: Span) -> None:
        stack = self._stacks.get(span.actor)
        if not stack or stack[-1] != span.id:
            raise SimulationError(
                f"span {span.name!r} (id {span.id}) ended out of order on "
                f"actor {span.actor!r}"
            )
        stack.pop()
        if not stack:
            del self._stacks[span.actor]
        self._sim.trace.record("span.end", span=span.id)

    def open_spans(self) -> dict[str, list[int]]:
        """Actor -> open span-id stack (outermost first); for leak checks."""
        return {actor: list(stack) for actor, stack in self._stacks.items()}
