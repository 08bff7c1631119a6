"""The simlint rule engine: the local (single-file) rules.

The local rules are deliberately *syntactic* — no type inference — so
findings are cheap to verify by eye and the linter stays dependency-free.
Where a rule needs declared facts (SL006's payload schema, SL008's
span/metric registries) they live next to the code they describe
(:data:`repro.simkernel.tracing.TRACE_SCHEMA`,
:data:`repro.simkernel.spans.SPAN_NAMES`,
:data:`repro.simkernel.metrics.METRIC_SCHEMA`), not here.  The
cross-module rules (SL011–SL015) run in phase 2 over the project index
(:mod:`.index`, :mod:`.layers`, :mod:`.callgraph`, :mod:`.analyzer`);
this module still hosts their registry entries, the shared sink
classifier, and the privacy-rule implementation that SL009/SL010/SL014
are all thin code aliases over.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import typing

RULES: dict[str, str] = {
    "SL001": "wall-clock call in simulation code",
    "SL002": "randomness outside simkernel.rng",
    "SL003": "iteration over a set or id()-keyed dict",
    "SL004": "direct heapq/list operation on scheduler-backend storage",
    "SL005": "bare assert in library code",
    "SL006": "trace record() payload does not match TRACE_SCHEMA",
    "SL007": "ad-hoc stack construction in an experiment module",
    "SL008": "unregistered span/metric name, or hand-written span record",
    "SL009": "scheduler-backend internals accessed outside repro/simkernel",
    "SL010": "fleet/shard internals accessed outside repro/fleet",
    "SL011": "import violates the declared layer map (or forms a cycle)",
    "SL012": "frozen spec dataclass mutated outside __post_init__",
    "SL013": "wall-clock/unseeded-RNG sink reachable from the simulation",
    "SL014": "cross-package private-attribute access",
    "SL015": "stale simlint suppression (masks no finding)",
}

RELAXED_DISABLED: frozenset[str] = frozenset(
    {
        "SL001",  # timing real work is what test/bench harnesses do
        "SL002",  # tests may draw throwaway randomness
        "SL003",  # assertion order on small sets is the test's business
        "SL005",  # bare asserts are pytest's native idiom
        "SL006",  # trace-parser tests hand-craft invalid payloads
        "SL008",  # span/metric-registry tests probe unregistered names
        "SL009",  # white-box backend tests inspect internals on purpose
        "SL010",  # fleet tests reach into shards to verify isolation
        "SL013",  # sinks in test/bench files are measurement, not sim code
        "SL014",  # white-box tests may read privates cross-package
    }
)
"""Rules the *relaxed* profile (tests/, benchmarks/) turns off.

What stays enforced everywhere: SL004 (scheduler-storage pushes), SL011
(layering/cycles), SL012 (frozen-spec mutation), SL007 and SL015.
"""

# SL001 — anything that reads the host clock.  Simulated components must
# derive time from ``sim.now``; only driver/CLI modules may time *real*
# work, and then only with a monotonic clock (wall time jumps under NTP).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
_MONOTONIC = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

# SL002 — generator constructors that are deterministic *when seeded*.
_SEEDABLE = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
    }
)

# SL003 — order-insensitive consumers a set may flow into unflagged.
_ORDER_SAFE_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset", "bool"}
)
# ... and order-sensitive ones that materialize the iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

_SET_ANNOTATIONS = ("set", "frozenset", "typing.Set", "typing.FrozenSet", "Set", "FrozenSet")

# SL008 — metric factory methods, whose name doubles as the expected
# registry kind (``metrics.counter("x")`` demands ``METRIC_SCHEMA["x"]``
# be declared a counter).
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

# SL004 — the scheduler backends' entry stores.  Pushing into (or popping
# from) any of these outside the owning modules bypasses the sequence
# tiebreaker that backend-equivalence rests on.
_BACKEND_STRUCTS = frozenset({"_heap", "_run", "_far"})

# The privacy rule (SL014, with SL009/SL010 as package-specific code
# aliases): private-attribute access is a finding when the receiver's
# owning package differs from the accessing module's package.  Receivers
# are resolved two ways — by declared *alias names* below (a receiver
# spelled ``backend``/``_backend`` denotes a scheduler backend wherever
# it appears, with no project index needed), and in phase 2 by the symbol
# table (parameter annotations / constructor assignments pin the class,
# the class pins the package).  One implementation, one code mapping:
PRIVACY_ALIASES: dict[str, str] = {
    "backend": "simkernel",
    "_backend": "simkernel",
    "fleet": "fleet",
    "_fleet": "fleet",
    "shard": "fleet",
    "_shard": "fleet",
}
"""Receiver name -> owning ``repro`` subpackage."""

_PRIVACY_CODES: dict[str, str] = {"simkernel": "SL009", "fleet": "SL010"}


def privacy_code(owner_package: str) -> str:
    """The reported rule code for a privacy violation against a package.

    The historical SL009/SL010 codes are kept for the two boundaries they
    named; every other package boundary reports the general SL014.
    """
    return _PRIVACY_CODES.get(owner_package, "SL014")


def privacy_message(owner_package: str, attr: str) -> str:
    if owner_package == "simkernel":
        return (
            f"backend-private attribute {attr!r} accessed outside "
            "repro/simkernel; go through the scheduler's public "
            "methods (pending()/storage_size()/peek()/compact())"
        )
    if owner_package == "fleet":
        return (
            f"fleet/shard-private attribute {attr!r} accessed "
            "outside repro/fleet; shards share state only through the "
            "plan/payload dict protocol (FleetSpec.shard_plans / "
            "run_fleet_shard)"
        )
    return (
        f"private attribute {attr!r} of a repro.{owner_package} class "
        "accessed from another package; use (or add) a public accessor "
        "on the owning class"
    )


def sink_kind(qual: str, has_args: bool) -> str | None:
    """Classify a resolved call as a determinism sink (shared by SL001/
    SL002 locally and SL013's call-graph pass).

    ``"wallclock"`` for any host-clock read (monotonic included — from
    simulation-reachable code even elapsed-time reads break bit
    determinism), ``"rng"`` for global-state randomness or an unseeded
    generator construction, else None.
    """
    if qual in _WALL_CLOCK:
        return "wallclock"
    if qual.startswith("random.") or qual.startswith("numpy.random."):
        if qual in _SEEDABLE and has_args:
            return None  # explicitly seeded construction
        return "rng"
    return None

# SL007 — stack entry points experiment modules must not call directly.
# Experiments build their testbeds through the declarative scenario layer
# (repro.scenario.ScenarioBuilder / common.build_testbed), which is the
# single construction path the bit-identical-rows contract is pinned to.
_STACK_ENTRYPOINTS = frozenset({"RootHammer", "Cluster", "Host"})


_PACKAGE_RE = re.compile(r"(?:^|/)repro/(?:([a-z_]+)/|([a-z_0-9]+)\.py$)")

_RELAXED_MARKERS = ("tests/", "benchmarks/")


def profile_for_path(path: str) -> str:
    """``"relaxed"`` for test/benchmark trees, else ``"strict"``."""
    norm = path.replace("\\", "/")
    for marker in _RELAXED_MARKERS:
        if norm.startswith(marker) or f"/{marker}" in norm:
            return "relaxed"
    return "strict"


@dataclasses.dataclass(frozen=True)
class ModulePolicy:
    """Which rules apply to one file, derived from its path.

    ``profile`` selects the enforcement tier: ``"strict"`` (library code
    under ``src/``) runs every rule; ``"relaxed"`` (``tests/``,
    ``benchmarks/``) drops the rules in :data:`RELAXED_DISABLED` while
    keeping layering, frozen-spec mutation, scheduler-storage pushes and
    stale-suppression hygiene enforced.
    """

    is_rng_module: bool = False  # simkernel/rng.py: SL002 exempt
    is_heap_owner: bool = False  # kernel/events/backends, heap oracle: SL004 exempt
    is_driver: bool = False  # CLI/sweep drivers: monotonic clocks allowed
    is_devtools: bool = False  # not simulation code: SL001-SL003 exempt
    is_experiment: bool = False  # repro/experiments/: SL007 applies
    is_span_owner: bool = False  # simkernel/spans.py: may write span.* records
    package: str | None = None  # repro subpackage, for the privacy rule
    profile: str = "strict"

    def enabled(self, rule: str) -> bool:
        if self.profile == "relaxed" and rule in RELAXED_DISABLED:
            return False
        return True

    @classmethod
    def for_path(cls, path: str, profile: str | None = None) -> "ModulePolicy":
        norm = path.replace("\\", "/")
        match = _PACKAGE_RE.search(norm)
        package = (match.group(1) or match.group(2)) if match else None
        return cls(
            is_rng_module=norm.endswith("simkernel/rng.py"),
            is_heap_owner=norm.endswith("simkernel/kernel.py")
            or norm.endswith("simkernel/events.py")
            or norm.endswith("simkernel/backends.py")
            or norm.endswith("tests/simkernel/heap_oracle.py"),
            is_driver=norm.endswith("experiments/cli.py")
            or norm.endswith("experiments/parallel.py")
            or norm.endswith("fleet/cli.py")
            or norm.endswith("fleet/runner.py")
            or norm.endswith("repro/jobs.py"),
            is_devtools="repro/devtools/" in norm,
            is_experiment="repro/experiments/" in norm,
            is_span_owner=norm.endswith("simkernel/spans.py"),
            package=package,
            profile=profile if profile is not None else profile_for_path(norm),
        )


class RawFinding(typing.NamedTuple):
    rule: str
    line: int
    col: int
    message: str


def _qualified_name(
    node: ast.expr, imports: dict[str, str]
) -> str | None:
    """Resolve ``np.random.default_rng`` style chains to dotted names.

    Roots must have been imported in this module (tracked in ``imports``)
    so a local variable that happens to be called ``random`` never
    triggers a rule.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    expanded = imports.get(node.id)
    if expanded is None:
        return None
    parts.append(expanded)
    return ".".join(reversed(parts))


def _is_trace_receiver(func: ast.Attribute) -> bool:
    """True for ``<anything>.trace.record`` / ``trace.record`` chains."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr == "trace"
    if isinstance(value, ast.Name):
        return value.id in ("trace", "tracer")
    return False


def _annotation_is_set(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, (ast.Name, ast.Attribute)) and ast.unparse(
        target
    ) in _SET_ANNOTATIONS


_MODULE_SCOPE = 0
"""Scope key for module-level names (visible from any function)."""

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class _SetFactPass(ast.NodeVisitor):
    """Pre-pass for SL003: which names/attributes hold sets or
    ``id()``-keyed dicts in this module.

    Plain names are tracked *per enclosing function* (keyed by the
    ``id()`` of the function node, shared with :class:`RuleVisitor`'s
    walk over the same tree) so a local set in one function never taints
    a same-named list in another.  Attribute names are module-global:
    ``self._users`` declared a set in ``__init__`` stays a set in every
    method.
    """

    def __init__(self) -> None:
        self.set_names: dict[int, set[str]] = {}
        self.set_attrs: set[str] = set()
        self.idkeyed_names: dict[int, set[str]] = {}
        self.idkeyed_attrs: set[str] = set()
        self._scope = _MODULE_SCOPE

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    def _visit_scope(self, node: ast.AST) -> None:
        outer, self._scope = self._scope, id(node)
        self.generic_visit(node)
        self._scope = outer

    def _note_set_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.set_names.setdefault(self._scope, set()).add(target.id)
        elif isinstance(target, ast.Attribute):
            self.set_attrs.add(target.attr)

    @staticmethod
    def _is_set_literal(value: ast.expr | None) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_literal(node.value):
            for target in node.targets:
                self._note_set_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _annotation_is_set(node.annotation) or self._is_set_literal(node.value):
            self._note_set_target(node.target)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``d[id(x)] = ...`` marks d as id-keyed; iterating or sorting it
        # later would depend on object addresses.
        index = node.slice
        if (
            isinstance(index, ast.Call)
            and isinstance(index.func, ast.Name)
            and index.func.id == "id"
        ):
            if isinstance(node.value, ast.Name):
                self.idkeyed_names.setdefault(self._scope, set()).add(
                    node.value.id
                )
            elif isinstance(node.value, ast.Attribute):
                self.idkeyed_attrs.add(node.value.attr)
        self.generic_visit(node)


class RuleVisitor(ast.NodeVisitor):
    """Single-walk checker producing :class:`RawFinding` entries."""

    def __init__(
        self,
        policy: ModulePolicy,
        trace_schema: typing.Mapping[str, typing.Any],
        span_names: typing.AbstractSet[str] = frozenset(),
        metric_schema: typing.Mapping[str, typing.Any] | None = None,
    ) -> None:
        self.policy = policy
        self.trace_schema = trace_schema
        self.span_names = span_names
        self.metric_schema = metric_schema if metric_schema is not None else {}
        self.findings: list[RawFinding] = []
        self.imports: dict[str, str] = {}
        self.set_facts = _SetFactPass()
        self._scope = _MODULE_SCOPE

    def check(self, tree: ast.AST) -> list[RawFinding]:
        self.set_facts.visit(tree)
        self.visit(tree)
        self.findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return self.findings

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if not self.policy.enabled(rule):
            return
        self.findings.append(
            RawFinding(rule, node.lineno, node.col_offset, message)
        )

    # -- scope tracking (mirrors _SetFactPass's walk) ----------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    def _visit_scope(self, node: ast.AST) -> None:
        outer, self._scope = self._scope, id(node)
        self.generic_visit(node)
        self._scope = outer

    def _name_fact(self, table: dict[int, set[str]], name: str) -> bool:
        return name in table.get(self._scope, ()) or name in table.get(
            _MODULE_SCOPE, ()
        )

    # -- import tracking ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- call-centred rules: SL001, SL002, SL003 (partly), SL004, SL006 ----

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        qual = _qualified_name(func, self.imports)
        if qual is not None:
            self._check_wall_clock(node, qual)
            self._check_randomness(node, qual)
            self._check_heap_access(node, qual)
        self._check_stack_construction(node, func)
        if isinstance(func, ast.Name):
            self._check_order_sensitive_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            if func.attr == "join":
                self._check_order_sensitive_call(node, "join")
            if func.attr in ("record", "_trace"):
                self._check_trace_record(node, func)
            if func.attr == "span":
                self._check_span_name(node, func)
            if func.attr in _METRIC_FACTORIES:
                self._check_metric_name(node, func)
            if (
                func.attr in ("append", "insert", "extend", "pop")
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in _BACKEND_STRUCTS
                and not self.policy.is_heap_owner
            ):
                self._emit(
                    "SL004",
                    node,
                    f"direct mutation of backend storage "
                    f"{func.value.attr!r} bypasses the (priority, sequence) "
                    "tiebreaker; use call_at()/call_in() or an Event",
                )
        self.generic_visit(node)

    # -- the privacy rule, alias half (SL009/SL010 over receiver names) ----
    # The symbol-table half (SL014 over annotated/constructed receivers)
    # runs in phase 2 (analyzer._resolve_private_candidates); both halves
    # share privacy_code()/privacy_message() — one rule, three codes.

    @staticmethod
    def _receiver_alias(value: ast.expr) -> str | None:
        """Owning package when the receiver is a declared alias name."""
        if isinstance(value, ast.Attribute):
            return PRIVACY_ALIASES.get(value.attr)
        if isinstance(value, ast.Name):
            return PRIVACY_ALIASES.get(value.id)
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("_") and not node.attr.startswith("__"):
            owner = self._receiver_alias(node.value)
            if owner is not None and owner != self.policy.package:
                self._emit(
                    privacy_code(owner),
                    node,
                    privacy_message(owner, node.attr),
                )
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, qual: str) -> None:
        if self.policy.is_devtools or qual not in _WALL_CLOCK:
            return
        if self.policy.is_driver and qual in _MONOTONIC:
            return
        if self.policy.is_driver:
            self._emit(
                "SL001",
                node,
                f"{qual}() is not monotonic (jumps under NTP); measure "
                "elapsed real time with time.perf_counter()",
            )
        else:
            self._emit(
                "SL001",
                node,
                f"{qual}() reads the host clock; simulation code must "
                "derive time from sim.now",
            )

    def _check_randomness(self, node: ast.Call, qual: str) -> None:
        if self.policy.is_rng_module or self.policy.is_devtools:
            return
        if not (qual.startswith("random.") or qual.startswith("numpy.random.")):
            return
        if qual in _SEEDABLE and (node.args or node.keywords):
            return  # explicitly seeded generator construction
        detail = (
            "unseeded generator" if qual in _SEEDABLE else "global-state RNG"
        )
        self._emit(
            "SL002",
            node,
            f"{qual}() is a {detail}; draw from a named "
            "simkernel.rng.RandomStreams stream instead",
        )

    def _check_heap_access(self, node: ast.Call, qual: str) -> None:
        if self.policy.is_heap_owner:
            return
        if qual not in ("heapq.heappush", "heapq.heappop", "heapq.heapify"):
            return
        if any(
            isinstance(arg, ast.Attribute) and arg.attr in _BACKEND_STRUCTS
            for arg in node.args
        ):
            self._emit(
                "SL004",
                node,
                f"{qual.split('.')[-1]}() on scheduler-backend storage "
                "bypasses the (priority, sequence) tiebreaker; use "
                "call_at()/call_in() or an Event",
            )

    # -- SL007: ad-hoc stack construction in experiments -------------------

    def _check_stack_construction(
        self, node: ast.Call, func: ast.expr
    ) -> None:
        if not self.policy.is_experiment:
            return
        if isinstance(func, ast.Name):
            constructed = func.id if func.id in _STACK_ENTRYPOINTS else None
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "started"
            and isinstance(func.value, ast.Name)
            and func.value.id == "RootHammer"
        ):
            constructed = "RootHammer.started"
        else:
            constructed = None
        if constructed is not None:
            self._emit(
                "SL007",
                node,
                f"{constructed}() builds a stack by hand in an experiment "
                "module; construct testbeds through the scenario layer "
                "(common.build_testbed or repro.scenario.ScenarioBuilder)",
            )

    # -- SL003: nondeterministic iteration ---------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        facts = self.set_facts
        if isinstance(node, ast.Name):
            return self._name_fact(facts.set_names, node.id)
        if isinstance(node, ast.Attribute):
            return node.attr in facts.set_attrs
        return False

    def _is_idkeyed_expr(self, node: ast.expr) -> bool:
        # d, d.keys(), d.items(), d.values() for an id-keyed dict d.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "items", "values")
        ):
            node = node.func.value
        facts = self.set_facts
        if isinstance(node, ast.Name):
            return self._name_fact(facts.idkeyed_names, node.id)
        if isinstance(node, ast.Attribute):
            return node.attr in facts.idkeyed_attrs
        return False

    def _check_iteration(self, node: ast.AST, iterable: ast.expr) -> None:
        if self.policy.is_devtools:
            return
        if self._is_set_expr(iterable):
            self._emit(
                "SL003",
                node,
                "iterating a set: order depends on hash seeds; iterate a "
                "list or wrap in sorted()",
            )
        elif self._is_idkeyed_expr(iterable):
            self._emit(
                "SL003",
                node,
                "iterating an id()-keyed dict: order depends on object "
                "addresses; key by a stable identifier",
            )

    def _check_order_sensitive_call(self, node: ast.Call, name: str) -> None:
        if self.policy.is_devtools or not node.args:
            return
        arg = node.args[0]
        if name == "sorted":
            # sorted() fixes set order, but id() keys stay address-ordered.
            if self._is_idkeyed_expr(arg):
                self._emit(
                    "SL003",
                    node,
                    "sorting an id()-keyed dict orders by object address; "
                    "key by a stable identifier",
                )
            return
        if name in _ORDER_SENSITIVE_CALLS or name == "join":
            self._check_iteration(node, arg)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter)
        self.generic_visit(node)

    # -- SL005: bare asserts ----------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        self._emit(
            "SL005",
            node,
            "bare assert vanishes under python -O; raise SimulationError/"
            "ValueError (or a narrower repro error) instead",
        )
        self.generic_visit(node)

    # -- SL008: registered span / metric names -----------------------------

    @staticmethod
    def _first_literal_arg(node: ast.Call) -> str | None:
        """The call's first positional argument, if a string literal."""
        if not node.args:
            return None
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return None  # dynamic name: not statically checkable

    @staticmethod
    def _receiver_is(func: ast.Attribute, expected: str) -> bool:
        """True for ``<anything>.<expected>.<attr>`` / ``<expected>.<attr>``."""
        value = func.value
        if isinstance(value, ast.Attribute):
            return value.attr == expected
        return isinstance(value, ast.Name) and value.id == expected

    def _check_span_name(self, node: ast.Call, func: ast.Attribute) -> None:
        if not self.span_names or not self._receiver_is(func, "spans"):
            return
        name = self._first_literal_arg(node)
        if name is not None and name not in self.span_names:
            self._emit(
                "SL008",
                node,
                f"span name {name!r} is not registered in simkernel.spans"
                ".SPAN_NAMES; the taxonomy is closed — put per-instance "
                "variation in detail=",
            )

    def _check_metric_name(self, node: ast.Call, func: ast.Attribute) -> None:
        if not self.metric_schema or not self._receiver_is(func, "metrics"):
            return
        name = self._first_literal_arg(node)
        if name is None:
            return
        spec = self.metric_schema.get(name)
        if spec is None:
            self._emit(
                "SL008",
                node,
                f"metric {name!r} is not registered in simkernel.metrics"
                ".METRIC_SCHEMA; declare its kind/help/unit there first",
            )
        elif spec.kind != func.attr:
            self._emit(
                "SL008",
                node,
                f"metric {name!r} is registered as a {spec.kind} but "
                f"requested via .{func.attr}(); instrument kinds are fixed "
                "in METRIC_SCHEMA",
            )

    # -- SL006: trace payload schema (and SL008's span-record bar) ---------

    def _check_trace_record(self, node: ast.Call, func: ast.Attribute) -> None:
        is_helper = func.attr == "_trace"
        if not is_helper and not _is_trace_receiver(func):
            return
        if not node.args:
            return
        kind_node = node.args[0]
        if (
            isinstance(kind_node, ast.Constant)
            and isinstance(kind_node.value, str)
            and kind_node.value.startswith("span.")
            and not self.policy.is_span_owner
        ):
            # Hand-written span.begin/span.end records can't be balanced-
            # checked; only the context-manager API may emit them.
            self._emit(
                "SL008",
                node,
                f"hand-written {kind_node.value!r} record; span records "
                "must go through sim.spans.span(...) so begin/end stay "
                "balanced (only simkernel/spans.py writes them directly)",
            )
        # The hypervisor's _trace() helper stamps vmm_generation itself.
        implicit = frozenset({"vmm_generation"}) if is_helper else frozenset()
        keys = {kw.arg for kw in node.keywords if kw.arg is not None}
        has_star_kwargs = any(kw.arg is None for kw in node.keywords)

        if isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str):
            spec = self.trace_schema.get(kind_node.value)
            if spec is None:
                self._emit(
                    "SL006",
                    node,
                    f"trace kind {kind_node.value!r} is not declared in "
                    "simkernel.tracing.TRACE_SCHEMA",
                )
                return
            required, allowed = spec.required, spec.allowed
        elif isinstance(kind_node, ast.JoinedStr) and kind_node.values:
            first = kind_node.values[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                return
            prefix = first.value
            family = [
                spec
                for kind, spec in self.trace_schema.items()
                if kind.startswith(prefix)
            ]
            if not family:
                self._emit(
                    "SL006",
                    node,
                    f"no trace kind declared in TRACE_SCHEMA matches "
                    f"prefix {prefix!r}",
                )
                return
            required = frozenset.intersection(*(s.required for s in family))
            allowed = frozenset.union(*(s.allowed for s in family))
        else:
            return  # dynamic kind (a variable): not statically checkable

        unexpected = keys - allowed - implicit
        if unexpected:
            self._emit(
                "SL006",
                node,
                f"payload key(s) {sorted(unexpected)} not declared for this "
                "trace kind in TRACE_SCHEMA",
            )
        if not has_star_kwargs:
            missing = required - keys - implicit
            if missing:
                self._emit(
                    "SL006",
                    node,
                    f"required payload key(s) {sorted(missing)} missing "
                    "for this trace kind (declared in TRACE_SCHEMA)",
                )
