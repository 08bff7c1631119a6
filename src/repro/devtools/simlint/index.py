"""Phase 1 of the whole-program analyzer: the project index.

One :class:`ModuleIndex` is extracted per file — imports (classified as
module-level, lazy or typing-only), class facts (bases, frozen-dataclass
flag), per-function call/sink facts for the call graph, and the candidate
sites the cross-module rules resolve in phase 2 (frozen-spec mutations,
cross-package private-attribute accesses, spawned coroutines).  Every
fact is a plain dict/str/int.

Resolution here is deliberately *local and confident*: a call/receiver is
given a dotted ref only when this module's own imports, defs, parameter
annotations or constructor assignments pin it down.  Unresolvable names
are dropped rather than guessed, so the phase-2 rules under-approximate
instead of flooding the report with speculative findings.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import typing

from repro.devtools.simlint.rules import sink_kind

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for(path: str) -> str:
    """Dotted module name, derived by walking up ``__init__.py`` chains.

    Files outside any package (no ``__init__.py`` beside them) get their
    bare stem, which maps to no layer and no symbol-table package — they
    are still linted locally but skip the package-level rules.
    """
    norm = os.path.abspath(path)
    directory, filename = os.path.split(norm)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: list[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    return ".".join(reversed(parts))


def package_of(module: str) -> str | None:
    """Top-level ``repro`` subpackage a module belongs to.

    ``"repro.cluster.migration"`` → ``"cluster"``; ``"repro.config"`` →
    ``"config"``; ``"repro"`` itself → ``""`` (the foundation root);
    anything outside the ``repro`` namespace → ``None`` (unmapped).
    """
    if module == "repro":
        return ""
    if module.startswith("repro."):
        return module.split(".")[1]
    return None


@dataclasses.dataclass
class ModuleIndex:
    """Everything phase 2 needs to know about one file."""

    path: str
    module: str
    imports: list[dict] = dataclasses.field(default_factory=list)
    classes: dict[str, dict] = dataclasses.field(default_factory=dict)
    functions: dict[str, dict] = dataclasses.field(default_factory=dict)
    spawns: list[dict] = dataclasses.field(default_factory=list)
    frozen_candidates: list[dict] = dataclasses.field(default_factory=list)
    private_candidates: list[dict] = dataclasses.field(default_factory=list)

    @property
    def package(self) -> str | None:
        return package_of(self.module)


def build_module_index(tree: ast.AST, path: str) -> ModuleIndex:
    """Extract one file's index from its parsed AST."""
    index = ModuleIndex(path=path, module=module_name_for(path))
    _IndexVisitor(index).visit(tree)
    return index


class _Scope:
    """One function scope: local defs and locally-typed variables."""

    def __init__(self, qualname: str) -> None:
        self.qualname = qualname
        self.local_defs: dict[str, str] = {}  # name -> function qualname
        self.var_types: dict[str, str] = {}  # name -> class ref


class _IndexVisitor(ast.NodeVisitor):
    """Single walk collecting the :class:`ModuleIndex` facts."""

    def __init__(self, index: ModuleIndex) -> None:
        self.index = index
        self.module = index.module
        self.imports: dict[str, str] = {}  # local name -> dotted target
        self._class_stack: list[str] = []
        self._scopes: list[_Scope] = [_Scope("<module>")]
        self._typing_depth = 0
        self._raises_depth = 0
        self._func_depth = 0
        self.index.functions["<module>"] = {"line": 0, "calls": [], "sinks": []}

    # -- naming ------------------------------------------------------------

    def _local_qual(self, name: str) -> str:
        """Module-local qualname (no module prefix) for the class/function
        tables, e.g. ``"CrashWatchdog.run"``."""
        inner = [s.qualname for s in self._scopes[1:]]
        return ".".join(self._class_stack + inner + [name])

    def _current_function(self) -> dict:
        if len(self._scopes) == 1:
            return self.index.functions["<module>"]
        key = ".".join(
            self._class_stack + [s.qualname for s in self._scopes[1:]]
        )
        return self.index.functions[key]

    # -- imports -----------------------------------------------------------

    def _import_kind(self) -> str:
        if self._typing_depth:
            return "typing"
        if self._func_depth:
            return "lazy"
        return "top"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports[alias.asname or alias.name.split(".")[0]] = alias.name
            self.index.imports.append(
                {
                    "module": alias.name,
                    "names": [],
                    "line": node.lineno,
                    "kind": self._import_kind(),
                }
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = node.module or ""
        if node.level:
            # Resolve ``from .spec import X`` against this module's package.
            base = self.module.split(".")
            if not self.index.path.endswith("__init__.py"):
                base = base[:-1]
            base = base[: len(base) - (node.level - 1)]
            target = ".".join(base + ([target] if target else []))
        if target:
            for alias in node.names:
                self.imports[alias.asname or alias.name] = (
                    f"{target}.{alias.name}"
                )
            self.index.imports.append(
                {
                    "module": target,
                    "names": [a.name for a in node.names],
                    "line": node.lineno,
                    "kind": self._import_kind(),
                }
            )
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        # ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` bodies hold
        # typing-only imports: no runtime edge, exempt from layering.
        test = node.test
        is_typing = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_typing:
            self._typing_depth += 1
            for child in node.body:
                self.visit(child)
            self._typing_depth -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    # -- classes and functions ---------------------------------------------

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name != "dataclass":
                continue
            for kw in decorator.keywords:
                if (
                    kw.arg == "frozen"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
        return False

    def _resolve_base(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Subscript):  # Generic[...] bases
            node = node.value
        return self._resolve_ref(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        local = self._local_qual(node.name)
        bases = [b for b in map(self._resolve_base, node.bases) if b]
        self.index.classes[local] = {
            "line": node.lineno,
            "bases": bases,
            "frozen": self._is_frozen_dataclass(node),
        }
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.AST) -> None:
        local = self._local_qual(node.name)
        self.index.functions.setdefault(
            local, {"line": node.lineno, "calls": [], "sinks": []}
        )
        scope = _Scope(node.name)
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]:
            if arg.annotation is not None:
                ref = self._annotation_ref(arg.annotation)
                if ref:
                    scope.var_types[arg.arg] = ref
        # Register this def as a callable local name in the enclosing
        # scope — unless that scope is a class body, where the def is a
        # method (not callable bare) and registering it would let an
        # unrelated module-level name resolve to it.
        if len(self._scopes) > 1 or not self._class_stack:
            self._scopes[-1].local_defs[node.name] = local
        self._scopes.append(scope)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _annotation_ref(self, annotation: ast.expr) -> str | None:
        """Class ref from an annotation, unwrapping strings, Optional
        unions and subscripts down to a resolvable dotted name."""
        node: ast.expr | None = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self._annotation_ref(node.left)
            if left:
                return left
            return self._annotation_ref(node.right)
        if isinstance(node, ast.Subscript):
            node = node.value
        return self._resolve_ref(node) if node is not None else None

    # -- reference resolution ----------------------------------------------

    def _resolve_name(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope.local_defs:
                qual = scope.local_defs[name]
                return f"{self.module}.{qual}" if self.module else qual
        if name in self.index.classes or name in self.index.functions:
            return f"{self.module}.{name}" if self.module else name
        return self.imports.get(name)

    def _resolve_ref(self, node: ast.expr | None) -> str | None:
        """Best-effort dotted ref for a Name/Attribute chain."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._resolve_name(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(parts)])

    def _var_type(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope.var_types:
                return scope.var_types[name]
        return None

    def _callee_fact(self, func: ast.expr, line: int) -> dict | None:
        """Resolve one call's target into a (ref, via) fact, or None."""
        if isinstance(func, ast.Name):
            ref = self._resolve_name(func.id)
            if ref is None:
                var = self._var_type(func.id)
                return None if var is None else {"ref": var, "via": "call", "line": line}
            return {"ref": ref, "via": "direct", "line": line}
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id in ("self", "cls") and self._class_stack:
                    owner = ".".join(
                        ([self.module] if self.module else [])
                        + self._class_stack
                    )
                    return {
                        "ref": f"{owner}.{func.attr}",
                        "via": "method",
                        "line": line,
                    }
                typed = self._var_type(value.id)
                if typed is not None:
                    return {
                        "ref": f"{typed}.{func.attr}",
                        "via": "method",
                        "line": line,
                    }
            ref = self._resolve_ref(func)
            if ref is not None:
                return {"ref": ref, "via": "direct", "line": line}
        return None

    # -- statements feeding the candidate tables ---------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        # ``x = SomeClass(...)`` types x for receiver resolution.
        if (
            isinstance(node.value, ast.Call)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            ref = self._resolve_ref(node.value.func)
            if ref is not None:
                self._scopes[-1].var_types[node.targets[0].id] = ref
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                self._note_attribute_write(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            ref = self._annotation_ref(node.annotation)
            if ref:
                self._scopes[-1].var_types[node.target.id] = ref
        if isinstance(node.target, ast.Attribute):
            self._note_attribute_write(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._note_attribute_write(node.target)
        self.generic_visit(node)

    def _receiver_class(self, value: ast.expr) -> str | None:
        """Class ref of an attribute access' receiver, when locally known.

        ``self`` receivers are excluded: a method touching its own
        instance is intra-class by definition, and attribute *ownership*
        across an inheritance chain is not statically attributable.
        """
        if isinstance(value, ast.Name) and value.id not in ("self", "cls"):
            return self._var_type(value.id)
        return None

    def _in_post_init(self) -> bool:
        return bool(
            self._class_stack
            and self._scopes[-1].qualname == "__post_init__"
            and len(self._scopes) == 2
        )

    def _enclosing_frozen_class(self) -> str | None:
        """The enclosing class ref when we are inside a method body."""
        if not self._class_stack or len(self._scopes) < 2:
            return None
        owner = ".".join(
            ([self.module] if self.module else []) + self._class_stack
        )
        return owner

    def _note_attribute_write(self, target: ast.Attribute) -> None:
        """Candidate SL012 site: ``receiver.attr = ...``."""
        receiver = target.value
        class_ref = None
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            class_ref = self._enclosing_frozen_class()
            if self._in_post_init():
                return  # __post_init__ self-assignment is the sanctioned escape
        else:
            class_ref = self._receiver_class(receiver)
        if class_ref is None:
            return
        self.index.frozen_candidates.append(
            {
                "line": target.lineno,
                "col": target.col_offset,
                "class_ref": class_ref,
                "attr": target.attr,
                "kind": "assign",
                "guarded": self._raises_depth > 0,
            }
        )

    def visit_With(self, node: ast.With) -> None:
        # ``with pytest.raises(...):`` bodies assert that the mutation
        # fails — the write never lands, so SL012 stays quiet there.
        raises = any(
            isinstance(item.context_expr, ast.Call)
            and isinstance(item.context_expr.func, ast.Attribute)
            and item.context_expr.func.attr == "raises"
            for item in node.items
        )
        if raises:
            self._raises_depth += 1
            self.generic_visit(node)
            self._raises_depth -= 1
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Candidate SL014 site: typed receiver, private attribute read.
        if (
            node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not isinstance(node.ctx, ast.Store)
        ):
            class_ref = self._receiver_class(node.value)
            if class_ref is not None:
                self.index.private_candidates.append(
                    {
                        "line": node.lineno,
                        "col": node.col_offset,
                        "attr": node.attr,
                        "class_ref": class_ref,
                    }
                )
        self.generic_visit(node)

    # -- calls: edges, sinks, spawns, setattr escapes ----------------------

    def visit_Call(self, node: ast.Call) -> None:
        fact = self._callee_fact(node.func, node.lineno)
        function = self._current_function()
        if fact is not None:
            function["calls"].append(fact)
        qual = self._resolve_ref(node.func)
        if qual is not None:
            kind = sink_kind(qual, bool(node.args or node.keywords))
            if kind is not None:
                function["sinks"].append(
                    {
                        "qual": qual,
                        "kind": kind,
                        "line": node.lineno,
                        "col": node.col_offset,
                    }
                )
        if isinstance(node.func, ast.Attribute) and node.func.attr == "spawn":
            self._note_spawn(node)
        # ``object`` is a builtin, so name resolution never sees it —
        # match the escape hatch syntactically instead.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and node.args
        ):
            self._note_setattr_escape(node)
        self.generic_visit(node)

    def _note_spawn(self, node: ast.Call) -> None:
        """``sim.spawn(coroutine(...))`` marks the coroutine a process
        root for SL013 reachability."""
        if not node.args:
            return
        arg = node.args[0]
        if not isinstance(arg, ast.Call):
            return
        fact = self._callee_fact(arg.func, node.lineno)
        if fact is not None:
            self.index.spawns.append(fact)

    def _note_setattr_escape(self, node: ast.Call) -> None:
        """``object.__setattr__(x, "field", v)`` bypasses frozen-ness."""
        target = node.args[0]
        class_ref = None
        if isinstance(target, ast.Name) and target.id == "self":
            if self._in_post_init():
                return
            class_ref = self._enclosing_frozen_class()
        else:
            class_ref = self._receiver_class(target)
        if class_ref is None:
            return
        attr = ""
        if (
            len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            attr = node.args[1].value
        self.index.frozen_candidates.append(
            {
                "line": node.lineno,
                "col": node.col_offset,
                "class_ref": class_ref,
                "attr": attr,
                "kind": "setattr",
                "guarded": self._raises_depth > 0,
            }
        )


@dataclasses.dataclass
class ProjectIndex:
    """The merged phase-1 output: every module's index plus lookups."""

    modules: dict[str, ModuleIndex] = dataclasses.field(default_factory=dict)

    def add(self, index: ModuleIndex) -> None:
        self.modules[index.path] = index

    # -- lookups built lazily after all modules are added ------------------

    def by_module(self) -> dict[str, ModuleIndex]:
        return {m.module: m for m in self.modules.values() if m.module}

    def class_table(self) -> dict[str, dict]:
        """Dotted class ref -> {"module", "frozen", "bases", "methods"}."""
        table: dict[str, dict] = {}
        for index in self.modules.values():
            prefix = f"{index.module}." if index.module else ""
            for local, fact in index.classes.items():
                methods = sorted(
                    name[len(local) + 1 :]
                    for name in index.functions
                    if name.startswith(f"{local}.")
                    and "." not in name[len(local) + 1 :]
                )
                table[f"{prefix}{local}"] = {
                    "module": index.module,
                    "frozen": fact["frozen"],
                    "bases": fact["bases"],
                    "methods": methods,
                }
        return table

    def function_table(self) -> dict[str, tuple[ModuleIndex, str, dict]]:
        """Dotted function ref -> (owning index, local name, fact)."""
        table: dict[str, tuple[ModuleIndex, str, dict]] = {}
        for index in self.modules.values():
            prefix = f"{index.module}." if index.module else ""
            for local, fact in index.functions.items():
                if local == "<module>":
                    continue
                table[f"{prefix}{local}"] = (index, local, fact)
        return table

    def resolve_import_module(self, fact: dict) -> list[str]:
        """Module-granularity targets of one import fact.

        ``from repro.x import y`` targets ``repro.x.y`` when that is a
        project module (it was a submodule import), else ``repro.x``.
        """
        modules = self.by_module()
        base = fact["module"]
        targets = []
        names = fact.get("names") or []
        for name in names:
            dotted = f"{base}.{name}"
            if dotted in modules:
                targets.append(dotted)
        if not names or len(targets) < len(names):
            targets.append(base)
        return targets
