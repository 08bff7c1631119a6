"""The two-phase analysis engine: file layer, phase-2 rules, reporting.

Phase 1 handles each file independently — parse, run the local rules
(:mod:`.rules`), extract a :class:`~repro.devtools.simlint.index.ModuleIndex`,
parse suppression comments.

Phase 2 merges the indices into a :class:`~repro.devtools.simlint.index.ProjectIndex`
and runs the cross-module rules: SL011 layering/cycles (:mod:`.layers`),
SL012 frozen-spec mutation, SL013 call-graph reachability
(:mod:`.callgraph`), SL014 symbol-table privacy, and SL015 stale
suppressions.

Suppression grammar (comments only — string literals never suppress):

* ``# simlint: skip`` — suppress every finding on this line;
* ``# simlint: skip=SL001,SL003`` — suppress just those rules here;
* ``# simlint: skip-file`` / ``# simlint: skip-file=SL005`` — same, for
  the whole file (put it near the top by convention, any line works).

Suppressed findings are dropped from the report but *counted*, and a
directive that suppresses nothing is itself an SL015 finding.  SL015
cannot be suppressed — a suppression that hides the report of its own
uselessness would never be cleaned up.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import os
import tokenize
import typing

from repro.devtools.simlint.callgraph import check_reachability
from repro.devtools.simlint.index import (
    ModuleIndex,
    ProjectIndex,
    build_module_index,
    package_of,
)
from repro.devtools.simlint.layers import check_layers
from repro.devtools.simlint.rules import (
    ModulePolicy,
    RawFinding,
    RuleVisitor,
    privacy_code,
    privacy_message,
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One reported rule violation."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class LintError:
    """A file simlint could not analyze (syntax error, unreadable)."""

    path: str
    message: str


_DIRECTIVE = "simlint:"


@dataclasses.dataclass(frozen=True)
class Directive:
    """One parsed ``# simlint:`` suppression comment."""

    line: int
    keyword: str  # "skip" or "skip-file"
    rules: tuple[str, ...]  # empty = every rule

    def matches(self, rule: str, line: int) -> bool:
        if self.rules and rule not in self.rules:
            return False
        return self.keyword == "skip-file" or line == self.line

    def render(self) -> str:
        suffix = f"={','.join(self.rules)}" if self.rules else ""
        return f"# simlint: {self.keyword}{suffix}"


class _Suppressions:
    """One file's suppression directives, tracking which ones fired."""

    def __init__(self, directives: typing.Iterable[Directive] = ()) -> None:
        self.directives = list(directives)
        self.used: set[int] = set()

    @property
    def count(self) -> int:
        return len(self.directives)

    def suppresses(self, rule: str, line: int) -> bool:
        if rule == "SL015":
            return False  # see module docstring: SL015 is unsuppressable
        hit = False
        for i, directive in enumerate(self.directives):
            if directive.matches(rule, line):
                self.used.add(i)
                hit = True
        return hit

    def stale(self) -> list[Directive]:
        """Directives that suppressed nothing this run (SL015 material)."""
        return [
            d for i, d in enumerate(self.directives) if i not in self.used
        ]

    @classmethod
    def parse(cls, source: str) -> "_Suppressions":
        sup = cls()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenizeError:
            return sup  # the AST parse will report the real problem
        for line, comment in comments:
            body = comment.lstrip("#").strip()
            if not body.startswith(_DIRECTIVE):
                continue
            directive = body[len(_DIRECTIVE):].strip()
            keyword, _, rules_part = directive.partition("=")
            keyword = keyword.strip()
            if keyword not in ("skip", "skip-file"):
                continue
            rules = tuple(
                sorted(
                    r.strip().upper() for r in rules_part.split(",") if r.strip()
                )
            )
            sup.directives.append(Directive(line, keyword, rules))
        return sup


def _trace_schema() -> typing.Mapping[str, typing.Any]:
    from repro.simkernel.tracing import TRACE_SCHEMA

    return TRACE_SCHEMA


def _span_names() -> typing.AbstractSet[str]:
    from repro.simkernel.spans import SPAN_NAMES

    return SPAN_NAMES


def _metric_schema() -> typing.Mapping[str, typing.Any]:
    from repro.simkernel.metrics import METRIC_SCHEMA

    return METRIC_SCHEMA


# --------------------------------------------------------------------------
# phase 1: per-file records


@dataclasses.dataclass
class _FileRecord:
    """One file's phase-1 output."""

    path: str
    policy: ModulePolicy
    raw: list[RawFinding]
    suppressions: _Suppressions
    index: ModuleIndex


def _analyze_source(
    source: str, path: str, policy: ModulePolicy
) -> _FileRecord:
    """Parse one file and run everything per-file (may raise SyntaxError)."""
    tree = ast.parse(source, filename=path)
    raw = RuleVisitor(
        policy,
        _trace_schema(),
        span_names=_span_names(),
        metric_schema=_metric_schema(),
    ).check(tree)
    return _FileRecord(
        path=path,
        policy=policy,
        raw=raw,
        suppressions=_Suppressions.parse(source),
        index=build_module_index(tree, path),
    )


# --------------------------------------------------------------------------
# phase 2: cross-module rules over the merged index


def _frozen_anywhere(class_table: dict, ref: str) -> bool:
    """Is ``ref`` (or any declared base) a frozen dataclass?"""
    seen: set[str] = set()
    queue = [ref]
    while queue:
        current = queue.pop(0)
        if current in seen:
            continue
        seen.add(current)
        fact = class_table.get(current)
        if fact is None:
            continue
        if fact["frozen"]:
            return True
        queue.extend(fact["bases"])
    return False


def _phase2_findings(
    project: ProjectIndex, records: typing.Sequence[_FileRecord]
) -> dict[str, list[Finding]]:
    """All cross-module findings, grouped by file path."""
    by_path: dict[str, list[Finding]] = {r.path: [] for r in records}
    policies = {r.path: r.policy for r in records}

    # SL011 — layering, unmapped packages, import cycles.
    for item in check_layers(project):
        policy = policies.get(item.path)
        if policy is not None and policy.enabled("SL011"):
            by_path[item.path].append(
                Finding("SL011", item.path, item.line, item.col, item.message)
            )

    # SL013 — sinks reachable from the simulation, in strict library code
    # only (devtools and the rng module are not simulation code).
    sink_files = {
        r.path
        for r in records
        if r.policy.enabled("SL013")
        and not r.policy.is_devtools
        and not r.policy.is_rng_module
    }
    for item in check_reachability(project, sink_files):
        by_path[item.path].append(
            Finding("SL013", item.path, item.line, item.col, item.message)
        )

    class_table = project.class_table()
    for record in records:
        # SL012 — frozen-spec mutation outside __post_init__.
        if record.policy.enabled("SL012"):
            for cand in record.index.frozen_candidates:
                if cand["guarded"]:
                    continue  # inside `with pytest.raises(...)`: never lands
                if not _frozen_anywhere(class_table, cand["class_ref"]):
                    continue
                if cand["kind"] == "setattr":
                    message = (
                        f"object.__setattr__ on frozen spec "
                        f"{cand['class_ref']} outside __post_init__; frozen "
                        "specs are immutable once built — use "
                        "dataclasses.replace() to derive a new instance"
                    )
                else:
                    message = (
                        f"assignment to {cand['attr']!r} mutates frozen spec "
                        f"{cand['class_ref']}; frozen specs are immutable "
                        "once built — use dataclasses.replace() to derive a "
                        "new instance"
                    )
                by_path[record.path].append(
                    Finding(
                        "SL012", record.path, cand["line"], cand["col"], message
                    )
                )

        # SL014 (SL009/SL010 by alias) — cross-package private access on a
        # symbol-table-resolved receiver.
        if record.policy.enabled("SL014"):
            accessor_pkg = record.index.package
            for cand in record.index.private_candidates:
                owner = class_table.get(cand["class_ref"])
                if owner is None or not owner["module"]:
                    continue
                owner_pkg = package_of(owner["module"])
                if owner_pkg is None or owner_pkg == accessor_pkg:
                    continue
                code = privacy_code(owner_pkg)
                if not record.policy.enabled(code):
                    continue
                by_path[record.path].append(
                    Finding(
                        code,
                        record.path,
                        cand["line"],
                        cand["col"],
                        privacy_message(owner_pkg, cand["attr"]),
                    )
                )
    return by_path


# --------------------------------------------------------------------------
# assembly: suppressions, SL015, stats


@dataclasses.dataclass
class Report:
    """A full lint run: findings, failures, and suppression-debt stats."""

    findings: list[Finding]
    errors: list[LintError]
    suppressed: int
    stats: dict[str, typing.Any]


def _assemble_report(
    records: typing.Sequence[_FileRecord],
    errors: list[LintError],
) -> Report:
    project = ProjectIndex()
    for record in records:
        project.add(record.index)
    phase2 = _phase2_findings(project, records)

    findings: list[Finding] = []
    suppressed_total = 0
    suppressed_by_rule: dict[str, int] = {}
    by_file: dict[str, dict[str, int]] = {}
    stale_count = 0

    for record in records:
        items = [
            Finding(raw.rule, record.path, raw.line, raw.col, raw.message)
            for raw in record.raw
        ] + phase2.get(record.path, [])
        # The alias half (SL009/SL010 in the local pass) and the symbol-
        # table half of the privacy rule can hit the same site: dedup.
        items = sorted(set(items), key=lambda f: (f.line, f.col, f.rule))
        file_suppressed = 0
        for finding in items:
            if record.suppressions.suppresses(finding.rule, finding.line):
                file_suppressed += 1
                suppressed_by_rule[finding.rule] = (
                    suppressed_by_rule.get(finding.rule, 0) + 1
                )
            else:
                findings.append(finding)
        suppressed_total += file_suppressed
        if record.policy.enabled("SL015"):
            for directive in record.suppressions.stale():
                stale_count += 1
                findings.append(
                    Finding(
                        "SL015",
                        record.path,
                        directive.line,
                        0,
                        f"stale suppression {directive.render()!r} masks no "
                        "finding; remove it (suppression debt is tracked by "
                        "--stats)",
                    )
                )
        if record.suppressions.count:
            by_file[record.path] = {
                "directives": record.suppressions.count,
                "suppressed": file_suppressed,
            }

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    import_kinds = {"typing": 0, "lazy": 0}
    for record in records:
        for fact in record.index.imports:
            if fact["kind"] in import_kinds:
                import_kinds[fact["kind"]] += 1

    stats: dict[str, typing.Any] = {
        "files": len(records),
        "findings": len(findings),
        "suppressed": suppressed_total,
        "suppressed_by_rule": dict(sorted(suppressed_by_rule.items())),
        "directives": sum(r.suppressions.count for r in records),
        "stale_directives": stale_count,
        "by_file": dict(sorted(by_file.items())),
        "exempt_imports": import_kinds,
    }
    return Report(findings, errors, suppressed_total, stats)


# --------------------------------------------------------------------------
# entry points


_EXCLUDED_DIRS = frozenset(
    {"__pycache__", "fixtures", "build", ".git", ".pytest_cache"}
)


def iter_python_files(paths: typing.Iterable[str]) -> typing.Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths.

    Directory walks skip ``fixtures`` trees (they hold deliberately-broken
    planted code) — passing a fixture file explicitly still lints it.
    """
    for target in paths:
        if os.path.isdir(target):
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in _EXCLUDED_DIRS and not d.endswith(".egg-info")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield target


def lint_project(
    paths: typing.Iterable[str],
    profile: str | None = None,
) -> Report:
    """Lint every python file under ``paths`` with both phases.

    ``profile`` forces ``"strict"``/``"relaxed"`` for every file (default:
    derive per path — ``tests/``/``benchmarks/`` relax).
    """
    records: list[_FileRecord] = []
    errors: list[LintError] = []
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            errors.append(LintError(path, "no such file"))
            continue
        except UnicodeDecodeError:
            errors.append(LintError(path, "not utf-8 text"))
            continue
        policy = ModulePolicy.for_path(path, profile=profile)
        try:
            record = _analyze_source(source, path, policy)
        except SyntaxError as exc:
            errors.append(
                LintError(path, f"syntax error: {exc.msg} (line {exc.lineno})")
            )
            continue
        except UnicodeDecodeError:
            errors.append(LintError(path, "not utf-8 text"))
            continue
        records.append(record)
    return _assemble_report(records, errors)


def lint_paths(
    paths: typing.Iterable[str],
) -> tuple[list[Finding], list[LintError], int]:
    """Lint every python file under ``paths``.

    Returns ``(findings, errors, suppressed_count)`` with findings ordered
    by (path, line, col, rule) for stable output.
    """
    report = lint_project(paths)
    return report.findings, report.errors, report.suppressed


def lint_source(
    source: str,
    path: str,
    policy: ModulePolicy | None = None,
) -> tuple[list[Finding], int]:
    """Lint one module's source text (both phases, single-file project).

    Cross-module rules see only this file, so they under-approximate:
    SL012/SL014 resolve only against classes defined here, SL013 only
    against entry points defined here.  Returns
    ``(findings, suppressed_count)``; raises :class:`SyntaxError` if the
    source does not parse.
    """
    if policy is None:
        policy = ModulePolicy.for_path(path)
    record = _analyze_source(source, path, policy)
    report = _assemble_report([record], [])
    return report.findings, report.suppressed


def lint_file(path: str) -> tuple[list[Finding], int]:
    """Lint one file in isolation; see :func:`lint_source`."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)
