"""`repro-lint` — the AST-based invariant checker's framework core.

The codebase rests on invariants no generic linter knows about: streamed
builds must be byte-identical to serial ones (exact 2**-105 fixed-point
accumulation, ``repro.index.builder``), worker pools must never pickle
regexes or mmap state (the build's spawn pool), wire envelopes must
serialize byte-stably (``repro.api.wire``), and service caches must only
be touched under their locks.  Violations surface as flaky tests or —
worse — silent cross-host index mismatches.  This module provides the
machinery to express those invariants as small AST rules and enforce
them in CI, the same way Deequ/TFDV ship declarative checkers instead of
relying on tests alone.

Three pieces, mirroring the shape of :mod:`repro.api.registry`:

* a **rule registry** — :func:`register_rule` / :func:`get_rule` /
  :func:`available_rules`; every rule is a :class:`LintRule` with a
  stable id (``AV101``), a family name (``determinism/unsorted-listing``)
  and a path *scope* restricting where it applies;
* an **engine** — :func:`lint_source` / :func:`lint_file` /
  :func:`lint_paths` parse each file once, attach parent links, apply
  every in-scope rule and filter suppressed findings;
* a **report** — :class:`LintReport` with deterministic ordering,
  canonical JSON (the CI artifact) and a human ``file:line:col rule-id
  message`` format.

Suppression syntax (documented in ``src/repro/analysis/RULES.md``)::

    x = os.listdir(p)  # repro-lint: disable=AV101
    # repro-lint: disable=AV101        <- comment-only line covers the next line
    # repro-lint: disable-file=AV103   <- anywhere: covers the whole file

Two further comment conventions are *inputs* to specific rules rather
than suppressions: ``# guarded-by: _lock`` on an attribute assignment
declares the attribute lock-guarded (rule AV301 then enforces it), and
``# holds-lock: _lock`` on a method declares that every caller already
holds the lock.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Version tag carried by the JSON report (bump on breaking shape changes).
LINT_REPORT_VERSION = 1

#: Directories never walked when linting a tree.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "node_modules"}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s\-]+|all)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str       # stable id, e.g. "AV101"
    name: str       # family/rule name, e.g. "determinism/unsorted-listing"
    path: str       # file the violation is in (as given to the engine)
    line: int       # 1-based
    col: int        # 0-based (ast convention)
    message: str
    severity: str = "error"

    def format_human(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} [{self.name}] {self.message}"

    def to_payload(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)


class LintRule:
    """Base class of every registered rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` is a tuple of substring patterns matched against the
    posix-normalized path: empty means the rule applies everywhere,
    otherwise at least one pattern must occur in the path.  Scoping keeps
    repo-specific rules (e.g. fixed-point exactness) from flagging code
    whose invariants are different by design.
    """

    #: Stable identifier, e.g. ``"AV101"`` (used in suppressions/reports).
    rule_id: str = ""
    #: Family/rule name, e.g. ``"determinism/unsorted-listing"``.
    name: str = ""
    #: One-line description shown by ``lint --list-rules``.
    description: str = ""
    #: Path substrings the rule is restricted to (empty = every file).
    scope: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.scope:
            return True
        posix = path.replace("\\", "/")
        return any(pattern in posix for pattern in self.scope)

    def check(self, module: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: "ModuleContext", node: ast.AST, message: str) -> Finding:
        """Convenience constructor stamping this rule's id/name."""
        return Finding(
            rule=self.rule_id,
            name=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# -- the rule registry (same extension point shape as repro.api.registry) -----

_RULES: dict[str, LintRule] = {}


def register_rule(rule: LintRule, *, replace: bool = False) -> None:
    """Register ``rule`` under its ``rule_id``; third-party checks use the
    same entry point as the built-ins."""
    if not rule.rule_id or not rule.name:
        raise ValueError(f"rule {rule!r} must define rule_id and name")
    if not replace and rule.rule_id in _RULES:
        raise ValueError(f"lint rule {rule.rule_id!r} is already registered")
    _RULES[rule.rule_id] = rule


def get_rule(rule_id: str) -> LintRule:
    """The registered rule for ``rule_id`` (e.g. ``"AV101"``)."""
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {rule_id!r}; choose from {available_rules()}"
        ) from None


def available_rules() -> list[str]:
    """Sorted ids of every registered rule."""
    return sorted(_RULES)


def all_rules() -> list[LintRule]:
    """Every registered rule, in id order."""
    return [_RULES[rule_id] for rule_id in available_rules()]


# -- parsed-module context ------------------------------------------------------

_PARENT_ATTR = "_repro_lint_parent"


@dataclass
class ModuleContext:
    """One parsed source file, shared by every rule that checks it."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str]
    #: rule ids suppressed for the whole file
    file_suppressed: frozenset[str] = frozenset()
    #: line number -> rule ids suppressed on that line
    line_suppressed: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        attach_parents(tree)
        lines = source.splitlines()
        file_suppressed, line_suppressed = _parse_suppressions(lines)
        return cls(
            path=path,
            source=source,
            tree=tree,
            lines=lines,
            file_suppressed=file_suppressed,
            line_suppressed=line_suppressed,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_suppressed or "all" in self.file_suppressed:
            return True
        on_line = self.line_suppressed.get(finding.line, frozenset())
        return finding.rule in on_line or "all" in on_line

    def line_at(self, lineno: int) -> str:
        """The 1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def attach_parents(tree: ast.AST) -> None:
    """Link every node to its parent so rules can walk ancestor chains."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            setattr(child, _PARENT_ATTR, parent)


def parent_of(node: ast.AST) -> ast.AST | None:
    return getattr(node, _PARENT_ATTR, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Walk parents from ``node`` (exclusive) up to the module root."""
    current = parent_of(node)
    while current is not None:
        yield current
        current = parent_of(current)


def _parse_suppressions(
    lines: Sequence[str],
) -> tuple[frozenset[str], dict[int, frozenset[str]]]:
    file_suppressed: set[str] = set()
    line_suppressed: dict[int, set[str]] = {}
    for i, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        mode, raw = match.groups()
        rule_ids = {part.strip() for part in raw.split(",") if part.strip()}
        if mode == "disable-file":
            file_suppressed |= rule_ids
            continue
        # A comment-only line covers the *next* line; a trailing comment
        # covers its own line.
        target = i + 1 if line.lstrip().startswith("#") else i
        line_suppressed.setdefault(target, set()).update(rule_ids)
    return (
        frozenset(file_suppressed),
        {line: frozenset(found) for line, found in line_suppressed.items()},
    )


# -- the engine -----------------------------------------------------------------


def _resolve_rules(rules: Sequence[LintRule | str] | None) -> list[LintRule]:
    if rules is None:
        return all_rules()
    return [get_rule(rule) if isinstance(rule, str) else rule for rule in rules]


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[LintRule | str] | None = None,
    *,
    respect_scope: bool = True,
) -> list[Finding]:
    """Lint one source string; findings come back in deterministic order.

    ``path`` participates in rule scoping — tests pass virtual paths
    (e.g. ``src/repro/index/builder.py``) to place a fixture inside a
    scoped rule's territory, or ``respect_scope=False`` to apply the
    requested rules regardless of path.
    """
    module = ModuleContext.parse(source, path)
    findings: list[Finding] = []
    for rule in _resolve_rules(rules):
        if respect_scope and not rule.applies_to(path):
            continue
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings


def lint_file(
    path: str | Path, rules: Sequence[LintRule | str] | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), rules)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered.

    Directories are walked recursively in sorted order (the checker's own
    determinism rule applies to the checker); cache/VCS directories are
    skipped.  Missing paths raise :class:`FileNotFoundError` so a CI typo
    fails loudly instead of silently linting nothing.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(found.parts):
                    yield found
        elif path.is_file():
            yield path
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


@dataclass(frozen=True)
class LintReport:
    """Everything one lint run produced, with both output formats."""

    findings: tuple[Finding, ...]
    files_scanned: int
    #: Files that failed to parse: (path, error message).  Reported as
    #: findings too (rule ``AV000``) so they fail the run.
    parse_errors: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_payload(self) -> dict:
        return {
            "version": LINT_REPORT_VERSION,
            "files_scanned": self.files_scanned,
            "findings": [finding.to_payload() for finding in self.findings],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact) — the CI artifact format."""
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))

    def format_human(self) -> str:
        out = [finding.format_human() for finding in self.findings]
        noun = "file" if self.files_scanned == 1 else "files"
        if self.findings:
            out.append(
                f"{len(self.findings)} violation"
                f"{'s' if len(self.findings) != 1 else ''} "
                f"in {self.files_scanned} {noun}"
            )
        else:
            out.append(f"ok: {self.files_scanned} {noun} clean")
        return "\n".join(out)


def lint_paths(
    paths: Sequence[str | Path], rules: Sequence[LintRule | str] | None = None
) -> LintReport:
    """Lint every Python file under ``paths`` (files or directories)."""
    resolved = _resolve_rules(rules)
    findings: list[Finding] = []
    parse_errors: list[tuple[str, str]] = []
    files_scanned = 0
    for file_path in iter_python_files(paths):
        files_scanned += 1
        path_str = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            module = ModuleContext.parse(source, path_str)
        except (SyntaxError, UnicodeDecodeError) as exc:
            parse_errors.append((path_str, str(exc)))
            findings.append(
                Finding(
                    rule="AV000",
                    name="framework/parse-error",
                    path=path_str,
                    line=getattr(exc, "lineno", None) or 1,
                    col=0,
                    message=f"file does not parse: {exc}",
                )
            )
            continue
        for rule in resolved:
            if not rule.applies_to(path_str):
                continue
            for finding in rule.check(module):
                if not module.is_suppressed(finding):
                    findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return LintReport(
        findings=tuple(findings),
        files_scanned=files_scanned,
        parse_errors=tuple(parse_errors),
    )
