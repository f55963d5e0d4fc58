"""Spawn-safety rule (AV201).

The spawn-pool contract (the streaming build's scan pool in
``repro.index.builder``): worker pools are started with the ``spawn`` method and the task payload pickles
only plain values, config dataclasses and raw entry maps — **never**
compiled regexes, mmap/shard handles, locks or open file objects.
Violations do not always fail loudly: some of these objects pickle "fine"
(``re.Pattern`` re-compiles on unpickle) but silently forfeit the
spawn-safety guarantees (per-process memoization, no inherited fds), and
others (mmap, locks, file handles) crash only on the first large batch
that actually reaches the pool.

AV201 inspects every submission boundary — ``<pool>.submit(...)``,
``<pool>.map(...)`` and ``ProcessPoolExecutor(initargs=...)`` — and flags
arguments that syntactically carry a known-unpicklable resource: a direct
call to ``re.compile``/``mmap.mmap``/``threading.Lock``/``open``/…, a
local name bound to one of those calls earlier in the same function, or
an attribute whose name marks it as a resource handle (``_lock``,
``_mm``, ``_pool``, ``_file``, ``compiled`` …).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, LintRule, ModuleContext
from repro.analysis.rules._helpers import call_name, enclosing_function, safe_unparse

#: Calls producing objects that must never cross a spawn boundary.
_RESOURCE_FACTORIES = frozenset(
    {
        "re.compile",
        "mmap.mmap",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "open",
        "os.open",
        "gzip.open",
        "os.fdopen",
    }
)

#: Attribute / variable terminal names that mark resource handles by
#: convention in this codebase.
_RESOURCE_NAMES = frozenset(
    {
        "_lock",
        "lock",
        "_rlock",
        "_mm",
        "_mmap",
        "_file",
        "_fh",
        "_fd",
        "_handle",
        "_regex",
        "_compiled",
        "compiled",
        "_pool",
        "_readers",
    }
)

#: Callee object names treated as executor/pool handles.
_POOL_NAMES = frozenset({"pool", "_pool", "executor", "_executor"})


class SpawnSafetyRule(LintRule):
    """AV201: an unpicklable resource reaches a pool submission boundary."""

    rule_id = "AV201"
    name = "spawn-safety/unpicklable-task"
    description = (
        "compiled regexes, mmap/file handles, locks or pools passed to "
        "pool.submit/map or ProcessPoolExecutor initargs — spawn workers "
        "must receive plain data and re-open resources locally"
    )
    scope = ()  # tree-wide: any module may create a pool

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            boundary = self._submission_boundary(node)
            if boundary is None:
                continue
            tainted_locals = self._tainted_locals(node)
            for arg in self._boundary_args(node, boundary):
                reason = self._find_resource(arg, tainted_locals)
                if reason is not None:
                    yield self.finding(
                        module,
                        arg,
                        f"{reason} crosses the {boundary} spawn boundary; "
                        "ship plain data (values, config, paths) and "
                        "re-open resources inside the worker",
                    )

    # -- boundary detection --------------------------------------------------

    @staticmethod
    def _submission_boundary(node: ast.Call) -> str | None:
        """Name of the spawn boundary this call is, or None."""
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("submit", "map"):
            base = func.value
            terminal = None
            if isinstance(base, ast.Name):
                terminal = base.id
            elif isinstance(base, ast.Attribute):
                terminal = base.attr
            if terminal is not None and terminal.lower() in _POOL_NAMES:
                return f"{terminal}.{func.attr}"
        name = call_name(node)
        if name is not None and name.split(".")[-1] == "ProcessPoolExecutor":
            if any(kw.arg == "initargs" for kw in node.keywords):
                return "ProcessPoolExecutor(initargs=...)"
        return None

    @staticmethod
    def _boundary_args(node: ast.Call, boundary: str) -> list[ast.expr]:
        if boundary.startswith("ProcessPoolExecutor"):
            return [kw.value for kw in node.keywords if kw.arg == "initargs"]
        return list(node.args) + [kw.value for kw in node.keywords]

    # -- taint ----------------------------------------------------------------

    @staticmethod
    def _tainted_locals(node: ast.Call) -> frozenset[str]:
        """Local names bound to a resource factory in the enclosing function."""
        function = enclosing_function(node)
        if function is None:
            return frozenset()
        tainted: set[str] = set()
        for stmt in ast.walk(function):
            if not isinstance(stmt, ast.Assign):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            if call_name(stmt.value) not in _RESOURCE_FACTORIES:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
        return frozenset(tainted)

    def _find_resource(
        self, arg: ast.expr, tainted_locals: frozenset[str]
    ) -> str | None:
        """Why ``arg`` is unsafe to pickle, or None when it looks clean."""
        for node in ast.walk(arg):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in _RESOURCE_FACTORIES:
                    return f"direct {name}(...) result"
            if isinstance(node, ast.Name) and node.id in tainted_locals:
                return f"local {node.id!r} (bound to a resource factory)"
            if isinstance(node, ast.Name) and node.id in _RESOURCE_NAMES:
                return f"resource-named variable {node.id!r}"
            if isinstance(node, ast.Attribute) and node.attr in _RESOURCE_NAMES:
                return f"resource attribute {safe_unparse(node) or node.attr!r}"
        return None
