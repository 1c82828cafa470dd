"""Resource-safety checker: handles, writers, and pools must be released.

A ``RecordWriter`` left open holds a staged (never-finalized) shard; a
``DFSReadHandle`` left open pins read-side accounting; an unreleased
pool or unjoined thread leaks processes. The repo's idiom is release on
**all** paths: a ``with`` block, a ``try/finally``, an ``except``
handler that ``abandon``s before re-raising, or handing the object to
an owner that manages its lifecycle.

Per function, the rule records every local name bound directly to a
resource constructor — :data:`RESOURCE_CONSTRUCTORS` maps the callable
(matched by its final name segment, alias-resolved) to its release
methods — and flags the binding unless one of these holds:

* the value is consumed by a ``with`` statement (either constructed in
  the ``with`` item or the bound name is later used as one);
* a release method is called on the name inside a ``finally`` block or
  an ``except`` handler somewhere in the function;
* the name *escapes* the function — returned, yielded, passed to
  another call, stored into an attribute/subscript/container literal —
  transferring ownership to code the rule cannot see.

The escape clause keeps the rule honest rather than exhaustive: a
callee that leaks is flagged where *it* binds the resource, not at
every caller. Deliberately open-ended lifetimes (e.g. a long-lived
daemon registered elsewhere) take a
``# repro: allow[resource-safety] reason`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import import_aliases, resolve_call
from repro.analysis.framework import Finding, ParsedModule, Rule

__all__ = ["ResourceSafetyRule", "RESOURCE_CONSTRUCTORS"]

#: ``constructor-final-segment -> (kind, release method names)``.
RESOURCE_CONSTRUCTORS: dict[str, tuple[str, frozenset[str]]] = {
    "open_read": ("DFS read handle", frozenset({"close"})),
    "RecordWriter": (
        "record writer",
        frozenset({"close", "abandon"}),
    ),
    "ProcessPoolExecutor": ("process pool", frozenset({"shutdown"})),
    "ThreadPoolExecutor": ("thread pool", frozenset({"shutdown"})),
    "Pool": ("process pool", frozenset({"close", "terminate", "join"})),
    "Thread": ("thread", frozenset({"join"})),
    "open": ("file handle", frozenset({"close"})),
}


def _constructor_of(
    node: ast.Call, aliases: dict[str, str]
) -> tuple[str, tuple[str, frozenset[str]]] | None:
    """The resource entry a call constructs, or ``None``."""
    qualified = resolve_call(node, aliases)
    if qualified is None:
        return None
    segment = qualified.rsplit(".", 1)[-1]
    entry = RESOURCE_CONSTRUCTORS.get(segment)
    return (segment, entry) if entry else None


class _FunctionAuditor:
    """Audit one function body for resource bindings and their fates."""

    def __init__(self, func: ast.AST, aliases: dict[str, str]) -> None:
        self.func = func
        self.aliases = aliases
        #: name -> (line, ctor segment, kind, release methods)
        self.bindings: dict[str, tuple[int, str, str, frozenset[str]]] = {}
        self.safe: set[str] = set()
        self._collect_bindings()
        self._scan_fates()

    def _body_walk(self) -> Iterator[ast.AST]:
        """Walk the function body, not entering nested function scopes."""
        stack: list[ast.AST] = list(
            ast.iter_child_nodes(self.func)
        )
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _collect_bindings(self) -> None:
        for node in self._body_walk():
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            found = _constructor_of(node.value, self.aliases)
            if found is None:
                continue
            segment, (kind, releases) = found
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.bindings[target.id] = (
                        node.lineno,
                        segment,
                        kind,
                        releases,
                    )

    def _scan_fates(self) -> None:
        if not self.bindings:
            return
        for node in self._body_walk():
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id in self.bindings:
                        self.safe.add(expr.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None:
                    self._mark_escapes(value)
            elif isinstance(node, ast.Try):
                for body in [node.finalbody] + [
                    handler.body for handler in node.handlers
                ]:
                    for statement in body:
                        for sub in ast.walk(statement):
                            self._check_release(sub)
            elif isinstance(node, ast.Call):
                self._check_call_escapes(node)
            elif isinstance(node, ast.Assign):
                if isinstance(node.value, (ast.Name, ast.Tuple, ast.List)):
                    for target in node.targets:
                        if isinstance(
                            target, (ast.Attribute, ast.Subscript)
                        ):
                            self._mark_escapes(node.value)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                self._mark_escapes(node)

    def _check_release(self, node: ast.AST) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            name = node.func.value.id
            binding = self.bindings.get(name)
            if binding is not None and node.func.attr in binding[3]:
                self.safe.add(name)

    def _check_call_escapes(self, node: ast.Call) -> None:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._mark_escapes(arg)

    def _mark_escapes(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.bindings:
                self.safe.add(sub.id)

    def leaks(self) -> Iterator[tuple[str, int, str, str]]:
        """``(name, line, ctor, kind)`` for every unsafe binding."""
        for name, (line, segment, kind, _) in self.bindings.items():
            if name not in self.safe:
                yield name, line, segment, kind


class ResourceSafetyRule(Rule):
    """Resources must be released on all paths or change owners."""

    id = "resource-safety"
    description = (
        "record writers, DFS read handles, pools, and threads must be "
        "closed via with/try-finally on every path (or escape to an "
        "owner)"
    )
    targets = ("src",)

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Audit every function (and method) in one module."""
        if module.tree is None:
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                auditor = _FunctionAuditor(node, aliases)
                for name, line, segment, kind in auditor.leaks():
                    yield module.finding(
                        self.id,
                        line,
                        f"{kind} '{name}' (from {segment}(...)) may leak: "
                        "no with-block, no release in a finally/except, "
                        "and the name never escapes this function",
                    )
