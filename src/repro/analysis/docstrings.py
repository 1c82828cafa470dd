"""Public-docstring checker for the documented API surfaces.

``docs/ARCHITECTURE.md`` and ``docs/OPERATIONS.md`` link into the
packages listed in :data:`DOCSTRING_ENFORCED`; an undocumented export
there is a documentation regression, not a style nit. The rule requires
a docstring on every public module, class, function, and method in
those trees (underscore-prefixed names and dunder methods other than
the module itself are exempt — the class docstring covers
construction).

This rule previously lived inline in ``scripts/lint.py``; it now rides
the shared framework so suppressions, JSON output, and the rule-table
documentation cover it like every other checker.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ParsedModule, Rule

__all__ = [
    "DocstringRule",
    "DOCSTRING_ENFORCED",
    "missing_public_docstrings",
]

#: Paths (files or package directories, repo-relative) whose public API
#: must be fully docstringed — the surfaces docs/ links into, including
#: this analysis package itself (it polices the bar, so it meets it).
DOCSTRING_ENFORCED = (
    "src/repro/lf",
    "src/repro/streaming",
    "src/repro/parallel",
    "src/repro/serving",
    "src/repro/obs",
    "src/repro/analysis",
    "src/repro/sanitizer",
    "src/repro/core/online_label_model.py",
    "src/repro/core/drift.py",
)


def missing_public_docstrings(tree: ast.Module) -> list[tuple[int, str]]:
    """Public defs without a docstring: ``(lineno, qualified name)``.

    Public means not underscore-prefixed; dunder methods are exempt
    (the class docstring covers construction). The module itself must
    also carry a docstring.
    """
    findings: list[tuple[int, str]] = []
    if not ast.get_docstring(tree):
        findings.append((1, "<module>"))

    def is_public(name: str) -> bool:
        return not name.startswith("_")

    def check_def(node, prefix: str) -> None:
        name = f"{prefix}{node.name}"
        if not ast.get_docstring(node):
            findings.append((node.lineno, name))
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ) and is_public(child.name):
                    check_def(child, f"{name}.")

    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and is_public(node.name):
            check_def(node, "")
    return findings


class DocstringRule(Rule):
    """Documented packages must docstring their whole public API."""

    id = "docstring"
    description = (
        "public modules/classes/functions in the documented packages "
        "must carry docstrings"
    )
    targets = ("src",)

    def __init__(self, enforced: tuple[str, ...] = DOCSTRING_ENFORCED) -> None:
        """Optionally substitute the enforced path list (tests do)."""
        self.enforced = enforced

    def _enforced(self, relpath: str) -> bool:
        return any(
            relpath == entry or relpath.startswith(entry.rstrip("/") + "/")
            for entry in self.enforced
        )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Flag every missing public docstring in one enforced file."""
        if module.tree is None or not self._enforced(module.relpath):
            return
        for lineno, name in missing_public_docstrings(module.tree):
            yield module.finding(
                self.id,
                lineno,
                f"missing public docstring for {name!r}",
            )
