"""Small AST helpers shared by the invariant checkers.

The checkers reason about *qualified call names* (``time.perf_counter``,
``numpy.random.rand``) rather than surface spellings, so an aliased
import (``import numpy as np``, ``from time import perf_counter``)
cannot dodge a rule. These helpers build the per-module alias map and
resolve call expressions through it.
"""

from __future__ import annotations

import ast

__all__ = ["import_aliases", "dotted_name", "resolve_call", "resolve_name"]


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map each locally bound import name to its fully qualified origin.

    ``import numpy as np`` yields ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` yields
    ``{"pc": "time.perf_counter"}``. Star imports contribute nothing.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The fully qualified name a Name/Attribute chain resolves to.

    ``np.random.rand`` with ``{"np": "numpy"}`` resolves to
    ``numpy.random.rand``; any other expression (e.g. a subscript or a
    call's result) resolves to ``None``.
    """
    name = dotted_name(node)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    origin = aliases.get(root, root)
    return f"{origin}.{rest}" if rest else origin


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """The fully qualified name a call resolves to, via the alias map."""
    return resolve_name(node.func, aliases)
