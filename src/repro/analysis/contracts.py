"""Contract-closure checker for counter, gauge, and histogram keys.

The repo pins its whole observability surface in one table,
``repro.obs.contract.KEY_CONTRACT`` (rows of ``key, kind, layer,
conditional[, stage, field]``), and ``docs/OPERATIONS.md`` tables are
diffed against it by ``tests/test_docs.py``. What the runtime tests
cannot prove is *closure*: that every key the code actually emits is in
the contract, and every contracted key is still emitted somewhere. This
rule proves both directions statically, per kind:

* it parses the table straight out of the defining module's AST (no
  imports — the checker runs on any tree that parses);
* it extracts every **constant, namespaced** (``family/name``) string
  key passed to ``.increment(...)`` / ``.counter(...)`` (counters),
  ``.gauge(...)`` (gauges), ``.record(...)`` / ``.observe(...)`` /
  ``.histogram(...)`` (histograms), and — the seam — every
  ``.stage("layer.event", ...)`` call, which emits each row naming
  that stage, under the row's kind;
* an emitted-but-uncontracted key, or a stage event no row names, is
  flagged at its emission site; a contracted-but-never-emitted key is
  flagged at the table row's own line.

Dynamic keys (f-strings, variables — e.g. the per-sink
``sink/<name>/us`` family) and un-namespaced per-LF counters
(``examples_seen``) are outside the contract grammar and ignored, as
documented in ``docs/OPERATIONS.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.framework import Finding, ParsedModule, Rule

__all__ = ["ContractClosureRule", "CONTRACT_SOURCES"]

#: The module(s) whose ``(key, kind, ...)`` tuple literals are the
#: contract table.
CONTRACT_SOURCES: tuple[str, ...] = ("src/repro/obs/contract.py",)

_KINDS = ("counter", "gauge", "histogram")

#: Method names whose first constant-string argument emits a key.
_EMIT_ATTRS = {
    "increment": "counter",
    "counter": "counter",
    "gauge": "gauge",
    "record": "histogram",
    "observe": "histogram",
    "histogram": "histogram",
}

#: The instrument layer itself: its methods take key *variables*, and
#: its docstrings/doctests would otherwise read as emissions.
_EXCLUDED_MODULES = {
    "src/repro/obs/counters.py",
    "src/repro/obs/registry.py",
    "src/repro/obs/histogram.py",
}


def _segments_ok(value: object, separator: str) -> bool:
    if not isinstance(value, str) or separator not in value:
        return False
    return all(
        segment and segment.replace("_", "a").isalnum()
        for segment in value.split(separator)
    )


def _is_key(value: object) -> bool:
    """Contract grammar: lowercase/underscore segments joined by ``/``."""
    return _segments_ok(value, "/")


def _is_stage(value: object) -> bool:
    """Stage-event grammar: ``layer.event`` (other ``.stage(...)``
    methods in the tree take undotted names and are not the seam)."""
    return _segments_ok(value, ".")


class ContractClosureRule(Rule):
    """Emitted keys == contracted keys, in both directions, per kind."""

    id = "contract-closure"
    description = (
        "every namespaced counter/gauge/histogram key emitted in src/ "
        "(directly or through a stage event) must be a row of the "
        "pinned contract table, and vice versa"
    )
    targets = ("src",)

    def __init__(
        self, contract_sources: tuple[str, ...] | None = None
    ) -> None:
        """Optionally point the rule at a different contract module."""
        self.contract_sources = (
            CONTRACT_SOURCES if contract_sources is None else contract_sources
        )

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def _contracted(self, modules: Sequence[ParsedModule]):
        """``(contracted, stages)`` from every ``(key, kind, ...)`` row:
        ``kind -> key -> (relpath, line)`` and ``stage -> [(kind, key)]``.
        """
        contracted: dict[str, dict[str, tuple[str, int]]] = {
            kind: {} for kind in _KINDS
        }
        stages: dict[str, list[tuple[str, str]]] = {}
        by_path = {module.relpath: module for module in modules}
        for relpath in self.contract_sources:
            module = by_path.get(relpath)
            if module is None or module.tree is None:
                continue
            for row in ast.walk(module.tree):
                if not isinstance(row, ast.Tuple):
                    continue
                cells = [
                    cell.value if isinstance(cell, ast.Constant) else None
                    for cell in row.elts
                ]
                if len(cells) < 2 or not _is_key(cells[0]):
                    continue
                key, kind = cells[:2]
                if kind in _KINDS:
                    contracted[kind][key] = (relpath, row.lineno)
                    if len(cells) > 4 and _is_stage(cells[4]):
                        stages.setdefault(cells[4], []).append((kind, key))
        return contracted, stages

    @staticmethod
    def _call_keys(node: ast.Call) -> Iterator[tuple[str, str]]:
        """``(kind, key)`` per constant key a call emits; kind
        ``"stage"`` marks a seam call whose key is the event name."""
        func = node.func
        if isinstance(func, ast.Attribute) and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                kind = _EMIT_ATTRS.get(func.attr)
                if kind and _is_key(arg.value):
                    yield kind, arg.value
                if func.attr == "stage" and _is_stage(arg.value):
                    yield "stage", arg.value

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------
    def check_repo(self, modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        """Diff emitted keys against contracted keys, both directions."""
        contracted, stages = self._contracted(modules)
        emitted: dict[str, dict[str, list[tuple[str, int]]]] = {
            kind: {} for kind in _KINDS
        }
        for module in modules:
            if module.tree is None or module.relpath in _EXCLUDED_MODULES:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                site = (module.relpath, node.lineno)
                for kind, key in self._call_keys(node):
                    if kind != "stage":
                        emitted[kind].setdefault(key, []).append(site)
                    elif key not in stages:
                        yield Finding(
                            *site,
                            self.id,
                            f"stage event '{key}' is emitted but absent "
                            "from every contract row — name it in the "
                            "rows it feeds or rename it",
                        )
                    else:
                        for fed_kind, fed in stages[key]:
                            emitted[fed_kind].setdefault(fed, []).append(site)

        for kind in _KINDS:
            for key, sites in sorted(emitted[kind].items()):
                if key not in contracted[kind]:
                    for relpath, line in sites:
                        yield Finding(
                            relpath,
                            line,
                            self.id,
                            f"{kind} key '{key}' is emitted but absent "
                            f"from the pinned contract table as a {kind} "
                            "— add the row (and its docs/OPERATIONS.md "
                            "table entry) or rename it",
                        )
            for key, (relpath, line) in sorted(contracted[kind].items()):
                if key not in emitted[kind]:
                    yield Finding(
                        relpath,
                        line,
                        self.id,
                        f"{kind} key '{key}' is contracted but no longer "
                        "emitted anywhere in src/ — delete the row (and "
                        "its docs/OPERATIONS.md table entry) or restore "
                        "the emission",
                    )
