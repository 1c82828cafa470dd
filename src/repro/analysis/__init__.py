"""AST-based invariant checkers for the repro codebase.

The runtime test suite proves behavior on the inputs it runs; the rules
in this package prove *structural* invariants over every file that
parses — properties that are cheap to state, expensive to regress, and
invisible to example-based tests:

``determinism``
    Modules on the byte-identity surface (kernels, the LF applier, DFS,
    sinks, checkpoints, serving) must not reach for wall clocks,
    unseeded randomness, or bare-set iteration orders.
``contract-closure``
    Every namespaced counter/gauge/histogram key emitted anywhere in
    ``src/`` appears in a pinned contract tuple, and every contracted
    key is still emitted — both directions, statically.
``lock-discipline`` / ``blocking-under-lock``
    One lock model, two rules (:mod:`repro.analysis.locks`): per class,
    an attribute any method touches under ``with self.<guard>`` is
    mutated only under that guard, whichever thread runs the method (a
    static lockset); and nothing blocking (joins, foreign waits,
    ``time.sleep``, DFS writes) runs under a held lock. Acquisition order is the runtime
    sanitizer's job (:mod:`repro.sanitizer`), which proves it from the
    orders tier-1 actually runs.
``resource-safety``
    Record writers, DFS read handles, pools, and threads are released
    on all paths or explicitly change owners.
``unused-import`` / ``docstring`` / ``syntax`` / ``suppression``
    The long-standing lint gates, ported onto the same framework.

Entry point is :func:`repro.analysis.run_analysis` (used by
``scripts/lint.py``); an intentional violation carries an inline
``# repro: allow[rule-id] reason`` suppression — the one way to accept
a finding.
"""

from __future__ import annotations

from repro.analysis.contracts import ContractClosureRule
from repro.analysis.determinism import DeterminismRule
from repro.analysis.docstrings import DOCSTRING_ENFORCED, DocstringRule
from repro.analysis.framework import (
    DEFAULT_TARGETS,
    AnalysisReport,
    Finding,
    ParsedModule,
    Rule,
    SuppressionIndex,
    collect_modules,
    format_human,
    _meta_rules,
    format_json,
    run_analysis,
)
from repro.analysis.imports import UnusedImportRule
from repro.analysis.locks import BlockingUnderLockRule, LockDisciplineRule
from repro.analysis.resources import ResourceSafetyRule

__all__ = [
    "AnalysisReport",
    "BlockingUnderLockRule",
    "ContractClosureRule",
    "DEFAULT_TARGETS",
    "DOCSTRING_ENFORCED",
    "DeterminismRule",
    "DocstringRule",
    "Finding",
    "LockDisciplineRule",
    "ParsedModule",
    "ResourceSafetyRule",
    "Rule",
    "SuppressionIndex",
    "UnusedImportRule",
    "collect_modules",
    "default_rules",
    "format_human",
    "format_json",
    "run_analysis",
]


def default_rules() -> list[Rule]:
    """The whole rule registry, freshly instantiated: the ``syntax`` /
    ``suppression`` meta-rules first, then the checkers in id order."""
    rules = [
        BlockingUnderLockRule(),
        ContractClosureRule(),
        DeterminismRule(),
        DocstringRule(),
        LockDisciplineRule(),
        ResourceSafetyRule(),
        UnusedImportRule(),
    ]
    return _meta_rules() + sorted(rules, key=lambda rule: rule.id)
