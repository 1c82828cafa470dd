"""Core machinery of the invariant-checker suite.

Everything rule-agnostic lives here: the :class:`Finding` record, the
``# repro: allow[rule] reason`` suppression grammar, the :class:`Rule`
base class with the ``syntax`` / ``suppression`` meta-rules, and the
:func:`run_analysis` driver that parses the repo once and fans the
parsed modules out to every rule. Individual checkers (determinism,
contract closure, lock discipline, blocking under a lock, resource
safety, unused imports, docstrings) subclass :class:`Rule` in their own
modules and register through :func:`repro.analysis.default_rules`.

Design constraints the framework enforces uniformly:

* every finding carries an exact ``path:line`` anchor, so editors and
  CI annotations can jump to it;
* a suppression comment **must** carry a non-empty reason — an empty
  one is itself a finding (rule id ``suppression``);
* suppressions are per-rule and lexically scoped to the flagged line or
  the line directly above it, never file- or block-wide — and they are
  the one way to accept a finding.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "Suppression",
    "SuppressionIndex",
    "ParsedModule",
    "Rule",
    "AnalysisReport",
    "collect_modules",
    "run_analysis",
    "format_human",
    "format_json",
    "DEFAULT_TARGETS",
]

#: Trees the broad hygiene rules (unused imports, syntax) sweep; the
#: project-invariant checkers narrow this to ``("src",)`` themselves.
DEFAULT_TARGETS = ("src", "tests", "benchmarks", "examples", "scripts")

#: Suppression grammar: ``# repro: allow[rule-id] reason text``. The
#: reason is everything after the closing bracket; the ``suppression``
#: meta-rule rejects empty reasons.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([a-z0-9_-]+)\]\s*(.*?)\s*$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to an exact source location."""

    path: str
    """Repo-relative posix path of the offending file."""
    line: int
    """1-based line number of the violation."""
    rule: str
    """Id of the rule that produced the finding."""
    message: str
    """Human-readable statement of what is wrong and why it matters."""

    def format(self) -> str:
        """The one-line human rendering: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        """JSON-ready dict (the ``--json`` artifact's row format)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[rule] reason`` comment."""

    rule: str
    """Rule id the comment suppresses."""
    line: int
    """1-based line the comment sits on."""
    reason: str
    """Written justification (the framework rejects empty ones)."""


class SuppressionIndex:
    """Per-file lookup of suppression comments.

    A suppression covers findings of its rule on the comment's own line
    and on the line directly below it (the comment-above idiom), and
    nothing else — suppressions never blanket a whole file.
    """

    def __init__(self, source: str) -> None:
        """Parse every suppression comment out of ``source``."""
        self.suppressions: list[Suppression] = []
        self._by_rule_line: set[tuple[str, int]] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                self.suppressions.append(
                    Suppression(match.group(1), lineno, match.group(2))
                )
                self._by_rule_line.add((match.group(1), lineno))

    def covers(self, rule: str, line: int) -> bool:
        """Whether a suppression for ``rule`` covers ``line``."""
        return (rule, line) in self._by_rule_line or (
            rule,
            line - 1,
        ) in self._by_rule_line

    def empty_reasons(self) -> list[Suppression]:
        """Suppressions whose justification text is missing."""
        return [s for s in self.suppressions if not s.reason]


class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    def __init__(self, repo: Path, path: Path) -> None:
        """Read and parse ``path``; a syntax error leaves ``tree`` None.

        Args:
            repo: Repository root (anchors the relative path).
            path: Absolute path of the ``.py`` file.
        """
        self.path = path
        self.relpath = path.relative_to(repo).as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.suppressions = SuppressionIndex(self.source)
        self.tree: ast.Module | None = None
        self.syntax_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(self.source, filename=str(path))
        except SyntaxError as error:
            self.syntax_error = error

    def finding(self, rule: str, line: int, message: str) -> Finding:
        """Convenience constructor anchored to this module."""
        return Finding(self.relpath, line, rule, message)


class Rule:
    """Base class every checker implements.

    Subclasses set :attr:`id`, :attr:`description`, and (optionally)
    :attr:`targets`, then override either :meth:`check_module` (local
    rules) or :meth:`check_repo` (rules needing the whole module set,
    like contract closure).
    """

    id: str = ""
    description: str = ""
    #: Repo-relative trees this rule wants parsed.
    targets: tuple[str, ...] = ("src",)

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Findings local to one module (default: none)."""
        return ()

    def check_repo(
        self, modules: Sequence[ParsedModule]
    ) -> Iterable[Finding]:
        """Findings across the module set; defaults to the per-module sweep."""
        for module in modules:
            if module.tree is not None:
                yield from self.check_module(module)


class _SyntaxRule(Rule):
    """Parse failures — every other rule needs a tree, so this gates."""

    id = "syntax"
    description = "every target file must parse (rules need an AST)"
    targets = DEFAULT_TARGETS

    def check_repo(self, modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        """One finding per unparseable file."""
        for module in modules:
            if module.syntax_error is not None:
                error = module.syntax_error
                yield module.finding(
                    self.id,
                    error.lineno or 1,
                    f"syntax error: {error.msg}",
                )


class _SuppressionRule(Rule):
    """The suppression grammar itself: reasons are mandatory."""

    id = "suppression"
    description = (
        "# repro: allow[rule] comments must carry a non-empty reason"
    )
    targets = DEFAULT_TARGETS

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Flag every suppression comment with an empty reason."""
        for suppression in module.suppressions.empty_reasons():
            yield module.finding(
                self.id,
                suppression.line,
                f"suppression of [{suppression.rule}] has no reason; "
                "write the justification after the bracket",
            )


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    """Unsuppressed findings — the gating set."""
    suppressed: list[Finding] = field(default_factory=list)
    """Findings silenced by an in-source suppression comment."""
    rules: list[Rule] = field(default_factory=list)
    """Rules that ran (in execution order)."""
    files_checked: int = 0
    """Distinct files parsed for this run."""

    @property
    def ok(self) -> bool:
        """True when nothing gating was found."""
        return not self.findings


def _meta_rules() -> list[Rule]:
    """The framework's own meta-rules (syntax, suppression grammar)."""
    return [_SyntaxRule(), _SuppressionRule()]


def collect_modules(
    repo: Path, targets: Iterable[str]
) -> dict[str, ParsedModule]:
    """Parse every ``.py`` file under ``targets``, keyed by relpath."""
    modules: dict[str, ParsedModule] = {}
    for target in targets:
        root = repo / target
        if root.is_file() and root.suffix == ".py":
            module = ParsedModule(repo, root)
            modules[module.relpath] = module
        elif root.is_dir():
            for path in sorted(root.rglob("*.py")):
                module = ParsedModule(repo, path)
                modules[module.relpath] = module
    return modules


def run_analysis(
    repo: Path,
    rules: Sequence[Rule],
    rule_ids: Sequence[str] | None = None,
) -> AnalysisReport:
    """Run ``rules`` (optionally filtered to ``rule_ids``) over ``repo``.

    Parses each target tree once, hands every rule the modules matching
    its own ``targets``, then routes raw findings through suppression
    comments.

    Args:
        repo: Repository root.
        rules: Rule instances to run (meta-rules are always included,
            once).
        rule_ids: When given, only rules with these ids run (the meta
            ``syntax``/``suppression`` rules still run — a rule filter
            must not hide broken files or broken suppressions).

    Returns:
        The :class:`AnalysisReport`, findings sorted by location.

    Raises:
        ValueError: If ``rule_ids`` names an unknown rule.
    """
    selected = list(_meta_rules())
    known = {rule.id for rule in rules} | {rule.id for rule in selected}
    if rule_ids:
        unknown = set(rule_ids) - known
        if unknown:
            raise ValueError(
                f"unknown rule ids: {sorted(unknown)}; known: {sorted(known)}"
            )
    for rule in rules:
        if rule.id in {r.id for r in selected}:
            continue
        if rule_ids is None or rule.id in rule_ids:
            selected.append(rule)

    all_targets: list[str] = []
    for rule in selected:
        for target in rule.targets:
            if target not in all_targets:
                all_targets.append(target)
    modules = collect_modules(repo, all_targets)

    report = AnalysisReport(rules=selected, files_checked=len(modules))

    def module_set(rule: Rule) -> list[ParsedModule]:
        selected_modules = []
        for module in modules.values():
            for target in rule.targets:
                prefix = target if target.endswith(".py") else target + "/"
                if module.relpath == target or module.relpath.startswith(
                    prefix
                ):
                    selected_modules.append(module)
                    break
        return selected_modules

    for rule in selected:
        for finding in rule.check_repo(module_set(rule)):
            owner = modules.get(finding.path)
            if owner is not None and owner.suppressions.covers(
                finding.rule, finding.line
            ):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)

    report.findings.sort()
    report.suppressed.sort()
    return report


def format_human(report: AnalysisReport) -> str:
    """Multi-line human rendering: findings first, then the tally."""
    lines = [finding.format() for finding in report.findings]
    lines.append(
        f"[analysis] {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.files_checked} file(s), "
        f"{len(report.rules)} rule(s)"
    )
    return "\n".join(lines)


def format_json(report: AnalysisReport) -> str:
    """Deterministic JSON rendering (the CI artifact payload)."""
    payload = {
        "ok": report.ok,
        "files_checked": report.files_checked,
        "rules": [
            {"id": rule.id, "description": rule.description}
            for rule in report.rules
        ],
        "findings": [finding.as_dict() for finding in report.findings],
        "suppressed": [finding.as_dict() for finding in report.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
