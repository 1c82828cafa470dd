"""Static lock rules: lock discipline and blocking under a lock.

Both rules read what one scanner gathers per method under one lock
model: a *guard* is an instance attribute or plain name assigned a
``threading.Lock/RLock/Condition`` in the class / module (directly or
through a module-level alias such as ``_RAW_LOCK = threading.Lock``),
or anything whose last name part says ``lock``; ``with`` pushes each
guard on a held stack for its body; a nested ``def`` / ``lambda`` runs
later and holds nothing.

``lock-discipline``
    A static lockset rule per class (Eraser's idea, Savage et al.,
    SOSP 1997): an instance attribute that any method reads or writes
    while holding a guard (``with self._lock:``) is guarded by every
    guard held there, and a mutation of it that lacks any of them is a
    finding — whichever thread runs the method, since client threads
    share state as surely as a spawned one. Mutations are (augmented)
    assignments to ``self.attr`` or a subscript of it and mutating
    container calls (``append``, ``popleft``, …). Constructors
    (``__init__``, ``__setstate__``) and thread-safe attributes (locks,
    events, semaphores, queues, the repo's ``CounterSet`` / ``Gauge`` /
    ``MetricsRegistry`` / ``Histogram``) are exempt. Unguarded reads
    are not findings (a one-reference publish read lock-free is a
    deliberate idiom). Out of scope: an attribute no method touches
    under a guard, and a module function handed ``self``.
``blocking-under-lock``
    In every class and module function, no call that can block
    indefinitely or do I/O while a guard is held: ``join`` / ``acquire``
    / ``wait`` on a foreign object, ``time.sleep``, DFS writes
    (``write_records``, ``write_file``, ``finalize_as``). Waiting on the
    guard you hold (the Condition idiom) and ``acquire(blocking=False)``
    are exempt. A held lock turns any other blocking call into a
    latency cliff for every contending thread — and a deadlock when the
    thing waited on needs that lock to make progress.

Acquisition *order* is the runtime sanitizer's job
(:mod:`repro.sanitizer`), proved from the orders tier-1 actually runs.
The analysis is lexical, not a happens-before proof; every exception
is explicit via ``# repro: allow[lock-discipline] reason`` /
``# repro: allow[blocking-under-lock] reason``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_call,
    resolve_name,
)
from repro.analysis.framework import Finding, ParsedModule, Rule

__all__ = ["BlockingUnderLockRule", "LockDisciplineRule"]

#: Method names that mutate common containers in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "put",
        "put_nowait",
        "push",
        "sort",
        "reverse",
        "write",
    }
)

#: Constructors whose instances are safe to share without the class
#: lock (they carry their own synchronization).
THREAD_SAFE_CONSTRUCTORS = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Queue",
        "SimpleQueue",
        "LifoQueue",
        "PriorityQueue",
        "CounterSet",
        "Gauge",
        "MetricsRegistry",
        "Histogram",
    }
)

#: Constructors whose instances are guards.
LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition"})

#: Methods that build an instance before any other thread can see it.
CONSTRUCTORS = frozenset({"__init__", "__setstate__"})

#: DFS write entry points: durable I/O that should never sit under a
#: lock shared with a latency-sensitive path.
DFS_WRITE_CALLS = frozenset({"write_records", "write_file", "finalize_as"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _aliases(tree: ast.Module) -> dict[str, str]:
    """The import aliases plus module-level constructor aliases:
    ``_RAW_LOCK = threading.Lock`` makes ``_RAW_LOCK()`` a ``Lock``."""
    aliases = import_aliases(tree)
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            continue
        qualified = resolve_name(node.value, aliases)
        if (
            qualified is not None
            and qualified.rsplit(".", 1)[-1] in THREAD_SAFE_CONSTRUCTORS
        ):
            aliases[node.targets[0].id] = qualified
    return aliases


def _constructed(
    root: ast.AST, aliases: dict[str, str]
) -> Iterator[tuple[ast.expr, str]]:
    """``(target, constructor)`` for every ``target = Ctor(...)`` in ``root``."""
    for node in ast.walk(root):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            qualified = resolve_call(node.value, aliases)
            if qualified is not None:
                ctor = qualified.rsplit(".", 1)[-1]
                for target in node.targets:
                    yield target, ctor


def _lock_names(tree: ast.Module, aliases: dict[str, str]) -> set[str]:
    """Plain names assigned a lock constructor anywhere in the module."""
    return {
        target.id
        for target, ctor in _constructed(tree, aliases)
        if isinstance(target, ast.Name) and ctor in LOCK_CONSTRUCTORS
    }


def _classify_attrs(
    methods: Sequence[ast.AST], aliases: dict[str, str]
) -> tuple[set[str], set[str]]:
    """``self`` attributes assigned lock / thread-safe constructor calls."""
    lock_attrs: set[str] = set()
    exempt_attrs: set[str] = set()
    for method in methods:
        for target, ctor in _constructed(method, aliases):
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if ctor in LOCK_CONSTRUCTORS:
                    lock_attrs.add(target.attr)
                if ctor in THREAD_SAFE_CONSTRUCTORS:
                    exempt_attrs.add(target.attr)
    return lock_attrs, exempt_attrs


@dataclass
class _Access:
    """One appearance of ``self.attr`` inside a method body."""

    attr: str
    line: int
    held: tuple[str, ...]
    mutating: bool


@dataclass
class _Method:
    """Per-method facts both rules consume."""

    name: str
    accesses: list[_Access] = field(default_factory=list)
    blocking: list[tuple[int, str, tuple[str, ...]]] = field(
        default_factory=list
    )
    """``(line, call, held guard ids)`` per blocking call under a guard."""


class _MethodScanner(ast.NodeVisitor):
    """Walk one method body tracking the stack of held guard ids.

    Collects self-attribute accesses and blocking calls made while a
    guard is held. Nested function bodies are attributed to the
    enclosing method, holding nothing.
    """

    def __init__(
        self, name: str, guards: set[str], aliases: dict[str, str]
    ) -> None:
        self.guards = guards
        self.aliases = aliases
        self.method = _Method(name=name)
        self._held: list[str] = []

    # -- guards ---------------------------------------------------------
    def _guard_id(self, expr: ast.expr) -> str | None:
        """The guard ``expr`` names, or ``None``; an instance guard is
        named by its attribute alone."""
        attr = _self_attr(expr)
        name = attr if attr is not None else dotted_name(expr)
        if name is None:
            return None
        if name in self.guards or "lock" in name.rsplit(".", 1)[-1].lower():
            return name
        return None

    def visit_With(self, node: ast.With) -> None:
        """Hold each guard item for the duration of the block body."""
        depth = len(self._held)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
            guard = self._guard_id(item.context_expr)
            if guard is not None:
                self._held.append(guard)
        for statement in node.body:
            self.visit(statement)
        del self._held[depth:]

    visit_AsyncWith = visit_With

    # -- accesses and mutations ----------------------------------------
    def _record(self, attr: str, line: int, mutating: bool) -> None:
        self.method.accesses.append(
            _Access(attr, line, tuple(self._held), mutating)
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None:
            self._record(
                attr, node.lineno, isinstance(node.ctx, (ast.Store, ast.Del))
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # self.x[k] = v / del self.x[k] mutate x even though the
        # Attribute itself is only loaded.
        attr = _self_attr(node.value)
        if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record(attr, node.lineno, True)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = _self_attr(func.value)
            if owner is not None and func.attr in MUTATOR_METHODS:
                self._record(owner, node.lineno, True)
        if self._held:
            what = self._blocking_call(node)
            if what is not None:
                self.method.blocking.append(
                    (node.lineno, what, tuple(self._held))
                )
        self.generic_visit(node)

    def _blocking_call(self, node: ast.Call) -> str | None:
        """What ``node`` may block on, minus the safe idioms."""
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value) or "<expr>"
            if func.attr in DFS_WRITE_CALLS:
                return f"DFS {func.attr}()"
            if func.attr in ("wait", "acquire"):
                # Waiting on (or re-entering) the guard you hold is the
                # Condition idiom, not a hazard.
                if self._guard_id(func.value) in self._held:
                    return None
                if func.attr == "acquire" and _nonblocking_acquire(node):
                    return None
                return f"{receiver}.{func.attr}()"
            if func.attr == "join" and _is_thread_join(node):
                return f"{receiver}.join()"
        qualified = resolve_call(node, self.aliases)
        if qualified == "time.sleep":
            return "time.sleep()"
        if qualified is not None:
            last = qualified.rsplit(".", 1)[-1]
            if last in DFS_WRITE_CALLS:
                return f"DFS {last}()"
        return None

    # -- deferred bodies ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """A nested def runs later: scan its body holding nothing."""
        held, self._held = self._held, []
        for statement in node.body:
            self.visit(statement)
        self._held = held

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        """A lambda runs later too: its body holds nothing."""
        held, self._held = self._held, []
        self.visit(node.body)
        self._held = held


def _self_attr(expr: ast.expr) -> str | None:
    """``attr`` when ``expr`` is ``self.attr``, else ``None``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _nonblocking_acquire(node: ast.Call) -> bool:
    """Whether an ``.acquire(...)`` call cannot block (blocking=False)."""
    if node.args:
        first = node.args[0]
        if isinstance(first, ast.Constant) and first.value is False:
            return True
    for keyword in node.keywords:
        if keyword.arg == "blocking" and (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        ):
            return True
    return False


def _is_thread_join(node: ast.Call) -> bool:
    """Whether a ``.join(...)`` call looks like a thread join.

    ``thread.join()`` takes no argument or a numeric timeout;
    ``", ".join(parts)`` takes exactly one iterable. Anything with a
    single non-numeric positional argument is the string method.
    """
    if any(keyword.arg == "timeout" for keyword in node.keywords):
        return True
    if not node.args:
        return True
    if len(node.args) == 1:
        arg = node.args[0]
        return isinstance(arg, ast.Constant) and isinstance(
            arg.value, (int, float)
        )
    return False


def _scan(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    guards: set[str],
    aliases: dict[str, str],
) -> _Method:
    """Scan one function body into its :class:`_Method` facts."""
    scanner = _MethodScanner(function.name, guards, aliases)
    for statement in function.body:
        scanner.visit(statement)
    return scanner.method


def _scopes(
    tree: ast.Module, aliases: dict[str, str]
) -> Iterator[tuple[ast.ClassDef | None, list[_Method], set[str]]]:
    """``(class or None, scanned functions, exempt attrs)`` per scope:
    the module's own functions, then every class's methods."""
    names = _lock_names(tree, aliases)
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for cls in [None, *classes]:
        body = tree.body if cls is None else cls.body
        functions = [node for node in body if isinstance(node, _FUNCTION_NODES)]
        lock_attrs, exempt_attrs = _classify_attrs(functions, aliases)
        guards = lock_attrs | names
        yield cls, [_scan(f, guards, aliases) for f in functions], exempt_attrs


class LockDisciplineRule(Rule):
    """An attribute touched under a guard is mutated only under it."""

    id = "lock-discipline"
    description = (
        "an instance attribute any method touches under `with "
        "self.<guard>` must be mutated only under that guard "
        "(constructors exempt)"
    )
    targets = ("src",)

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Report every mutation outside its attribute's guards."""
        if module.tree is None:
            return
        for cls, methods, exempt in _scopes(module.tree, _aliases(module.tree)):
            if cls is None:
                continue
            methods = [m for m in methods if m.name not in CONSTRUCTORS]
            guarded: dict[str, set[str]] = {}
            for method in methods:
                for access in method.accesses:
                    if access.held and access.attr not in exempt:
                        guarded.setdefault(access.attr, set()).update(
                            access.held
                        )
            for method in methods:
                for access in method.accesses:
                    missing = guarded.get(access.attr, set()).difference(
                        access.held
                    )
                    if access.mutating and missing:
                        yield module.finding(
                            self.id,
                            access.line,
                            f"{cls.name}.{method.name} mutates "
                            f"self.{access.attr} outside "
                            f"{{{', '.join(sorted(missing))}}}, which "
                            "guards it elsewhere in the class",
                        )


class BlockingUnderLockRule(Rule):
    """No call that can block indefinitely while a lock is held."""

    id = "blocking-under-lock"
    description = (
        "no blocking call (join/acquire/wait on another object, "
        "time.sleep, DFS writes) while holding a lock"
    )
    targets = ("src",)

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Report every blocking-under-lock site in one module."""
        if module.tree is None:
            return
        for cls, methods, _ in _scopes(module.tree, _aliases(module.tree)):
            prefix = "" if cls is None else f"{cls.name}."
            for method in sorted(methods, key=lambda m: m.name):
                for line, what, held in method.blocking:
                    yield module.finding(
                        self.id,
                        line,
                        f"{prefix}{method.name} calls {what} while holding "
                        f"{{{', '.join(held)}}}; blocking under a lock "
                        "stalls every contending thread",
                    )
