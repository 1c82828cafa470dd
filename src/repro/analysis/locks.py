"""Static lock rules: lock discipline and blocking under a lock.

Both rules read what one scanner gathers per method under one lock
model: a *guard* is an instance attribute or plain name assigned a
``threading.Lock/RLock/Condition`` in the class / module, or anything
whose last name part says ``lock``; ``with`` pushes each guard on a
held stack for its body; a nested ``def`` / ``lambda`` runs later and
holds nothing; a ``Thread(target=closure)`` closure is scanned as a
pseudo-method of its own.

``lock-discipline``
    In a class that starts a ``threading.Thread`` / ``Timer``, an
    instance attribute **mutated both from thread-side and from
    public-side code** is shared, and every access to it must sit
    under a held guard. Thread entries are the spawn targets — methods,
    promoted closures, and module functions (in any module) handed the
    instance through ``args=(self, ...)``, whose matching parameter is
    read as ``self``; each side is the self-call closure of its entries
    (a private helper called from ``predict()`` is public-side code).
    Mutations are (augmented) assignments to ``self.attr`` or a
    subscript of it and mutating container calls (``append``,
    ``popleft``, …); thread-safe attributes (locks, events, semaphores,
    queues, the repo's ``CounterSet`` / ``Gauge`` / ``MetricsRegistry``
    / ``Histogram``) and ``__init__`` are exempt.
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

from repro.analysis.astutil import dotted_name, import_aliases, resolve_call
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

#: DFS write entry points: durable I/O that should never sit under a
#: lock shared with a latency-sensitive path.
DFS_WRITE_CALLS = frozenset({"write_records", "write_file", "finalize_as"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_qualname(relpath: str) -> str:
    """Import-style module name for a repo-relative source path.

    ``src/repro/obs/exporter.py`` maps to ``repro.obs.exporter`` and a
    package ``__init__.py`` to the package itself — the names the
    import-alias map produces, so spawn targets resolve across modules.
    """
    path = relpath
    if path.startswith("src/"):
        path = path[len("src/") :]
    if path.endswith(".py"):
        path = path[: -len(".py")]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


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
    locked: bool
    mutating: bool


@dataclass
class _Method:
    """Per-method facts both rules consume."""

    name: str
    accesses: list[_Access] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)
    thread_targets: set[str] = field(default_factory=set)
    external_targets: list[tuple[str, int]] = field(default_factory=list)
    """Dotted spawn targets that are not methods or local closures,
    with the position of ``self`` in the spawn's ``args=`` tuple
    (``-1`` when the instance is not passed along)."""
    blocking: list[tuple[int, str, tuple[str, ...]]] = field(
        default_factory=list
    )
    """``(line, call, held guard ids)`` per blocking call under a guard."""


class _MethodScanner(ast.NodeVisitor):
    """Walk one method body tracking the stack of held guard ids.

    Collects self-attribute accesses, self-calls, thread spawns, and
    blocking calls made while a guard is held. Nested function bodies
    are attributed to the enclosing method — holding nothing — unless
    the nested function is itself a thread target (the caller splits
    those out as pseudo-methods).
    """

    def __init__(
        self,
        name: str,
        guards: set[str],
        aliases: dict[str, str],
        skip_functions: set[str],
        self_name: str = "self",
    ) -> None:
        self.guards = guards
        self.aliases = aliases
        self.skip_functions = skip_functions
        self.self_name = self_name
        self.method = _Method(name=name)
        self._held: list[str] = []

    # -- guards ---------------------------------------------------------
    def _guard_id(self, expr: ast.expr) -> str | None:
        """The guard ``expr`` names, or ``None``; an instance guard is
        named by its attribute alone."""
        attr = self._self_attr(expr)
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
    def _self_attr(self, expr: ast.expr) -> str | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self.self_name
        ):
            return expr.attr
        return None

    def _record(self, attr: str, line: int, mutating: bool) -> None:
        self.method.accesses.append(
            _Access(attr, line, bool(self._held), mutating)
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._self_attr(node)
        if attr is not None:
            self._record(
                attr, node.lineno, isinstance(node.ctx, (ast.Store, ast.Del))
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # self.x[k] = v / del self.x[k] mutate x even though the
        # Attribute itself is only loaded.
        attr = self._self_attr(node.value)
        if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record(attr, node.lineno, True)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self._self_attr(node.target)
        if attr is not None:
            self._record(attr, node.lineno, True)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = self._self_attr(func.value)
            if owner is not None and func.attr in MUTATOR_METHODS:
                self._record(owner, node.lineno, True)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == self.self_name
            ):
                self.method.calls.add(func.attr)
        if self._held:
            what = self._blocking_call(node)
            if what is not None:
                self.method.blocking.append(
                    (node.lineno, what, tuple(self._held))
                )
        qualified = resolve_call(node, self.aliases)
        if qualified in ("threading.Thread", "threading.Timer"):
            target = self._spawn_target(node, qualified)
            if target is not None:
                self._record_spawn_target(node, target)
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

    @staticmethod
    def _spawn_target(node: ast.Call, qualified: str) -> ast.expr | None:
        """The callable a Thread/Timer construction will run."""
        if qualified == "threading.Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    return keyword.value
            return None
        # Timer(interval, function, args=..., kwargs=...): the callable
        # is the second positional argument or the function= keyword.
        for keyword in node.keywords:
            if keyword.arg == "function":
                return keyword.value
        if len(node.args) >= 2:
            return node.args[1]
        return None

    def _record_spawn_target(
        self, node: ast.Call, target: ast.expr
    ) -> None:
        """File a spawn target as method, closure, or external function."""
        target_attr = self._self_attr(target)
        if target_attr is not None:
            self.method.thread_targets.add(target_attr)
            return
        name = dotted_name(target)
        if name is None:
            return
        if isinstance(target, ast.Name):
            # Could be a closure of the enclosing method (promoted by
            # the class pass) or a module-level function; record both
            # interpretations and let the class pass disambiguate.
            self.method.thread_targets.add(target.id)
        self.method.external_targets.append(
            (name, self._self_arg_position(node))
        )

    def _self_arg_position(self, node: ast.Call) -> int:
        """Index of ``self`` in the spawn's ``args=`` tuple, or ``-1``."""
        for keyword in node.keywords:
            if keyword.arg != "args":
                continue
            if isinstance(keyword.value, (ast.Tuple, ast.List)):
                for index, element in enumerate(keyword.value.elts):
                    if (
                        isinstance(element, ast.Name)
                        and element.id == self.self_name
                    ):
                        return index
        return -1

    # -- deferred bodies ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """A nested def runs later: scan its body holding nothing."""
        if node.name in self.skip_functions:
            return
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
    name: str,
    body: list[ast.stmt],
    guards: set[str],
    aliases: dict[str, str],
    skip_functions: set[str],
    self_name: str = "self",
) -> _Method:
    """Scan one function body into its :class:`_Method` facts."""
    scanner = _MethodScanner(name, guards, aliases, skip_functions, self_name)
    for statement in body:
        scanner.visit(statement)
    return scanner.method


def _scan_functions(
    functions: Sequence[ast.FunctionDef | ast.AsyncFunctionDef],
    guards: set[str],
    aliases: dict[str, str],
) -> dict[str, _Method]:
    """Scan sibling functions, promoting thread-target closures.

    Pass 1 finds ``Thread(target=closure)`` names; pass 2 carves those
    closure bodies out of their enclosing functions and scans them as
    pseudo-methods of their own (they run on their own thread).
    """
    closure_targets: set[str] = set()
    for function in functions:
        closure_targets |= _scan(
            function.name, function.body, guards, aliases, set()
        ).thread_targets
    scanned: dict[str, _Method] = {}
    for function in functions:
        scanned[function.name] = _scan(
            function.name, function.body, guards, aliases, closure_targets
        )
        for nested in ast.walk(function):
            if (
                isinstance(nested, ast.FunctionDef)
                and nested.name in closure_targets
                and nested.name not in scanned
            ):
                scanned[nested.name] = _scan(
                    nested.name, nested.body, guards, aliases, set()
                )
    return scanned


def _functions(body: list[ast.stmt]) -> list:
    """The function definitions directly in a class or module body."""
    return [node for node in body if isinstance(node, _FUNCTION_NODES)]


class LockDisciplineRule(Rule):
    """Shared mutable attributes of thread-spawning classes need locks."""

    id = "lock-discipline"
    description = (
        "in classes that start threads, attributes mutated from both a "
        "thread body and a public method must be accessed under the lock"
    )
    targets = ("src",)

    def check_repo(
        self, modules: Sequence[ParsedModule]
    ) -> Iterator[Finding]:
        """Analyze every module, resolving cross-module thread targets.

        A first pass maps every module-level function by its qualified
        name, so ``Thread(target=helpers.worker, args=(self,))`` can be
        chased into ``helpers.py`` and the worker's parameter analyzed
        as the spawning instance.
        """
        function_map: dict[str, tuple] = {}
        for module in modules:
            if module.tree is None:
                continue
            qualname = _module_qualname(module.relpath)
            module_aliases = import_aliases(module.tree)
            for node in _functions(module.tree.body):
                function_map[f"{qualname}.{node.name}"] = (
                    node,
                    module,
                    module_aliases,
                )
        for module in modules:
            if module.tree is None:
                continue
            aliases = import_aliases(module.tree)
            qualname = _module_qualname(module.relpath)
            names = _lock_names(module.tree, aliases)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(
                        module, node, aliases, names, qualname, function_map
                    )

    # ------------------------------------------------------------------
    # per-class analysis
    # ------------------------------------------------------------------
    def _check_class(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        aliases: dict[str, str],
        lock_names: set[str],
        qualname: str,
        function_map: dict[str, tuple],
    ) -> Iterator[Finding]:
        methods = _functions(cls.body)
        lock_attrs, exempt_attrs = _classify_attrs(methods, aliases)
        guards = lock_attrs | lock_names
        scanned = _scan_functions(methods, guards, aliases)
        thread_entries: set[str] = set()
        for method in methods:
            thread_entries |= scanned[method.name].thread_targets

        # Module-level spawn targets (this module or another) become
        # pseudo-methods too: the parameter that binds ``self`` via the
        # spawn's ``args=`` tuple is analyzed as the instance.
        method_module: dict[str, ParsedModule] = {}
        for method in list(scanned.values()):
            for name, self_pos in method.external_targets:
                if name in scanned or self_pos < 0:
                    continue
                resolved = self._resolve_external(
                    name, aliases, qualname, function_map
                )
                if resolved is None:
                    continue
                fn_node, def_module, def_aliases = resolved
                params = [arg.arg for arg in fn_node.args.args]
                if self_pos >= len(params):
                    continue
                pseudo = f"<{name}>"
                if pseudo in scanned:
                    continue
                scanned[pseudo] = _scan(
                    pseudo,
                    fn_node.body,
                    guards,
                    def_aliases,
                    set(),
                    self_name=params[self_pos],
                )
                method_module[pseudo] = def_module
                thread_entries.add(pseudo)

        if not thread_entries:
            return

        thread_side = self._reachable(scanned, thread_entries)
        public_entries = {
            name
            for name in scanned
            if not name.startswith("_") or name in {"__enter__", "__exit__"}
        }
        public_side = self._reachable(scanned, public_entries)

        shared = self._shared_attrs(
            scanned, thread_side, public_side, exempt_attrs
        )
        seen: set[tuple[str, str, int]] = set()
        for name in sorted(thread_side | public_side):
            method = scanned.get(name)
            if method is None or name == "__init__":
                continue
            owner = method_module.get(name, module)
            for access in method.accesses:
                if access.attr not in shared or access.locked:
                    continue
                key = (owner.relpath, access.attr, access.line)
                if key in seen:
                    continue
                seen.add(key)
                side = "thread" if name in thread_side else "public"
                yield owner.finding(
                    self.id,
                    access.line,
                    f"{cls.name}.{name} accesses self.{access.attr} "
                    f"outside the lock ({side}-side code; the attribute "
                    "is mutated from both thread and public methods)",
                )

    @staticmethod
    def _resolve_external(
        name: str,
        aliases: dict[str, str],
        qualname: str,
        function_map: dict[str, tuple],
    ) -> tuple | None:
        """Map a spawn-target dotted name to a known module function.

        ``helpers.worker`` resolves through the import alias map
        (cross-module); a bare name falls back to the spawning module's
        own top-level functions.
        """
        root, _, rest = name.partition(".")
        origin = aliases.get(root, root)
        qualified = f"{origin}.{rest}" if rest else origin
        if qualified in function_map:
            return function_map[qualified]
        if "." not in name:
            return function_map.get(f"{qualname}.{name}")
        return None

    @staticmethod
    def _reachable(
        scanned: dict[str, _Method], entries: set[str]
    ) -> set[str]:
        """Transitive closure over the self-method call graph."""
        reached: set[str] = set()
        frontier = [name for name in entries if name in scanned]
        while frontier:
            name = frontier.pop()
            if name in reached:
                continue
            reached.add(name)
            for callee in scanned[name].calls:
                if callee in scanned and callee not in reached:
                    frontier.append(callee)
        return reached

    @staticmethod
    def _shared_attrs(
        scanned: dict[str, _Method],
        thread_side: set[str],
        public_side: set[str],
        exempt_attrs: set[str],
    ) -> set[str]:
        """Attributes mutated on both sides (outside ``__init__``)."""
        thread_mutated: set[str] = set()
        public_mutated: set[str] = set()
        for name, method in scanned.items():
            if name == "__init__":
                continue
            mutated = {a.attr for a in method.accesses if a.mutating}
            if name in thread_side:
                thread_mutated |= mutated
            if name in public_side:
                public_mutated |= mutated
        return (thread_mutated & public_mutated) - exempt_attrs


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
        aliases = import_aliases(module.tree)
        names = _lock_names(module.tree, aliases)
        scopes = [("", _functions(module.tree.body), names)]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                methods = _functions(node.body)
                lock_attrs, _ = _classify_attrs(methods, aliases)
                scopes.append((f"{node.name}.", methods, lock_attrs | names))
        for prefix, functions, guards in scopes:
            scanned = _scan_functions(functions, guards, aliases)
            for name in sorted(scanned):
                for line, what, held in scanned[name].blocking:
                    yield module.finding(
                        self.id,
                        line,
                        f"{prefix}{name} calls {what} while holding "
                        f"{{{', '.join(held)}}}; blocking under a lock "
                        "stalls every contending thread",
                    )
