"""The process-wide lock graph behind the runtime sanitizer.

:class:`LockGraph` receives acquisition/release events from the proxy
primitives in :mod:`repro.sanitizer.proxies` and maintains:

* a per-thread held-lock stack (thread-local, so the fast path takes no
  global lock);
* the "acquired B while holding A" edge set, each edge keeping its
  first acquisition site and stack trace;
* incremental cycle detection — a cycle is reported the moment its
  closing edge appears, as a *potential deadlock* finding, without any
  thread ever having to hang;
* a :class:`ThreadRegistry` that reports leaked threads — repo-owned
  threads still alive at the shutdown sweep, or finished non-daemon
  threads that were never joined;
* one after-fork hook that resets every graph's and registry's raw
  mutex in a forked child, so a fork while another thread held one
  cannot hang the child.

Findings mirror the static analysis framework's row shape
(``{path, line, rule, message}``), so ``sanitizer-report.json`` and
``analysis-report.json`` read the same way.
"""

from __future__ import annotations

import itertools
import os
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "LockGraph",
    "SanitizerFinding",
    "ThreadRegistry",
    "collect_report",
]

#: The genuine lock constructor, captured before any proxy patching —
#: the graph's own mutex must never be a recording proxy.
_RAW_LOCK = threading.Lock

#: Every live graph and thread registry, for the after-fork reset.
_MUTEX_OWNERS: weakref.WeakSet = weakref.WeakSet()


def _reset_mutexes_in_child() -> None:
    """Reset every owner's raw mutex in a forked child.

    A child forked while some thread held one inherits it held, with no
    thread left to release it: its next thread or edge would hang.
    """
    for owner in list(_MUTEX_OWNERS):
        owner._mutex._at_fork_reinit()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_mutexes_in_child)


def _normalize(filename: str) -> str:
    """A repo-relative posix path when the file is inside the repo."""
    path = filename.replace("\\", "/")
    for marker in ("/src/", "/tests/", "/benchmarks/", "/scripts/", "/examples/"):
        index = path.rfind(marker)
        if index >= 0:
            return path[index + 1 :]
    return path


def _is_internal(filename: str) -> bool:
    """Frames the sanitizer must never attribute events to."""
    path = filename.replace("\\", "/")
    return (
        "/repro/sanitizer/" in path
        or path.endswith("/threading.py")
        or path.endswith("/traceback.py")
    )


def _caller_site() -> tuple[str, int, tuple[str, ...]]:
    """``(path, line, stack)`` of the innermost non-internal frame."""
    frames = traceback.extract_stack()
    stack = tuple(
        f"{_normalize(frame.filename)}:{frame.lineno} in {frame.name}"
        for frame in frames
        if not _is_internal(frame.filename)
    )
    for frame in reversed(frames):
        if not _is_internal(frame.filename):
            return _normalize(frame.filename), frame.lineno or 0, stack
    return "<unknown>", 0, stack


def _default_owner(path: str) -> bool:
    """Whether a creation site makes a thread repo-owned.

    Pool workers spawned inside ``concurrent.futures`` (or any other
    library) are that library's responsibility; only threads whose
    creating frame sits in ``src/repro`` (outside the sanitizer itself)
    are held to the join-on-stop contract.
    """
    return path.startswith("src/repro/") and not path.startswith(
        "src/repro/sanitizer/"
    )


@dataclass(frozen=True)
class SanitizerFinding:
    """One runtime finding, shaped like a static-analysis finding."""

    rule: str
    """Finding kind: ``lock-order`` or ``thread-leak``."""
    path: str
    """Repo-relative path of the anchoring site."""
    line: int
    """1-based line of the anchoring site."""
    message: str
    """Human-readable statement of the hazard."""
    detail: tuple[str, ...] = ()
    """Supporting stack-trace lines (first-acquisition stacks)."""

    def as_dict(self) -> dict:
        """JSON-ready row (``detail`` rides alongside the core four)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "detail": list(self.detail),
        }


@dataclass
class _Edge:
    """First-acquisition record for one (held, acquired) lock pair."""

    path: str
    line: int
    stack: tuple[str, ...]
    count: int = 1


@dataclass
class _ThreadRecord:
    """Creation/join bookkeeping for one recorded thread."""

    thread: threading.Thread
    path: str
    line: int
    owned: bool
    started: bool = False
    joined: bool = False


class ThreadRegistry:
    """Track every thread created under the sanitizer.

    A *leak* is a repo-owned thread that is still alive when the
    shutdown sweep runs, or a finished non-daemon repo-owned thread
    that was never successfully joined — both mean a ``stop()`` path
    skipped its bounded join.
    """

    def __init__(
        self, owned_predicate: Callable[[str], bool] = _default_owner
    ) -> None:
        """Create an empty registry.

        Args:
            owned_predicate: Maps a creation-site path to whether the
                thread is held to the join-on-stop contract (tests
                substitute ``lambda path: True``).
        """
        self._mutex = _RAW_LOCK()
        self._records: dict[int, _ThreadRecord] = {}
        self._owned = owned_predicate
        _MUTEX_OWNERS.add(self)

    def note_created(self, thread: threading.Thread) -> None:
        """Record a thread construction (captures the creation site)."""
        path, line, _ = _caller_site()
        with self._mutex:
            self._records[id(thread)] = _ThreadRecord(
                thread, path, line, self._owned(path)
            )

    def note_started(self, thread: threading.Thread) -> None:
        """Record a thread start."""
        with self._mutex:
            record = self._records.get(id(thread))
            if record is not None:
                record.started = True

    def note_joined(self, thread: threading.Thread) -> None:
        """Record a successful (thread actually finished) join."""
        with self._mutex:
            record = self._records.get(id(thread))
            if record is not None:
                record.joined = True

    def counts(self) -> dict:
        """Summary tallies for the report payload."""
        with self._mutex:
            records = list(self._records.values())
        return {
            "created": len(records),
            "owned": sum(1 for r in records if r.owned),
            "started": sum(1 for r in records if r.started),
            "joined": sum(1 for r in records if r.joined),
        }

    def leaks(self) -> list[SanitizerFinding]:
        """The leak findings as of right now (the shutdown sweep)."""
        with self._mutex:
            records = list(self._records.values())
        findings = []
        for record in records:
            if not record.owned or not record.started:
                continue
            name = record.thread.name
            if record.thread.is_alive():
                findings.append(
                    SanitizerFinding(
                        "thread-leak",
                        record.path,
                        record.line,
                        f"thread {name!r} (created at {record.path}:"
                        f"{record.line}) is still alive at the shutdown "
                        "sweep; a stop() path is missing its bounded join",
                    )
                )
            elif not record.joined and not record.thread.daemon:
                findings.append(
                    SanitizerFinding(
                        "thread-leak",
                        record.path,
                        record.line,
                        f"non-daemon thread {name!r} (created at "
                        f"{record.path}:{record.line}) finished but was "
                        "never joined; its shutdown path leaks the handle",
                    )
                )
        return findings


class LockGraph:
    """Thread-safe acquisition graph with incremental cycle detection.

    Proxies call :meth:`note_acquired` / :meth:`note_released`; the
    graph keeps each thread's held stack in thread-local storage and
    only takes its (raw, unrecorded) mutex when a *new* edge appears.
    A re-entrancy latch in the thread-local state drops events raised
    while the graph is already handling one on that thread (a finalizer
    taking a proxied lock mid-update must not re-enter the mutex).
    """

    def __init__(
        self, owned_predicate: Callable[[str], bool] = _default_owner
    ) -> None:
        """Create an empty graph.

        Args:
            owned_predicate: Forwarded to the :class:`ThreadRegistry`.
        """
        self._mutex = _RAW_LOCK()
        self._tls = threading.local()
        self._labels: dict[int, str] = {}
        self._edges: dict[tuple[int, int], _Edge] = {}
        self._adjacency: dict[int, set[int]] = {}
        self._findings: list[SanitizerFinding] = []
        self._cycle_keys: set[frozenset[int]] = set()
        self._uids = itertools.count(1)
        self.threads = ThreadRegistry(owned_predicate)
        _MUTEX_OWNERS.add(self)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_lock(self, kind: str) -> int:
        """Allocate a uid and creation-site label for a new primitive.

        Takes no mutex (``count`` and one dict store are atomic): in a
        forked child, ``threading``'s own after-fork hook builds an
        ``RLock`` before :func:`_reset_mutexes_in_child` runs.
        """
        path, line, _ = _caller_site()
        uid = next(self._uids)
        self._labels[uid] = f"{kind}({path}:{line})"
        return uid

    # ------------------------------------------------------------------
    # thread-local state
    # ------------------------------------------------------------------
    def _state(self) -> dict:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = {"stack": [], "busy": False}
        return state

    # ------------------------------------------------------------------
    # event stream (called by proxies)
    # ------------------------------------------------------------------
    def note_acquired(self, uid: int, levels: int = 1) -> None:
        """One successful acquire: record edges, push ``levels`` entries
        on the held stack — none for a permit (never held), every
        recursion level a ``Condition.wait`` released when it restores
        them (see :meth:`note_released_all`)."""
        state = self._state()
        if state["busy"]:
            return
        state["busy"] = True
        try:
            stack = state["stack"]
            if uid not in stack:
                for held in set(stack):
                    self._record_edge(held, uid)
            stack.extend([uid] * levels)
        finally:
            state["busy"] = False

    def note_released(self, uid: int) -> None:
        """One release: pop the newest matching held-stack entry."""
        state = self._state()
        if state["busy"]:
            return
        state["busy"] = True
        try:
            stack = state["stack"]
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] == uid:
                    del stack[index]
                    break
        finally:
            state["busy"] = False

    def note_released_all(self, uid: int) -> int:
        """Fully release a reentrant lock (``Condition.wait`` path).

        Returns the number of recursion levels dropped, so the matching
        re-acquire can restore them.
        """
        state = self._state()
        if state["busy"]:
            return 0
        state["busy"] = True
        try:
            stack = state["stack"]
            levels = stack.count(uid)
            stack[:] = [held for held in stack if held != uid]
            return levels
        finally:
            state["busy"] = False

    def held_count(self) -> int:
        """How many locks the calling thread currently holds."""
        return len(self._state()["stack"])

    # ------------------------------------------------------------------
    # graph maintenance
    # ------------------------------------------------------------------
    def _record_edge(self, held: int, acquired: int) -> None:
        with self._mutex:
            key = (held, acquired)
            edge = self._edges.get(key)
            if edge is not None:
                edge.count += 1
                return
            path, line, stack = _caller_site()
            self._edges[key] = _Edge(path, line, stack)
            self._adjacency.setdefault(held, set()).add(acquired)
            cycle = self._find_path(acquired, held)
            if cycle is None:
                return
            nodes = frozenset(cycle)
            if nodes in self._cycle_keys:
                return
            self._cycle_keys.add(nodes)
            self._findings.append(
                self._cycle_finding(cycle, path, line)
            )

    def _find_path(self, source: int, target: int) -> list[int] | None:
        """A node path ``source -> ... -> target`` in the edge set.

        Called with the graph mutex held; returns the cycle's node list
        (starting at ``target``, following the new edge) when the edge
        just inserted closes a loop.
        """
        parents: dict[int, int] = {}
        frontier = [source]
        seen = {source}
        while frontier:
            node = frontier.pop()
            if node == target:
                return self._unwind(parents, source, target)
            for neighbor in self._adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    parents[neighbor] = node
                    frontier.append(neighbor)
        return None

    @staticmethod
    def _unwind(
        parents: dict[int, int], source: int, target: int
    ) -> list[int]:
        """Reconstruct ``source -> ... -> target`` from DFS parents."""
        path = [target]
        while path[-1] != source:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def _cycle_finding(
        self, cycle: list[int], path: str, line: int
    ) -> SanitizerFinding:
        """Build the potential-deadlock finding for one closed cycle."""
        ring = cycle + [cycle[0]]
        parts = []
        detail: list[str] = []
        for a, b in zip(ring, ring[1:]):
            edge = self._edges.get((a, b))
            site = f"{edge.path}:{edge.line}" if edge else "?"
            parts.append(
                f"{self._labels.get(b, b)} taken while holding "
                f"{self._labels.get(a, a)} at {site}"
            )
            if edge is not None:
                detail.extend(edge.stack[-4:])
        labels = ", ".join(sorted(self._labels.get(n, str(n)) for n in cycle))
        return SanitizerFinding(
            "lock-order",
            path,
            line,
            f"potential deadlock: acquisition cycle over {{{labels}}} — "
            + "; ".join(parts),
            tuple(detail),
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def findings(self, sweep_threads: bool = True) -> list[SanitizerFinding]:
        """All findings so far (cycles, plus the thread-leak sweep)."""
        with self._mutex:
            found = list(self._findings)
        if sweep_threads:
            found.extend(self.threads.leaks())
        return sorted(
            found, key=lambda f: (f.rule, f.path, f.line, f.message)
        )

    def edges(self) -> list[dict]:
        """The edge list, one JSON-ready row per ordered lock pair."""
        with self._mutex:
            rows = [
                {
                    "held": self._labels.get(a, str(a)),
                    "acquired": self._labels.get(b, str(b)),
                    "site": f"{edge.path}:{edge.line}",
                    "count": edge.count,
                }
                for (a, b), edge in self._edges.items()
            ]
        return sorted(
            rows, key=lambda row: (row["held"], row["acquired"])
        )


def collect_report(graph: LockGraph) -> dict:
    """The deterministic JSON payload for ``sanitizer-report.json``.

    Mirrors the static analysis report: an ``ok`` verdict plus finding
    rows carrying ``path``/``line``/``rule``/``message``, with the lock
    graph's edges and the thread tallies as supporting sections.
    """
    findings = graph.findings()
    return {
        "ok": not findings,
        "findings": [finding.as_dict() for finding in findings],
        "edges": graph.edges(),
        "threads": graph.threads.counts(),
    }
