"""Runtime concurrency sanitizer: lockset and deadlock detection.

The repo's one acquisition-order checker: lock-order cycles are proved
here, from the orders tier-1 actually runs. ``repro.analysis`` keeps
the two static lock rules, which read one method at a time:
``lock-discipline`` (shared state touched outside the lock) and
``blocking-under-lock`` (a blocking call while a lock is held).
Installing the sanitizer — ``REPRO_TSAN=1`` in the environment, or
:func:`install` programmatically — swaps the ``threading`` primitives
for recording proxies that feed a process-wide
:class:`~repro.sanitizer.lockgraph.LockGraph`:

* every thread's held-lock stack is tracked thread-locally;
* each "acquired B while holding A" pair becomes a graph edge with its
  first acquisition site and stack trace;
* a cycle is reported the moment its closing edge appears — a
  *potential deadlock* finding without any thread hanging;
* a thread registry flags repo-owned threads that outlive the shutdown
  sweep or finish without ever being joined.

``tests/conftest.py`` wires the gate: with ``REPRO_TSAN=1`` the whole
tier-1 suite runs under the sanitizer, ``sanitizer-report.json`` (path
override: ``REPRO_TSAN_REPORT``) is written at session end, and any
finding fails the run. With the knob unset nothing here is imported or
patched — zero overhead when disabled.
"""

from __future__ import annotations

import json
import os

from repro.sanitizer.lockgraph import (
    LockGraph,
    SanitizerFinding,
    ThreadRegistry,
    collect_report,
)
from repro.sanitizer.proxies import (
    LockProxy,
    RLockProxy,
    SemaphoreProxy,
)
from repro.sanitizer import proxies as _proxies

__all__ = [
    "DEFAULT_REPORT_PATH",
    "LockGraph",
    "LockProxy",
    "RLockProxy",
    "SanitizerFinding",
    "SemaphoreProxy",
    "ThreadRegistry",
    "TSAN_ENV",
    "TSAN_REPORT_ENV",
    "active_graph",
    "collect_report",
    "enabled_from_env",
    "install",
    "installed",
    "report_path_from_env",
    "uninstall",
    "write_report",
]

#: Enable knob: any value other than empty/``0``/``false``/``no``.
TSAN_ENV = "REPRO_TSAN"

#: Report-path knob (default :data:`DEFAULT_REPORT_PATH`).
TSAN_REPORT_ENV = "REPRO_TSAN_REPORT"

#: Where the session report lands when the env knob does not say.
DEFAULT_REPORT_PATH = "sanitizer-report.json"

#: Graphs of the active install layers, newest last.
_GRAPH_STACK: list[LockGraph] = []


def enabled_from_env() -> bool:
    """Whether ``REPRO_TSAN`` asks for the sanitizer."""
    return os.environ.get(TSAN_ENV, "").strip().lower() not in {
        "",
        "0",
        "false",
        "no",
    }


def report_path_from_env() -> str:
    """The report path ``REPRO_TSAN_REPORT`` selects (or the default)."""
    return os.environ.get(TSAN_REPORT_ENV, "").strip() or DEFAULT_REPORT_PATH


def install(graph: LockGraph | None = None) -> LockGraph:
    """Activate the sanitizer; returns the recording graph.

    The graph is created *before* patching, so its own bookkeeping
    (graph and registry mutexes) runs on raw primitives. Installs
    nest — a test can layer a private graph over the session-wide one
    and :func:`uninstall` restores the outer layer.
    """
    if graph is None:
        graph = LockGraph()
    _proxies.install(graph)
    _GRAPH_STACK.append(graph)
    return graph


def uninstall() -> None:
    """Deactivate the newest install layer.

    Raises:
        RuntimeError: If the sanitizer is not installed.
    """
    _proxies.uninstall()
    _GRAPH_STACK.pop()


def installed() -> bool:
    """Whether any sanitizer layer is currently active."""
    return _proxies.installed()


def active_graph() -> LockGraph | None:
    """The graph of the newest active layer (``None`` when inactive)."""
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def write_report(graph: LockGraph, path: str) -> dict:
    """Write ``graph``'s report as deterministic JSON; returns it."""
    payload = collect_report(graph)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload
