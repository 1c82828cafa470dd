"""Recording proxies for ``threading`` primitives, plus the patcher.

:func:`install` swaps ``threading.Lock/RLock/Condition/Semaphore/
BoundedSemaphore/Thread`` for factories that wrap the *real* primitive
(captured in :data:`_REAL` at import time, so nested installs never
double-wrap) in a thin recording shim feeding a
:class:`~repro.sanitizer.lockgraph.LockGraph`:

* :class:`LockProxy` / :class:`RLockProxy` push and pop the per-thread
  held stack, and reset their real lock in a forked child
  (``_at_fork_reinit``, which ``threading``'s after-fork hook calls on
  every thread's locks); the reentrant variant also implements the
  ``_is_owned`` / ``_release_save`` / ``_acquire_restore`` protocol, so
  a genuine ``threading.Condition`` built over a proxy records its
  ``wait()`` release/re-acquire cycle correctly;
* the Condition factory returns a **real** ``Condition`` over the
  caller's (proxied) lock — conditions sharing one mutex (e.g. a
  ``queue.Queue``'s ``not_empty``/``not_full``) collapse onto a single
  graph node, exactly matching the runtime object graph;
* :class:`SemaphoreProxy` records acquisition *edges* but is
  never pushed on the held stack: a permit acquired on one thread is
  legitimately released on another (the serving tier's admission
  control), so permits have no bracketed hold span to track;
* the Thread factory subclasses the real ``Thread`` (subclassing and
  ``isinstance`` keep working) and registers construction/start/join
  with the graph's :class:`~repro.sanitizer.lockgraph.ThreadRegistry`.

:func:`uninstall` restores whatever :func:`install` replaced; installs
nest (a test can layer a private graph over the session-wide one) and
uninstall pops the most recent layer.
"""

from __future__ import annotations

import threading

from repro.sanitizer.lockgraph import LockGraph

__all__ = [
    "LockProxy",
    "RLockProxy",
    "SemaphoreProxy",
    "install",
    "installed",
    "uninstall",
]

#: The genuine primitives, captured at import — proxy factories always
#: build on these, so layered installs wrap the real thing exactly once.
_REAL = {
    "Lock": threading.Lock,
    "RLock": threading.RLock,
    "Condition": threading.Condition,
    "Semaphore": threading.Semaphore,
    "BoundedSemaphore": threading.BoundedSemaphore,
    "Thread": threading.Thread,
}

_PATCHED_NAMES = tuple(_REAL)

#: Saved ``threading`` attributes, one dict per active install.
_PATCH_STACK: list[dict] = []


class LockProxy:
    """A ``threading.Lock`` that reports acquire/release to a graph."""

    _KIND = "Lock"

    def __init__(self, graph: LockGraph, inner=None) -> None:
        """Wrap ``inner`` (a fresh real lock when omitted).

        Args:
            graph: The recording :class:`LockGraph`.
            inner: An already-constructed real primitive to wrap.
        """
        self._graph = graph
        self._inner = inner if inner is not None else self._make_inner()
        self._uid = graph.register_lock(self._KIND)

    def _make_inner(self):
        return _REAL["Lock"]()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the real lock, recording order edges."""
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._graph.note_acquired(self._uid)
        return ok

    def release(self) -> None:
        """Release the real lock, popping it off the held stack."""
        self._graph.note_released(self._uid)
        self._inner.release()

    def locked(self) -> bool:
        """Whether the underlying lock is currently held by anyone."""
        return self._inner.locked()

    def _at_fork_reinit(self) -> None:
        """Reset the real lock in a forked child (``threading`` hook)."""
        self._inner._at_fork_reinit()

    def __enter__(self) -> bool:
        """``with`` protocol: acquire."""
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        """``with`` protocol: release."""
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} uid={self._uid}>"


class RLockProxy(LockProxy):
    """A reentrant recording proxy that supports ``Condition.wait``."""

    _KIND = "RLock"

    def _make_inner(self):
        return _REAL["RLock"]()

    def _is_owned(self) -> bool:
        """Whether the calling thread owns the lock (Condition protocol)."""
        return self._inner._is_owned()

    def _release_save(self):
        """Fully release all recursion levels (Condition protocol)."""
        state = self._inner._release_save()
        levels = self._graph.note_released_all(self._uid)
        return (state, levels)

    def _acquire_restore(self, saved) -> None:
        """Re-acquire to the saved recursion depth (Condition protocol)."""
        state, levels = saved
        self._inner._acquire_restore(state)
        self._graph.note_acquired(self._uid, max(levels, 1))


class SemaphoreProxy:
    """A recording semaphore: an edge target, never held.

    A blocking ``acquire`` under a lock shows up as a graph edge (the
    hazard the static ``blocking-under-lock`` rule flags), but permits
    are not pushed on the held stack — they are routinely released by a
    different thread than the one that acquired them.
    """

    def __init__(
        self, graph: LockGraph, value: int = 1, bounded: bool = False
    ) -> None:
        """Wrap a fresh real (bounded) semaphore of ``value`` permits."""
        self._graph = graph
        ctor = _REAL["BoundedSemaphore"] if bounded else _REAL["Semaphore"]
        self._inner = ctor(value)
        self._uid = graph.register_lock(
            "BoundedSemaphore" if bounded else "Semaphore"
        )

    def acquire(
        self, blocking: bool = True, timeout: float | None = None
    ) -> bool:
        """Acquire one permit, recording order edges."""
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._graph.note_acquired(self._uid, levels=0)
        return ok

    def release(self, n: int = 1) -> None:
        """Release ``n`` permits (a permit is never on a held stack)."""
        self._inner.release(n)

    def __enter__(self) -> bool:
        """``with`` protocol: acquire one permit."""
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        """``with`` protocol: release the permit."""
        self.release()


def _condition_factory(graph: LockGraph):
    """A patched ``threading.Condition``: real Condition, proxied lock."""

    def condition(lock=None):
        """Build a real Condition over the given (or a fresh) proxy."""
        if lock is None:
            lock = RLockProxy(graph)
        return _REAL["Condition"](lock)

    return condition


def _thread_factory(graph: LockGraph):
    """A patched ``threading.Thread`` reporting to the registry."""
    real = _REAL["Thread"]

    class RecordingThread(real):
        """A real Thread that registers construction, start, and join."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            graph.threads.note_created(self)

        def start(self) -> None:
            """Start the thread, marking it started in the registry."""
            graph.threads.note_started(self)
            super().start()

        def join(self, timeout: float | None = None) -> None:
            """Join; only a join that saw the thread finish counts."""
            super().join(timeout)
            if not self.is_alive():
                graph.threads.note_joined(self)

    return RecordingThread


def install(graph: LockGraph) -> None:
    """Patch ``threading`` so new primitives record into ``graph``.

    Primitives created *before* the install stay raw (and invisible);
    the pytest gate installs at session configure time, before any
    component under test builds its locks. Installs nest: each call
    pushes the previous attributes, and :func:`uninstall` pops.
    """
    saved = {name: getattr(threading, name) for name in _PATCHED_NAMES}
    _PATCH_STACK.append(saved)
    threading.Lock = lambda: LockProxy(graph)
    threading.RLock = lambda: RLockProxy(graph)
    threading.Condition = _condition_factory(graph)
    threading.Semaphore = lambda value=1: SemaphoreProxy(graph, value)
    threading.BoundedSemaphore = lambda value=1: SemaphoreProxy(
        graph, value, bounded=True
    )
    threading.Thread = _thread_factory(graph)


def installed() -> bool:
    """Whether at least one sanitizer install layer is active."""
    return bool(_PATCH_STACK)


def uninstall() -> None:
    """Pop the most recent install layer, restoring what it replaced.

    Raises:
        RuntimeError: If no install layer is active.
    """
    if not _PATCH_STACK:
        raise RuntimeError("sanitizer is not installed")
    saved = _PATCH_STACK.pop()
    for name, value in saved.items():
        setattr(threading, name, value)
