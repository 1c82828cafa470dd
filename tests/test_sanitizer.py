"""Runtime concurrency-sanitizer tests.

Every test builds a *local* :class:`LockGraph` (directly, or via a
nested ``sanitizer.install`` layer), so nothing here pollutes the
session-wide graph when the suite itself runs under ``REPRO_TSAN=1``.

The centerpiece is the planted lock-order inversion: two threads take
two locks in opposite orders, *sequenced by events so the test can
never actually deadlock*, and the graph must still report the
potential deadlock — that is the whole point of lockset analysis.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import sys
import threading
import time

import pytest

from repro import sanitizer
from repro.sanitizer import (
    LockGraph,
    LockProxy,
    RLockProxy,
    SemaphoreProxy,
)
from repro.sanitizer.proxies import _REAL


def run_threads(*targets):
    """Run each target in its own thread and join them all."""
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "test thread wedged"


def lock_order_findings(graph):
    return [f for f in graph.findings() if f.rule == "lock-order"]


class TestCycleDetection:
    def test_inversion_reported_without_deadlock(self):
        """The planted fixture: opposite-order acquisition across two
        threads is flagged even though no deadlock ever happens."""
        graph = LockGraph()
        a = LockProxy(graph)
        b = LockProxy(graph)
        first_done = threading.Event()

        def one():
            with a:
                with b:
                    pass
            first_done.set()

        def two():
            assert first_done.wait(10.0)
            with b:
                with a:
                    pass

        run_threads(one, two)
        findings = lock_order_findings(graph)
        assert len(findings) == 1
        message = findings[0].message
        assert "potential deadlock" in message
        assert "test_sanitizer.py" in message
        assert findings[0].detail, "finding carries acquisition stacks"
        assert not graph.findings() == []

    def test_consistent_order_is_clean(self):
        graph = LockGraph()
        a = LockProxy(graph)
        b = LockProxy(graph)

        def worker():
            for _ in range(3):
                with a:
                    with b:
                        pass

        run_threads(worker, worker)
        assert lock_order_findings(graph) == []
        assert [e["count"] for e in graph.edges()] == [6]

    def test_three_lock_cycle(self):
        """Cycles longer than two nodes are found incrementally."""
        graph = LockGraph()
        a, b, c = LockProxy(graph), LockProxy(graph), LockProxy(graph)
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass
        findings = lock_order_findings(graph)
        assert len(findings) == 1
        assert findings[0].message.count("taken while holding") == 3

    def test_cycle_reported_once(self):
        """Re-exercising the same inversion does not duplicate it."""
        graph = LockGraph()
        a = LockProxy(graph)
        b = LockProxy(graph)
        for _ in range(4):
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert len(lock_order_findings(graph)) == 1

    def test_reentrant_rlock_no_self_edge(self):
        graph = LockGraph()
        lock = RLockProxy(graph)
        with lock:
            with lock:
                pass
        assert graph.edges() == []
        assert graph.findings() == []


class TestConditionAndSemaphore:
    def test_condition_wait_releases_and_reacquires(self):
        """A real Condition over a proxy records the wait protocol:
        the held stack empties during wait, re-fills after, and the
        whole exchange leaves no findings."""
        graph = LockGraph()
        cond = _REAL["Condition"](RLockProxy(graph))
        ready = []
        held = []

        def consumer():
            with cond:
                while not ready:
                    cond.wait(5.0)
                held.append(graph.held_count())
            held.append(graph.held_count())

        def producer():
            time.sleep(0.02)
            with cond:
                ready.append(1)
                cond.notify_all()

        run_threads(consumer, producer)
        assert graph.findings() == []
        assert graph.edges() == []
        # One level after the wait (released, then restored — not
        # stacked twice), none after the with block.
        assert held == [1, 0]

    def test_plain_lock_condition_works(self):
        """The serving tier's Condition(Lock()) shape (fallback
        protocol, no _release_save on the lock) records cleanly."""
        graph = LockGraph()
        cond = _REAL["Condition"](LockProxy(graph))
        with cond:
            cond.wait(0.01)
        assert graph.findings() == []

    def test_semaphore_is_never_held(self):
        """A permit acquired under a lock is an edge *target* but has
        no hold span: releasing from another thread must not corrupt
        any held stack, and no cycle can form through it."""
        graph = LockGraph()
        lock = LockProxy(graph)
        permits = SemaphoreProxy(graph, 1)
        with lock:
            assert permits.acquire(timeout=1.0)

        def other_thread_release():
            permits.release()

        run_threads(other_thread_release)
        with lock:
            pass
        edges = graph.edges()
        assert len(edges) == 1
        assert edges[0]["acquired"].startswith("Semaphore(")
        assert graph.findings() == []

    def test_queue_conditions_share_one_node(self):
        """Under an install layer a Queue's two conditions wrap one
        mutex: producer/consumer traffic creates no cross edges."""
        graph = sanitizer.install(LockGraph())
        try:
            channel = queue.Queue(maxsize=2)

            def producer():
                for i in range(8):
                    channel.put(i, timeout=5.0)

            def consumer():
                for _ in range(8):
                    channel.get(timeout=5.0)

            run_threads(producer, consumer)
        finally:
            sanitizer.uninstall()
        assert graph.findings() == []


class TestInstall:
    def test_patch_and_restore(self):
        before = (threading.Lock, threading.RLock, threading.Thread)
        graph = sanitizer.install(LockGraph())
        try:
            assert threading.Thread is before[2], "threads stay unpatched"
            assert isinstance(threading.Lock(), LockProxy)
            assert isinstance(threading.RLock(), RLockProxy)
            assert isinstance(threading.Semaphore(2), SemaphoreProxy)
            with threading.Lock():
                assert graph.held_count() == 1
            assert graph.held_count() == 0
        finally:
            sanitizer.uninstall()
        assert (threading.Lock, threading.RLock, threading.Thread) == before

    def test_layers_nest(self):
        """A nested install records into its own graph and pops back to
        the outer layer — and never double-wraps the real primitive."""
        outer = sanitizer.install(LockGraph())
        inner = sanitizer.install(LockGraph())
        try:
            lock = threading.Lock()
            assert isinstance(lock, LockProxy)
            assert isinstance(lock._inner, _REAL["Lock"]().__class__)
            with lock:
                assert (inner.held_count(), outer.held_count()) == (1, 0)
        finally:
            sanitizer.uninstall()
        try:
            assert sanitizer.active_graph() is outer
            with threading.Lock():
                assert (inner.held_count(), outer.held_count()) == (0, 1)
        finally:
            sanitizer.uninstall()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_resets_threading_without_error(self):
        """threading's after-fork hook reinitialises the locks of every
        thread it knows; on a proxy that must work, or the hook raises
        in the child and leaves the parent's threads registered there."""
        errors = []
        saved_hook = sys.unraisablehook
        sanitizer.install(LockGraph())
        try:
            joined = threading.Thread(target=lambda: None)
            joined.start()
            joined.join(timeout=5.0)
            release = threading.Event()
            alive = threading.Thread(target=release.wait, args=(10.0,))
            alive.start()
            read_fd, write_fd = os.pipe()
            sys.unraisablehook = errors.append
            pid = os.fork()
            if pid == 0:  # the child: report, then leave at once
                clean = not errors and threading.active_count() == 1
                os.write(write_fd, b"1" if clean else b"0")
                os._exit(0)
            sys.unraisablehook = saved_hook
            os.close(write_fd)
            verdict = os.read(read_fd, 1)
            os.close(read_fd)
            os.waitpid(pid, 0)
            release.set()
            alive.join(timeout=5.0)
        finally:
            sys.unraisablehook = saved_hook
            sanitizer.uninstall()
        assert verdict == b"1"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("owner", ["graph"])
    def test_forked_child_resets_the_sanitizers_own_mutexes(self, owner):
        """A child forked while a thread holds the graph's raw mutex
        inherits it held, with no thread left to release it. The child
        must still record a new edge and start a thread; the parent
        kills it at a deadline, so a hang fails the test instead of
        wedging the suite."""
        graph = sanitizer.install(LockGraph())
        try:
            with graph._mutex:
                pid = os.fork()
                if pid == 0:  # the child: nest two locks, spawn, leave
                    code = 1
                    try:
                        with threading.Lock():
                            with threading.Lock():
                                worker = threading.Thread(target=lambda: None)
                                worker.start()
                        worker.join(timeout=5.0)
                        code = 0 if graph.edges() else 2
                    finally:
                        os._exit(code)
        finally:
            sanitizer.uninstall()
        deadline = time.monotonic() + 5.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail(f"forked child hung on the held {owner} mutex")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_uninstall_without_install_raises(self):
        depth = 0
        while sanitizer.installed():
            sanitizer.uninstall()
            depth += 1
        try:
            with pytest.raises(RuntimeError):
                sanitizer.uninstall()
        finally:
            for _ in range(depth):
                sanitizer.install(LockGraph())
        # Restore is approximate under a pre-existing session install:
        # re-install count matches, which is all uninstall() checks.
        assert sanitizer.installed() == (depth > 0)


class TestReport:
    def make_cycle_graph(self):
        graph = LockGraph()
        a = LockProxy(graph)
        b = LockProxy(graph)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        return graph

    def test_schema_mirrors_analysis_report(self):
        payload = sanitizer.collect_report(self.make_cycle_graph())
        assert set(payload) == {"ok", "findings", "edges"}
        assert payload["ok"] is False
        row = payload["findings"][0]
        assert set(row) >= {"path", "line", "rule", "message"}
        assert row["rule"] == "lock-order"
        assert row["path"].startswith("tests/")
        assert isinstance(row["line"], int) and row["line"] > 0

    def test_json_is_deterministic_for_a_given_graph(self):
        graph = self.make_cycle_graph()
        first = json.dumps(sanitizer.collect_report(graph), sort_keys=True)
        second = json.dumps(sanitizer.collect_report(graph), sort_keys=True)
        assert first == second

    def test_write_report(self, tmp_path):
        path = tmp_path / "sanitizer-report.json"
        payload = sanitizer.write_report(self.make_cycle_graph(), str(path))
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == payload
        assert on_disk["ok"] is False

    def test_clean_graph_reports_ok(self):
        graph = LockGraph()
        a = LockProxy(graph)
        b = LockProxy(graph)
        with a:
            with b:
                pass
        payload = sanitizer.collect_report(graph)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert [edge["count"] for edge in payload["edges"]] == [1]
        assert graph.held_count() == 0


class TestEnvKnobs:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("", False),
            ("0", False),
            ("false", False),
            ("no", False),
            ("1", True),
            ("true", True),
            ("on", True),
        ],
    )
    def test_enabled_from_env(self, monkeypatch, value, expected):
        monkeypatch.setenv(sanitizer.TSAN_ENV, value)
        assert sanitizer.enabled_from_env() is expected

    def test_report_path_from_env(self, monkeypatch):
        monkeypatch.delenv(sanitizer.TSAN_REPORT_ENV, raising=False)
        assert sanitizer.report_path_from_env() == "sanitizer-report.json"
        monkeypatch.setenv(sanitizer.TSAN_REPORT_ENV, "custom.json")
        assert sanitizer.report_path_from_env() == "custom.json"
