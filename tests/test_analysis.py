"""Tests for the :mod:`repro.analysis` invariant-checker suite.

Each rule gets a fixture mini-repo with at least one planted violation,
asserted at its exact ``file:line``; the framework mechanics
(suppression comments, empty-reason policing, rule filtering) get their
own coverage; and the closure tests prove the *live* repository passes
the full suite with zero unsuppressed findings while a planted
undocumented counter key provably fails it. Lock-order cycles are the
runtime sanitizer's finding: the fixtures of the static rule it
replaced run through its lock graph here, so each catch is still shown.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import sanitizer
from repro.analysis import (
    BlockingUnderLockRule,
    ContractClosureRule,
    DeterminismRule,
    DocstringRule,
    LockDisciplineRule,
    ResourceSafetyRule,
    Rule,
    UnusedImportRule,
    collect_modules,
    default_rules,
    run_analysis,
)
from repro.analysis.astutil import import_aliases, resolve_name
from repro.analysis.framework import ParsedModule

REPO = Path(__file__).resolve().parent.parent

#: What starts a thread: constructing (or subclassing) any of these.
THREAD_CONSTRUCTORS = frozenset({"Thread", "Timer", "ThreadPoolExecutor"})
#: What makes a lock, in ``threading`` or ``multiprocessing``.
LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


def make_repo(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a fixture mini-repo of ``relpath -> dedented source``."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def line_of(repo: Path, relpath: str, needle: str) -> int:
    """1-based line of the first line containing ``needle``."""
    text = (repo / relpath).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in {relpath}")


def findings_for(report, rule_id: str):
    return [f for f in report.findings if f.rule == rule_id]


def constructions(
    repo: Path, package: str, constructors: frozenset[str]
) -> list[str]:
    """``path:line`` of every call to, or class deriving from, one of
    ``constructors`` in ``repo/package``'s modules, resolved through
    each module's imports."""
    sites = []
    for path in sorted((repo / package).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                refs = [node.func]
            elif isinstance(node, ast.ClassDef):
                refs = node.bases
            else:
                continue
            for ref in refs:
                name = resolve_name(ref, aliases) or ""
                if name.rsplit(".", 1)[-1] in constructors:
                    sites.append((str(path.relative_to(repo)), node.lineno))
    return [f"{relpath}:{line}" for relpath, line in sorted(sites)]


class TestDeterminismRule:
    SURFACE = ("src/repro/core/",)

    def test_planted_violations_at_exact_lines(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/repro/core/fake.py": """\
                    import random
                    import time

                    import numpy as np


                    def stamp():
                        return time.time()  # clock


                    def draw():
                        return random.random()  # global rng


                    def legacy():
                        return np.random.rand(3)  # legacy draw


                    def seeded():
                        return np.random.default_rng(7).integers(0, 9)


                    def leak_order():
                        for item in {"b", "a"}:  # set iter
                            yield item
                """,
            },
        )
        report = run_analysis(repo, [DeterminismRule(surface=self.SURFACE)])
        found = {
            (f.line, f.message.split(":")[0].split(" on ")[0])
            for f in findings_for(report, "determinism")
        }
        relpath = "src/repro/core/fake.py"
        assert (line_of(repo, relpath, "# clock"), "call to time.time") in found
        assert (
            line_of(repo, relpath, "# global rng"),
            "call to random.random",
        ) in found
        assert (
            line_of(repo, relpath, "# legacy draw"),
            "call to numpy.random.rand",
        ) in found
        set_lines = {
            f.line
            for f in findings_for(report, "determinism")
            if "set literal" in f.message
        }
        assert line_of(repo, relpath, "# set iter") in set_lines
        # Seeded construction is allowed: exactly the four planted hits.
        assert len(findings_for(report, "determinism")) == 4

    def test_off_surface_module_is_ignored(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/repro/other/timing.py": """\
                    import time

                    NOW = time.time()
                """,
            },
        )
        report = run_analysis(repo, [DeterminismRule(surface=self.SURFACE)])
        assert not findings_for(report, "determinism")


class TestSuppressions:
    SURFACE = ("src/repro/core/",)

    def _repo(self, tmp_path, comment: str) -> Path:
        return make_repo(
            tmp_path,
            {
                "src/repro/core/fake.py": f"""\
                    import time

                    {comment}
                    NOW = time.time()
                """,
            },
        )

    def test_suppression_comment_silences_finding(self, tmp_path):
        repo = self._repo(
            tmp_path, "# repro: allow[determinism] startup stamp, not output"
        )
        report = run_analysis(repo, [DeterminismRule(surface=self.SURFACE)])
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["determinism"]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        repo = self._repo(
            tmp_path, "# repro: allow[resource-safety] wrong rule"
        )
        report = run_analysis(repo, [DeterminismRule(surface=self.SURFACE)])
        assert [f.rule for f in report.findings] == ["determinism"]

    def test_empty_reason_is_its_own_finding(self, tmp_path):
        repo = self._repo(tmp_path, "# repro: allow[determinism]")
        report = run_analysis(repo, [DeterminismRule(surface=self.SURFACE)])
        # The violation is suppressed, but the reasonless comment gates.
        assert [f.rule for f in report.findings] == ["suppression"]
        assert report.findings[0].line == line_of(
            repo, "src/repro/core/fake.py", "allow[determinism]"
        )


class TestContractClosureRule:
    SOURCES = ("src/contract.py",)

    def _files(self, contract: str, emit: str) -> dict[str, str]:
        return {
            "src/contract.py": f"FAKE_CONTRACT = {contract}\n",
            "src/emit.py": emit,
        }

    def test_closed_contract_passes(self, tmp_path):
        repo = make_repo(
            tmp_path,
            self._files(
                '(("jobs/started", "counter", "jobs", False),)',
                'def go(t):\n    t.counter("jobs/started")\n',
            ),
        )
        report = run_analysis(
            repo, [ContractClosureRule(contract_sources=self.SOURCES)]
        )
        assert report.ok

    def test_undocumented_emission_flagged_at_site(self, tmp_path):
        repo = make_repo(
            tmp_path,
            self._files(
                '(("jobs/started", "counter", "jobs", False),)',
                "def go(t):\n"
                '    t.counter("jobs/started")\n'
                '    t.counter("jobs/rogue")  # planted\n',
            ),
        )
        report = run_analysis(
            repo, [ContractClosureRule(contract_sources=self.SOURCES)]
        )
        [finding] = findings_for(report, "contract-closure")
        assert "'jobs/rogue'" in finding.message
        assert finding.path == "src/emit.py"
        assert finding.line == line_of(repo, "src/emit.py", "# planted")

    def test_dead_contract_entry_flagged_at_tuple_line(self, tmp_path):
        repo = make_repo(
            tmp_path,
            self._files(
                '(\n    ("jobs/started", "counter", "jobs", False),\n'
                '    ("jobs/ghost", "counter", "jobs", True),\n)',
                'def go(t):\n    t.counter("jobs/started")\n',
            ),
        )
        report = run_analysis(
            repo, [ContractClosureRule(contract_sources=self.SOURCES)]
        )
        [finding] = findings_for(report, "contract-closure")
        assert "'jobs/ghost'" in finding.message and "no longer" in finding.message
        assert finding.path == "src/contract.py"
        assert finding.line == line_of(repo, "src/contract.py", "jobs/ghost")

    def test_kind_mismatch_is_a_closure_failure(self, tmp_path):
        # A key documented as a counter but emitted as a histogram is
        # flagged in both directions.
        repo = make_repo(
            tmp_path,
            self._files(
                '(("jobs/latency", "counter", "jobs", False),)',
                'def go(t):\n    t.record("jobs/latency", 5)\n',
            ),
        )
        report = run_analysis(
            repo, [ContractClosureRule(contract_sources=self.SOURCES)]
        )
        messages = [f.message for f in findings_for(report, "contract-closure")]
        assert len(messages) == 2
        assert any("histogram key" in m and "emitted but" in m for m in messages)
        assert any("counter key" in m and "no longer" in m for m in messages)

    STAGED = (
        '(("jobs/done", "counter", "jobs", False, "jobs.run", "events"),'
        ' ("jobs/run_us", "histogram", "jobs", False, "jobs.run", "us"))'
    )

    def test_stage_call_emits_every_row_naming_it(self, tmp_path):
        """The seam: one ``.stage("jobs.run")`` closes both a counter
        and a histogram row, each under its own kind — and an undotted
        ``.stage("m")`` (e.g. ``ModelRegistry.stage``) is not the seam."""
        repo = make_repo(
            tmp_path,
            self._files(
                self.STAGED,
                "def go(metrics, models):\n"
                '    metrics.stage("jobs.run", 7, records=3)\n'
                '    models.stage("m")\n',
            ),
        )
        report = run_analysis(
            repo, [ContractClosureRule(contract_sources=self.SOURCES)]
        )
        assert report.ok

    def test_uninvoked_or_unknown_stage_is_a_closure_failure(self, tmp_path):
        repo = make_repo(
            tmp_path,
            self._files(
                self.STAGED,
                'def go(metrics):\n    metrics.stage("jobs.rogue", 7)  # planted\n',
            ),
        )
        report = run_analysis(
            repo, [ContractClosureRule(contract_sources=self.SOURCES)]
        )
        findings = findings_for(report, "contract-closure")
        [rogue] = [f for f in findings if "'jobs.rogue'" in f.message]
        assert rogue.path == "src/emit.py"
        assert rogue.line == line_of(repo, "src/emit.py", "# planted")
        dead = [f for f in findings if "no longer" in f.message]
        assert len(dead) == 2 and len(findings) == 3
        assert {f.path for f in dead} == {"src/contract.py"}

    def test_planted_key_fails_against_live_repo(self, tmp_path):
        """Acceptance: an undocumented counter key provably fails."""
        planted = tmp_path / "src" / "planted.py"
        planted.parent.mkdir(parents=True)
        planted.write_text(
            'def emit(telemetry):\n'
            '    telemetry.counter("stream/totally_undocumented")\n',
            encoding="utf-8",
        )
        modules = list(collect_modules(REPO, ("src",)).values())
        modules.append(ParsedModule(tmp_path, planted))
        findings = list(ContractClosureRule().check_repo(modules))
        assert any(
            "'stream/totally_undocumented'" in f.message
            and f.path == "src/planted.py"
            for f in findings
        )
        # And without the plant, the same sweep is clean.
        assert not list(ContractClosureRule().check_repo(modules[:-1]))


LOCKED_CLASS = """\
    import threading


    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self._buf = []
            self._thread = None

        def start(self):
            self._thread = threading.Thread(target=self._run)
            self._thread.start()

        def _run(self):
            with self._lock:
                self._buf.append(1)

        def push(self, item):
            with self._lock:
                self._buf.append(item)
"""

UNLOCKED_CLASS = """\
    import threading


    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self._buf = []
            self._thread = None

        def start(self):
            self._thread = threading.Thread(target=self._run)
            self._thread.start()

        def _run(self):
            self._buf.append(1)  # thread-side unlocked

        def push(self, item):
            self._buf.append(item)  # public-side unlocked

        def size(self):
            with self._lock:
                return len(self._buf)
"""


class TestLockDisciplineRule:
    def test_unlocked_shared_attr_flagged_on_both_sides(self, tmp_path):
        repo = make_repo(tmp_path, {"src/worker.py": UNLOCKED_CLASS})
        report = run_analysis(repo, [LockDisciplineRule()])
        lines = {f.line for f in findings_for(report, "lock-discipline")}
        assert line_of(repo, "src/worker.py", "# thread-side unlocked") in lines
        assert line_of(repo, "src/worker.py", "# public-side unlocked") in lines
        messages = {f.message for f in findings_for(report, "lock-discipline")}
        assert any("self._buf" in m for m in messages)

    def test_locked_class_passes(self, tmp_path):
        repo = make_repo(tmp_path, {"src/worker.py": LOCKED_CLASS})
        report = run_analysis(repo, [LockDisciplineRule()])
        assert report.ok

    def test_threadless_class_is_ignored(self, tmp_path):
        """A class that takes no lock guards nothing, so nothing it
        mutates is a finding."""
        repo = make_repo(
            tmp_path,
            {
                "src/plain.py": """\
                    class Plain:
                        def __init__(self):
                            self._buf = []

                        def push(self, item):
                            self._buf.append(item)
                """,
            },
        )
        report = run_analysis(repo, [LockDisciplineRule()])
        assert report.ok

    def test_closure_thread_target_counts_as_thread_side(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/closure.py": """\
                    import threading


                    class Pipeline:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._pending = []

                        def run(self):
                            def produce():
                                self._pending.append(1)  # closure unlocked

                            thread = threading.Thread(target=produce)
                            thread.start()
                            with self._lock:
                                self._pending.append(2)
                            thread.join()
                """,
            },
        )
        report = run_analysis(repo, [LockDisciplineRule()])
        lines = {f.line for f in findings_for(report, "lock-discipline")}
        assert line_of(repo, "src/closure.py", "# closure unlocked") in lines

    def test_timer_callback_counts_as_thread_side(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/beeper.py": """\
                    import threading


                    class Beeper:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._count = 0
                            self._timer = None

                        def start(self):
                            self._timer = threading.Timer(0.1, self._tick)
                            self._timer.start()

                        def _tick(self):
                            self._count += 1  # timer-side unlocked

                        def bump(self):
                            with self._lock:
                                self._count += 1
                """,
            },
        )
        report = run_analysis(repo, [LockDisciplineRule()])
        lines = {f.line for f in findings_for(report, "lock-discipline")}
        assert line_of(repo, "src/beeper.py", "# timer-side unlocked") in lines

    def test_deferred_closure_body_is_not_locked(self, tmp_path):
        """A callback defined under the lock runs later, without it —
        the same rule blocking-under-lock applies to deferred code."""
        source = LOCKED_CLASS.replace(
            """            with self._lock:
                self._buf.append(item)""",
            """            with self._lock:
                return lambda: self._buf.append(item)  # deferred unlocked""",
        )
        repo = make_repo(tmp_path, {"src/worker.py": source})
        report = run_analysis(repo, [LockDisciplineRule()])
        assert [f.line for f in findings_for(report, "lock-discipline")] == [
            line_of(repo, "src/worker.py", "# deferred unlocked")
        ]

    def lock_discipline_lines(self, tmp_path, source: str) -> tuple:
        """``(repo, finding lines, findings)`` for one fixture module."""
        repo = make_repo(tmp_path, {"src/fixture.py": source})
        report = run_analysis(repo, [LockDisciplineRule()])
        hits = findings_for(report, "lock-discipline")
        return repo, [f.line for f in hits], hits

    def test_client_threads_share_a_threadless_queue(self, tmp_path):
        """The serving tier's shape: no thread is started, yet every
        caller appends to the queue a leader drains under the lock."""
        repo, lines, hits = self.lock_discipline_lines(
            tmp_path,
            """\
            import threading
            from collections import deque


            class Server:
                def __init__(self):
                    self._queue_lock = threading.Condition(threading.Lock())
                    self._queue = deque()

                def admit(self, item):
                    self._queue.append(item)  # admit unlocked
                    with self._queue_lock:
                        self._queue_lock.notify_all()

                def lead(self):
                    with self._queue_lock:
                        return self._queue.popleft()
            """,
        )
        assert lines == [line_of(repo, "src/fixture.py", "# admit unlocked")]
        assert "Server.admit mutates self._queue outside {_queue_lock}" in (
            hits[0].message
        )

    def test_counter_bumped_outside_the_lock_its_reader_takes(self, tmp_path):
        """A sequence counter read under the lock by a property and
        bumped outside it: only the bump is a finding."""
        repo, lines, _ = self.lock_discipline_lines(
            tmp_path,
            """\
            import threading


            class Exporter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seq = 0

                @property
                def seq(self):
                    with self._lock:
                        return self._seq

                def export_now(self):
                    seq = self._seq
                    self._seq += 1  # bump unlocked
                    return seq
            """,
        )
        assert lines == [line_of(repo, "src/fixture.py", "# bump unlocked")]

    def test_mutation_under_a_different_guard_flagged(self, tmp_path):
        repo, lines, hits = self.lock_discipline_lines(
            tmp_path,
            """\
            import threading


            class Two:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other_lock = threading.Lock()
                    self._items = []

                def size(self):
                    with self._lock:
                        return len(self._items)

                def add(self, item):
                    with self._other_lock:
                        self._items.append(item)  # wrong guard
            """,
        )
        assert lines == [line_of(repo, "src/fixture.py", "# wrong guard")]
        assert "outside {_lock}" in hits[0].message

    def test_setstate_writes_are_exempt(self, tmp_path):
        """``__setstate__`` builds the instance before anyone shares it,
        as ``__init__`` does."""
        _, lines, _ = self.lock_discipline_lines(
            tmp_path,
            """\
            import threading


            class Snapshot:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = {}

                def __setstate__(self, state):
                    self._lock = threading.Lock()
                    self._state = dict(state)

                def get(self, key):
                    with self._lock:
                        return self._state[key]
            """,
        )
        assert lines == []

    def test_module_level_constructor_alias_is_a_guard(self, tmp_path):
        """``_RAW_LOCK = threading.Lock`` (the sanitizer's idiom for a
        lock the patcher must not wrap) still builds a guard, though
        neither the alias nor the attribute says ``lock``."""
        repo, lines, hits = self.lock_discipline_lines(
            tmp_path,
            """\
            import threading

            _RAW_LOCK = threading.Lock


            class Graph:
                def __init__(self):
                    self._mutex = _RAW_LOCK()
                    self._labels = {}

                def register(self, uid, label):
                    self._labels[uid] = label  # store unlocked

                def label(self, uid):
                    with self._mutex:
                        return self._labels[uid]
            """,
        )
        assert lines == [line_of(repo, "src/fixture.py", "# store unlocked")]
        assert "outside {_mutex}" in hits[0].message

    def test_attribute_never_touched_under_a_lock_is_out_of_scope(
        self, tmp_path
    ):
        """The rule infers a guard only from locked accesses: a class
        that takes a lock for one attribute says nothing about another
        it never touches under one."""
        _, lines, _ = self.lock_discipline_lines(
            tmp_path,
            """\
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0
                    self._guarded = 0

                def hit(self):
                    self._hits += 1

                def total(self):
                    return self._hits

                def bump(self):
                    with self._lock:
                        self._guarded += 1
            """,
        )
        assert lines == []


INVERTED_PAIR = """\
    import threading


    class Pair:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def forward(self):
            with self._a:
                with self._b:  # forward inner
                    pass

        def backward(self):
            with self._b:
                with self._a:
                    pass
"""


def lock_order_findings(repo: Path, relpath: str, drive) -> list:
    """Load a fixture module under a private sanitizer layer, call
    ``drive(module)``, and return the runtime ``lock-order`` findings."""
    spec = importlib.util.spec_from_file_location(
        Path(relpath).stem, repo / relpath
    )
    module = importlib.util.module_from_spec(spec)
    graph = sanitizer.install(sanitizer.LockGraph())
    try:
        spec.loader.exec_module(module)
        drive(module)
    finally:
        sanitizer.uninstall()
    return [f for f in graph.findings() if f.rule == "lock-order"]


class TestLockOrderRule:
    """``lock-order`` is a runtime finding: every acquisition cycle the
    static rule's fixtures planted is reported by the sanitizer's graph
    the first time the code runs both orders."""

    def test_inversion_detected_at_exact_site(self, tmp_path):
        """The planted inversion: the finding names both locks by
        creation site and both acquisition sites."""
        repo = make_repo(tmp_path, {"src/pair.py": INVERTED_PAIR})

        def drive(module):
            pair = module.Pair()
            pair.forward()
            pair.backward()

        [hit] = lock_order_findings(repo, "src/pair.py", drive)
        backward_inner = line_of(repo, "src/pair.py", "def backward") + 2
        assert (hit.path, hit.line) == ("src/pair.py", backward_inner)
        for site in (
            line_of(repo, "src/pair.py", "self._a = "),
            line_of(repo, "src/pair.py", "self._b = "),
            line_of(repo, "src/pair.py", "# forward inner"),
            backward_inner,
        ):
            assert f"src/pair.py:{site}" in hit.message
        assert "potential deadlock" in hit.message

    def test_consistent_order_passes(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/pair.py": """\
                    import threading


                    class Pair:
                        def __init__(self):
                            self._a = threading.Lock()
                            self._b = threading.Lock()

                        def forward(self):
                            with self._a:
                                with self._b:
                                    pass

                        def also_forward(self):
                            with self._a:
                                with self._b:
                                    pass
                """,
            },
        )

        def drive(module):
            pair = module.Pair()
            pair.forward()
            pair.also_forward()

        assert lock_order_findings(repo, "src/pair.py", drive) == []

    def test_interprocedural_cycle_via_self_call(self, tmp_path):
        """A method called under a lock contributes the locks it takes."""
        repo = make_repo(
            tmp_path,
            {
                "src/chain.py": """\
                    import threading


                    class Chain:
                        def __init__(self):
                            self._a = threading.Lock()
                            self._b = threading.Lock()

                        def flush(self):
                            with self._b:
                                pass

                        def rebalance(self):
                            with self._b:
                                with self._a:
                                    pass

                        def drain(self):
                            with self._a:
                                self.flush()  # call under a
                """,
            },
        )

        def drive(module):
            chain = module.Chain()
            chain.drain()
            chain.rebalance()

        [hit] = lock_order_findings(repo, "src/chain.py", drive)
        call = line_of(repo, "src/chain.py", "# call under a")
        assert f"src/chain.py:{call} in drain" in hit.detail

    def test_bare_acquire_counts_as_acquisition(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/bare.py": """\
                    import threading


                    class Bare:
                        def __init__(self):
                            self._a = threading.Lock()
                            self._b = threading.Lock()

                        def grab(self):
                            with self._a:
                                self._b.acquire()
                                self._b.release()

                        def grab_reversed(self):
                            with self._b:
                                self._a.acquire()
                                self._a.release()
                """,
            },
        )

        def drive(module):
            bare = module.Bare()
            bare.grab()
            bare.grab_reversed()

        assert len(lock_order_findings(repo, "src/bare.py", drive)) == 1

    def test_module_level_locks_form_their_own_scope(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/modlocks.py": """\
                    import threading

                    LOCK_A = threading.Lock()
                    LOCK_B = threading.Lock()


                    def forward():
                        with LOCK_A:
                            with LOCK_B:
                                pass


                    def backward():
                        with LOCK_B:
                            with LOCK_A:
                                pass
                """,
            },
        )

        def drive(module):
            module.forward()
            module.backward()

        [hit] = lock_order_findings(repo, "src/modlocks.py", drive)
        for name in ("LOCK_A = ", "LOCK_B = "):
            line = line_of(repo, "src/modlocks.py", name)
            assert f"Lock(src/modlocks.py:{line})" in hit.message


ADMISSION_GATE = """\
    import threading


    class Gate:
        def __init__(self):
            self._permits = threading.Semaphore(4)
            self._wake = threading.Condition()

        def submit(self):
            self._permits.acquire()
            with self._wake:
                self._wake.wait(0.05)
"""


class TestBlockingUnderLockRule:
    def _report(self, tmp_path, body: str):
        repo = make_repo(tmp_path, {"src/holder.py": textwrap.dedent(body)})
        return repo, run_analysis(repo, [BlockingUnderLockRule()])

    def test_serving_admission_pattern_is_clean(self, tmp_path):
        """Semaphore-then-condition admission (the serving tier's
        shape) holds nothing while it waits for a permit, and waits on
        the condition it holds."""
        _, report = self._report(tmp_path, ADMISSION_GATE)
        assert report.ok

    def test_permit_wait_under_the_condition_flagged(self, tmp_path):
        """The same gate with the permit taken inside the condition:
        every request, and the batcher that frees permits, waits behind
        one blocked admission."""
        repo, report = self._report(
            tmp_path,
            ADMISSION_GATE.replace(
                """            self._permits.acquire()
            with self._wake:
                self._wake.wait(0.05)""",
                """            with self._wake:
                self._permits.acquire()  # permit under wake
                self._wake.wait(0.05)""",
            ),
        )
        hits = findings_for(report, "blocking-under-lock")
        assert [f.line for f in hits] == [
            line_of(repo, "src/holder.py", "# permit under wake")
        ]
        assert "Gate.submit calls self._permits.acquire()" in hits[0].message
        assert "{_wake}" in hits[0].message

    def test_sleep_under_lock_flagged(self, tmp_path):
        repo, report = self._report(
            tmp_path,
            """\
            import threading
            import time


            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()

                def pause(self):
                    with self._lock:
                        time.sleep(0.1)  # sleep under lock
            """,
        )
        hits = findings_for(report, "blocking-under-lock")
        assert [(f.line, "time.sleep()" in f.message) for f in hits] == [
            (line_of(repo, "src/holder.py", "# sleep under lock"), True)
        ]
        assert "Holder.pause" in hits[0].message

    def test_foreign_wait_flagged_own_wait_exempt(self, tmp_path):
        repo, report = self._report(
            tmp_path,
            """\
            import threading


            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._wake = threading.Condition()
                    self._done = threading.Event()

                def block(self):
                    with self._lock:
                        self._done.wait()  # foreign wait

                def idiom(self):
                    with self._wake:
                        self._wake.wait(0.05)
            """,
        )
        hits = findings_for(report, "blocking-under-lock")
        assert [f.line for f in hits] == [
            line_of(repo, "src/holder.py", "# foreign wait")
        ]

    def test_thread_join_flagged_string_join_exempt(self, tmp_path):
        repo, report = self._report(
            tmp_path,
            """\
            import threading


            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._worker = None

                def stop(self):
                    with self._lock:
                        self._worker.join()  # thread join under lock

                def render(self, parts):
                    with self._lock:
                        return ", ".join(parts)
            """,
        )
        hits = findings_for(report, "blocking-under-lock")
        assert [f.line for f in hits] == [
            line_of(repo, "src/holder.py", "# thread join under lock")
        ]

    def test_dfs_write_under_lock_flagged(self, tmp_path):
        repo, report = self._report(
            tmp_path,
            """\
            import threading


            class Holder:
                def __init__(self, dfs):
                    self._lock = threading.Lock()
                    self._dfs = dfs

                def publish(self, path, rows):
                    with self._lock:
                        self._dfs.write_records(path, rows)  # dfs write
            """,
        )
        hits = findings_for(report, "blocking-under-lock")
        assert [f.line for f in hits] == [
            line_of(repo, "src/holder.py", "# dfs write")
        ]
        assert "DFS write_records()" in hits[0].message

    def test_nonblocking_acquire_exempt(self, tmp_path):
        _, report = self._report(
            tmp_path,
            """\
            import threading


            class Holder:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def try_both(self):
                    with self._a:
                        return self._b.acquire(blocking=False)
            """,
        )
        assert report.ok

    def test_deferred_closure_body_not_under_the_lock(self, tmp_path):
        """Code inside a nested def runs later: the enclosing with
        says nothing about the locks held when it executes."""
        _, report = self._report(
            tmp_path,
            """\
            import threading
            import time


            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()

                def schedule(self):
                    with self._lock:
                        def later():
                            time.sleep(0.1)

                        return later
            """,
        )
        assert report.ok

    def test_suppression_silences_the_block(self, tmp_path):
        _, report = self._report(
            tmp_path,
            """\
            import threading
            import time


            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()

                def pause(self):
                    with self._lock:
                        # repro: allow[blocking-under-lock] fixture plant
                        time.sleep(0.1)
            """,
        )
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["blocking-under-lock"]


class TestResourceSafetyRule:
    def test_leaked_writer_flagged_at_binding(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/leak.py": """\
                    from repro.dfs.records import RecordWriter


                    def stage(dfs, path):
                        writer = RecordWriter(dfs, path)  # leaked
                        writer.write(b"payload")
                """,
            },
        )
        report = run_analysis(repo, [ResourceSafetyRule()])
        [finding] = findings_for(report, "resource-safety")
        assert finding.line == line_of(repo, "src/leak.py", "# leaked")
        assert "'writer'" in finding.message

    @pytest.mark.parametrize(
        "body",
        [
            # with-block consumption
            "    writer = RecordWriter(dfs, path)\n"
            "    with writer:\n"
            '        writer.write(b"payload")\n',
            # release in finally
            "    writer = RecordWriter(dfs, path)\n"
            "    try:\n"
            '        writer.write(b"payload")\n'
            "    finally:\n"
            "        writer.close()\n",
            # abandon in except also counts as release
            "    writer = RecordWriter(dfs, path)\n"
            "    try:\n"
            '        writer.write(b"payload")\n'
            "    except Exception:\n"
            "        writer.abandon()\n"
            "        raise\n"
            "    writer.close()\n",
            # ownership escape: returned to the caller
            "    writer = RecordWriter(dfs, path)\n"
            "    return writer\n",
        ],
    )
    def test_released_or_escaping_writer_passes(self, tmp_path, body):
        source = (
            "from repro.dfs.records import RecordWriter\n\n\n"
            "def stage(dfs, path):\n" + body
        )
        repo = make_repo(tmp_path, {"src/ok.py": source})
        report = run_analysis(repo, [ResourceSafetyRule()])
        assert report.ok, [f.format() for f in report.findings]


class TestUnusedImportRule:
    def test_docstring_mention_no_longer_masks(self, tmp_path):
        # The historic false negative: 'os' named in a docstring kept
        # the unused import invisible to the old lint sweep.
        repo = make_repo(
            tmp_path,
            {
                "src/fake.py": '''\
                    """Helpers around os-level paths."""

                    import os  # planted
                ''',
            },
        )
        report = run_analysis(repo, [UnusedImportRule()])
        [finding] = findings_for(report, "unused-import")
        assert finding.line == line_of(repo, "src/fake.py", "# planted")
        assert "'os'" in finding.message

    def test_dunder_all_reexport_counts_as_used(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/fake.py": """\
                    from json import dumps

                    __all__ = ["dumps"]
                """,
            },
        )
        report = run_analysis(repo, [UnusedImportRule()])
        assert report.ok

    def test_forward_ref_annotation_counts_as_used(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/fake.py": """\
                    from decimal import Decimal


                    def total(amount: "Decimal") -> "Decimal":
                        return amount
                """,
            },
        )
        report = run_analysis(repo, [UnusedImportRule()])
        assert report.ok


class TestDocstringRule:
    def test_missing_docstrings_flagged(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/pkg/mod.py": """\
                    def documented():
                        \"\"\"Has one.\"\"\"


                    def naked():  # missing fn
                        pass


                    class Thing:  # missing class
                        def method(self):  # missing method
                            pass
                """,
            },
        )
        report = run_analysis(repo, [DocstringRule(enforced=("src/pkg",))])
        by_line = {
            f.line: f.message for f in findings_for(report, "docstring")
        }
        relpath = "src/pkg/mod.py"
        assert 1 in by_line  # module docstring
        assert line_of(repo, relpath, "# missing fn") in by_line
        assert line_of(repo, relpath, "# missing class") in by_line
        assert line_of(repo, relpath, "# missing method") in by_line
        assert len(by_line) == 4

    def test_unenforced_tree_is_ignored(self, tmp_path):
        repo = make_repo(
            tmp_path, {"src/elsewhere/mod.py": "def naked():\n    pass\n"}
        )
        report = run_analysis(repo, [DocstringRule(enforced=("src/pkg",))])
        assert report.ok


class TestFrameworkMechanics:
    def test_syntax_error_is_a_finding(self, tmp_path):
        repo = make_repo(tmp_path, {"src/broken.py": "def broken(:\n"})
        report = run_analysis(repo, [])
        [finding] = findings_for(report, "syntax")
        assert finding.path == "src/broken.py"

    def test_unknown_rule_id_raises(self, tmp_path):
        repo = make_repo(tmp_path, {"src/ok.py": "X = 1\n"})
        with pytest.raises(ValueError, match="unknown rule ids"):
            run_analysis(repo, default_rules(), rule_ids=["nonesuch"])

    def test_rule_filter_still_runs_meta_rules(self, tmp_path):
        repo = make_repo(
            tmp_path,
            {
                "src/fake.py": (
                    "import os\n"
                    "# repro: allow[unused-import]\n"
                    "PATH = os.sep\n"
                ),
            },
        )
        report = run_analysis(
            repo, default_rules(), rule_ids=["determinism"]
        )
        # The empty-reason suppression gates even though unused-import
        # itself was filtered out of this run.
        assert [f.rule for f in report.findings] == ["suppression"]

    def test_rule_ids_are_unique_and_described(self):
        rules = default_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert rule.id and rule.description
            assert isinstance(rule, Rule)


class TestLiveRepoClosure:
    def test_full_suite_is_clean_on_this_repo(self):
        """Acceptance: zero unsuppressed findings on the live tree."""
        report = run_analysis(REPO, default_rules())
        assert report.ok, "\n" + "\n".join(
            f.format() for f in report.findings
        )
        # Every suppression in the tree carries a reason (the
        # suppression meta-rule gates).
        assert not [f for f in report.findings if f.rule == "suppression"]

    def test_src_constructs_no_thread(self):
        """``src/`` starts no thread of its own: owners call the
        exporter, callers' threads lead the server, workers are
        processes. Binds on every run, not only under the sanitizer."""
        assert constructions(REPO, "src/repro", THREAD_CONSTRUCTORS) == []

    def test_parallel_constructs_no_lock(self):
        """One thread drives an executor, so ``repro.parallel`` holds no
        lock: a lock there would guard against a caller that does not
        exist, and a wait on it could only be ended by one."""
        assert constructions(REPO, "src/repro/parallel", LOCK_CONSTRUCTORS) == []

    def test_thread_constructions_are_found(self, tmp_path):
        """The walk above sees a plain, an aliased, a pooled and a
        subclassed thread, and an aliased condition, and ignores
        annotations and strings."""
        repo = make_repo(
            tmp_path,
            {
                "src/spawn.py": """\
                    import threading
                    from concurrent.futures import ThreadPoolExecutor
                    from threading import Condition as Signal
                    from threading import Timer as Later

                    handle: threading.Thread | None = None
                    KIND = "Thread"


                    class Worker(threading.Thread):  # subclassed
                        pass


                    def go(fn):
                        threading.Thread(target=fn).start()  # plain
                        Later(1.0, fn).start()  # aliased
                        return ThreadPoolExecutor(2)  # pooled


                    def wait():
                        return Signal()  # condition
                """
            },
        )
        assert constructions(repo, "src", THREAD_CONSTRUCTORS) == [
            f"src/spawn.py:{line_of(repo, 'src/spawn.py', '# ' + tag)}"
            for tag in ("subclassed", "plain", "aliased", "pooled")
        ]
        assert constructions(repo, "src", LOCK_CONSTRUCTORS) == [
            f"src/spawn.py:{line_of(repo, 'src/spawn.py', '# condition')}"
        ]

    def test_lint_cli_json_contract(self):
        """scripts/lint.py --json emits the machine-readable report."""
        result = subprocess.run(
            [sys.executable, "scripts/lint.py", "--skip-ruff", "--json"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["findings"] == []
        rule_ids = [rule["id"] for rule in payload["rules"]]
        assert sorted(rule_ids) == [
            "blocking-under-lock",
            "contract-closure",
            "determinism",
            "docstring",
            "lock-discipline",
            "resource-safety",
            "suppression",
            "syntax",
            "unused-import",
        ]
