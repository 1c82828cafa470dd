"""Tests for the map-task runner and the counters."""

import threading

import pytest

from repro.dfs.records import write_records
from repro.mapreduce.runner import MAX_RETRIES, WorkerFailure, run_map_tasks
from repro.obs.counters import CounterSet


def stage_numbers(dfs, shards=4, per_shard=5):
    paths = []
    value = 0
    for s in range(shards):
        path = f"/in/part-{s}"
        write_records(dfs, path, [{"n": value + i} for i in range(per_shard)])
        value += per_shard
        paths.append(path)
    return paths


class TestCounters:
    def test_increment_and_value(self):
        counters = CounterSet()
        counters.increment("a")
        counters.increment("a", 4)
        assert counters.value("a") == 5
        assert counters.value("missing") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            CounterSet().increment("a", -1)

    def test_thread_safety(self):
        counters = CounterSet()

        def bump():
            for _ in range(1000):
                counters.increment("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters.value("n") == 8000


class TestMapOnly:
    def test_one_output_shard_per_input(self, dfs):
        """One value list per input shard, in task order, every record
        read once."""
        paths = stage_numbers(dfs, shards=3)

        def block_mapper(records):
            return [record["n"] * 2 for record in records]

        tasks = run_map_tasks(dfs, paths, block_mapper)
        assert len(tasks) == 3
        assert [v for blocks in tasks for block in blocks for v in block] == [
            n * 2 for n in range(15)
        ]

    def test_mapper_can_filter(self, dfs):
        paths = stage_numbers(dfs)

        def block_mapper(records):
            return [record["n"] for record in records if record["n"] % 2 == 0]

        tasks = run_map_tasks(dfs, paths, block_mapper)
        assert sum(len(block) for blocks in tasks for block in blocks) == 10

    def test_map_only_job_without_output_base_publishes_nothing(self, dfs):
        """The runner writes nothing: its product is what the block
        mapper returns, one list of block values per map task."""
        paths = stage_numbers(dfs, shards=3, per_shard=2)
        before = dfs.list("/")

        tasks = run_map_tasks(
            dfs, paths, lambda records: [r["n"] for r in records], block_size=1
        )
        assert tasks == [[[0], [1]], [[2], [3]], [[4], [5]]]
        assert dfs.list("/") == before and dfs.staged_paths() == []


class TestFailureHandling:
    def test_transient_failures_retried(self, dfs):
        paths = stage_numbers(dfs, shards=2)
        attempts = []

        def flaky_injector(task, attempt):
            attempts.append((task, attempt))
            if task == 0 and attempt == 0:
                raise RuntimeError("simulated worker crash")

        tasks = run_map_tasks(
            dfs, paths, lambda records: [r["n"] for r in records],
            fail_injector=flaky_injector,
        )
        assert attempts == [(0, 0), (0, 1), (1, 0)]
        # No duplicates from the retry.
        assert [v for blocks in tasks for block in blocks for v in block] == list(range(10))

    @pytest.mark.parametrize("batched", [False, True])
    def test_mid_task_failure_contributes_once(self, dfs, batched):
        """Regression: attempts shared the job's output, so a task that
        died on record 5 of 10 and was retried reported 15. Unbatched,
        each block is one record."""
        paths = stage_numbers(dfs, shards=1, per_shard=10)
        crashed = []

        def block_mapper(records):
            values = []
            for record in records:
                if record["n"] == 5 and not crashed:
                    crashed.append(True)
                    raise RuntimeError("worker died mid-shard")
                values.append(record["n"])
            return values

        tasks = run_map_tasks(
            dfs, paths, block_mapper, block_size=2 if batched else 1
        )
        assert crashed == [True]
        assert [v for block in tasks[0] for v in block] == list(range(10))

    def test_persistent_failure_aborts(self, dfs):
        paths = stage_numbers(dfs, shards=1)
        attempts = []

        def always_fail(task, attempt):
            attempts.append(attempt)
            raise RuntimeError("dead node")

        with pytest.raises(WorkerFailure, match="after 3 attempts") as info:
            run_map_tasks(dfs, paths, len, fail_injector=always_fail)
        assert attempts == list(range(MAX_RETRIES + 1)) == [0, 1, 2]
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_mapper_exception_is_retried_then_fatal(self, dfs):
        paths = stage_numbers(dfs, shards=1)
        calls = []

        def bad_mapper(records):
            calls.append(len(records))
            raise KeyError("bug in user code")

        with pytest.raises(WorkerFailure):
            run_map_tasks(dfs, paths, bad_mapper)
        assert len(calls) == MAX_RETRIES + 1
