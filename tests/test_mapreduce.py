"""Tests for the MapReduce engine, counters, and node services."""

import threading

import pytest

from repro.dfs.records import write_records
from repro.mapreduce.counters import CounterSet
from repro.mapreduce.runner import MapReduceJob, MapReduceSpec, WorkerFailure


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

    def test_merge(self):
        a, b = CounterSet(), CounterSet()
        a.increment("x", 2)
        b.increment("x", 3)
        b.increment("y")
        a.merge(b)
        assert a.as_dict() == {"x": 5, "y": 1}

    def test_merged_classmethod(self):
        parts = []
        for i in range(3):
            c = CounterSet()
            c.increment("n", i + 1)
            parts.append(c)
        assert CounterSet.merged(parts).value("n") == 6

    def test_merge_mapping(self):
        counters = CounterSet()
        counters.increment("x", 1)
        counters.merge_mapping({"x": 2, "y": 3})
        assert counters.as_dict() == {"x": 3, "y": 3}

    def test_merge_mapping_rejects_negatives_atomically(self):
        """Regression: a mapping with one negative amount used to be
        applied partially; now it must change nothing at all."""
        counters = CounterSet()
        counters.increment("x", 5)
        with pytest.raises(ValueError, match="non-negative"):
            counters.merge_mapping({"x": 2, "y": -1, "z": 4})
        assert counters.as_dict() == {"x": 5}

    def test_gauge_merge(self):
        from repro.mapreduce.counters import Gauge

        a, b = Gauge(), Gauge()
        a.add(4)
        a.subtract(2)  # current 2, peak 4
        b.add(3)  # current 3, peak 3
        a.merge(b)
        # Currents add (residency totals); peaks take the max — two
        # pools' peak residencies never coincided, so summing them
        # would overstate the high-water mark.
        assert a.current == 5
        assert a.peak == 4

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
        paths = stage_numbers(dfs, shards=3)

        def mapper(ctx, record):
            ctx.emit(str(record["n"]), record["n"] * 2)

        result = MapReduceJob(
            dfs, MapReduceSpec("t", paths, "/out/m", mapper)
        ).run()
        assert len(result.output_paths) == 3
        assert result.records_in == 15
        assert result.records_out == 15

    def test_mapper_can_filter(self, dfs):
        paths = stage_numbers(dfs)

        def mapper(ctx, record):
            if record["n"] % 2 == 0:
                ctx.emit(str(record["n"]), record["n"])

        result = MapReduceJob(
            dfs, MapReduceSpec("t", paths, "/out/f", mapper)
        ).run()
        assert result.records_out == 10

    def test_counters_reach_result(self, dfs):
        paths = stage_numbers(dfs)

        def mapper(ctx, record):
            ctx.counters.increment("seen")
            ctx.emit("k", 1)

        result = MapReduceJob(
            dfs, MapReduceSpec("t", paths, "/out/c", mapper)
        ).run()
        assert result.counters.value("seen") == 20

    def test_map_only_job_without_output_base_publishes_nothing(self, dfs):
        paths = stage_numbers(dfs, shards=3, per_shard=2)
        before = dfs.file_count()

        def mapper(ctx, record):
            ctx.give(record["n"])

        result = MapReduceJob(dfs, MapReduceSpec("t", paths, None, mapper)).run()
        # One list per map task, in task order.
        assert result.returned == [[0, 1], [2, 3], [4, 5]]
        assert result.output_paths == [] and result.records_out == 0
        assert dfs.file_count() == before and dfs.staged_paths() == []


class TestFailureHandling:
    def test_transient_failures_retried(self, dfs):
        paths = stage_numbers(dfs, shards=2)
        attempts = {}

        def flaky_injector(task, attempt):
            attempts[(task, attempt)] = True
            if task == 0 and attempt == 0:
                raise RuntimeError("simulated worker crash")

        def mapper(ctx, record):
            ctx.emit(str(record["n"]), 1)

        spec = MapReduceSpec(
            "t", paths, "/out/r", mapper, fail_injector=flaky_injector
        )
        result = MapReduceJob(dfs, spec).run()
        assert result.retries == 1
        assert result.records_out == 10  # no duplicates from the retry

    @pytest.mark.parametrize("batched", [False, True])
    def test_mid_task_failure_contributes_once(self, dfs, batched):
        """Regression: attempts shared the job's counters, so a task
        that died on record 5 of 10 and was retried reported 15."""
        paths = stage_numbers(dfs, shards=1, per_shard=10)
        crashed = []

        def mapper(ctx, record):
            if record["n"] == 5 and not crashed:
                crashed.append(True)
                raise RuntimeError("worker died mid-shard")
            ctx.counters.increment("seen")
            ctx.emit(str(record["n"]), 1)
            ctx.give(record["n"])

        def batch_mapper(ctx, records):
            for record in records:
                mapper(ctx, record)

        spec = MapReduceSpec(
            "t", paths, "/out/mid", mapper,
            batch_mapper=batch_mapper if batched else None,
            map_block_size=2,
        )
        result = MapReduceJob(dfs, spec).run()
        assert result.retries == 1
        assert result.records_in == result.records_out == 10
        assert result.counters.as_dict() == {"seen": 10}
        assert result.returned == [list(range(10))]

    def test_persistent_failure_aborts(self, dfs):
        paths = stage_numbers(dfs, shards=1)
        log = []

        def always_fail(task, attempt):
            raise RuntimeError("dead node")

        def mapper(ctx, record):
            ctx.emit("k", 1)

        spec = MapReduceSpec(
            "t", paths, "/out/x", mapper,
            fail_injector=always_fail, max_retries=2,
            node_setup=lambda: _RecordingService(log),
        )
        with pytest.raises(WorkerFailure, match="after 3 attempts"):
            MapReduceJob(dfs, spec).run()
        # Started once for the job's three attempts, stopped on abort.
        assert log == ["start", "stop"]

    def test_mapper_exception_is_retried_then_fatal(self, dfs):
        paths = stage_numbers(dfs, shards=1)

        def bad_mapper(ctx, record):
            raise KeyError("bug in user code")

        spec = MapReduceSpec("t", paths, "/out/y", bad_mapper, max_retries=1)
        with pytest.raises(WorkerFailure):
            MapReduceJob(dfs, spec).run()


class _RecordingService:
    def __init__(self, log):
        self.log = log

    def start(self):
        self.log.append("start")

    def stop(self):
        self.log.append("stop")


class TestNodeServices:
    def test_services_start_per_job_not_per_task(self, dfs):
        paths = stage_numbers(dfs, shards=8)
        log = []

        def mapper(ctx, record):
            assert ctx.has_service
            ctx.emit("k", 1)

        spec = MapReduceSpec(
            "t", paths, "/out/s", mapper,
            node_setup=lambda: _RecordingService(log),
        )
        MapReduceJob(dfs, spec).run()
        assert log.count("start") == 1
        assert log.count("stop") == 1

    def test_no_service_configured(self, dfs):
        paths = stage_numbers(dfs, shards=1)

        def mapper(ctx, record):
            assert not ctx.has_service
            with pytest.raises(RuntimeError):
                _ = ctx.service
            ctx.emit("k", 1)

        MapReduceJob(dfs, MapReduceSpec("t", paths, "/out/n", mapper)).run()

    def test_service_start_failure_is_a_crashed_attempt(self, dfs):
        paths = stage_numbers(dfs, shards=2)
        log = []
        built = []

        class FlakyStart(_RecordingService):
            def start(self):
                if not built:
                    built.append(self)
                    raise RuntimeError("server failed to come up")
                super().start()

        def mapper(ctx, record):
            ctx.emit(str(record["n"]), 1)

        spec = MapReduceSpec(
            "t", paths, "/out/fs", mapper,
            node_setup=lambda: FlakyStart(log),
        )
        result = MapReduceJob(dfs, spec).run()
        assert result.retries == 1
        assert result.records_out == 10
        assert log == ["start", "stop"]
