"""The MapReduce engine.

A :class:`MapReduceSpec` describes a job the way the paper's C++ templates
do: input record files on the distributed filesystem, a mapper, an optional
reducer, per-node setup/teardown hooks (this is where
``NLPLabelingFunction`` starts its model server), and an output path.

Execution model
---------------
* Each *input shard* (one DFS record file) is a map task.
* Map tasks are grouped onto simulated *compute nodes*; every node runs
  the ``node_setup`` hook once before its first task (model servers are
  per-node in the paper, not per-task) and ``node_teardown`` at the end.
* Mappers ``emit(key, value)``; emitted pairs are hash-partitioned into
  ``num_reducers`` buckets, sorted by key, and reduced.
* Jobs may provide a ``batch_mapper`` instead of (or in addition to) a
  per-record ``mapper``: map tasks then consume *blocks* of up to
  ``map_block_size`` records, letting vectorized user code amortize
  per-record dispatch. Blocks preserve record order within a shard, so a
  batched job's output is byte-identical to the per-record path.
* Map-only jobs (``reducer=None``) write each map task's emissions to its
  own output shard — exactly how LF binaries produce vote files. With
  ``output_base=None`` a map-only job publishes nothing: its product is
  what the mappers ``give`` back (:attr:`MapReduceResult.returned`, one
  list per map task in task order whatever the ``parallelism``), for a
  driver that writes the output itself — ``LFApplier``'s one job per LF
  suite does.
* Worker failures: a map task that raises is retried up to
  ``max_retries`` times on a fresh worker; exhausted retries abort the
  job with :class:`WorkerFailure`. Every attempt gets its own
  :class:`MapContext`, and only the winning attempt's emitted pairs,
  returned values *and* counters reach the job, so a task that died
  mid-shard contributes nothing twice — not a record, not a count.

Determinism: given the same inputs and spec, output shard contents are
byte-identical regardless of ``parallelism`` — the shuffle sorts by
``(key, sequence)`` and map outputs are kept in task order. The test suite
asserts parallel ≡ sequential equivalence.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.dfs.filesystem import DistributedFileSystem, shard_name
from repro.dfs.records import DEFAULT_BLOCK_SIZE, RecordReader, RecordWriter
from repro.mapreduce.counters import CounterSet
from repro.mapreduce.service import NodeService, NodeServicePool

__all__ = [
    "MapContext",
    "ReduceContext",
    "MapReduceSpec",
    "MapReduceResult",
    "MapReduceJob",
    "WorkerFailure",
]

Mapper = Callable[["MapContext", dict[str, Any]], None]
BatchMapper = Callable[["MapContext", list[dict[str, Any]]], None]
Reducer = Callable[["ReduceContext", str, list[Any]], None]


class WorkerFailure(Exception):
    """A map task failed more times than the retry budget allows."""


class MapContext:
    """Handle given to mappers: emit pairs, give values back to the
    driver, bump counters, call services. One per task *attempt*."""

    def __init__(self, service: NodeService | None) -> None:
        self._pairs: list[tuple[str, Any]] = []
        self._returned: list[Any] = []
        self.counters = CounterSet()
        self._service = service

    def emit(self, key: str, value: Any) -> None:
        self._pairs.append((str(key), value))

    def give(self, value: Any) -> None:
        """Hand ``value`` to the driver, unserialized, in call order."""
        self._returned.append(value)

    @property
    def service(self) -> NodeService:
        """The node-local service (e.g. NLP model server), if configured."""
        if self._service is None:
            raise RuntimeError("this job was not configured with a node service")
        return self._service

    @property
    def has_service(self) -> bool:
        return self._service is not None


class ReduceContext:
    """Handle given to reducers."""

    def __init__(self, counters: CounterSet) -> None:
        self._pairs: list[tuple[str, Any]] = []
        self.counters = counters

    def emit(self, key: str, value: Any) -> None:
        self._pairs.append((str(key), value))


@dataclass
class MapReduceSpec:
    """Declarative description of one MapReduce job."""

    name: str
    input_paths: Sequence[str]
    output_base: str | None
    """``None`` (map-only jobs only): publish no output shards."""
    mapper: Mapper | None
    reducer: Reducer | None = None
    num_reducers: int = 4
    parallelism: int = 1
    max_retries: int = 2
    node_setup: Callable[[], NodeService] | None = None
    tasks_per_node: int = 4
    fail_injector: Callable[[int, int], None] | None = None
    """Test hook: called as ``fail_injector(task_index, attempt)`` before a
    map task runs; raising simulates a worker crash."""
    batch_mapper: BatchMapper | None = None
    """Block-at-a-time mapper; preferred over ``mapper`` when both are set."""
    map_block_size: int = DEFAULT_BLOCK_SIZE
    """Records per block handed to ``batch_mapper``."""

    def __post_init__(self) -> None:
        if self.mapper is None and self.batch_mapper is None:
            raise ValueError(
                f"job {self.name!r} needs a mapper or a batch_mapper"
            )
        if self.map_block_size < 1:
            raise ValueError(
                f"map_block_size must be >= 1, got {self.map_block_size}"
            )
        if self.output_base is None and self.reducer is not None:
            raise ValueError(
                f"job {self.name!r} has a reducer and needs an output_base"
            )


@dataclass
class MapReduceResult:
    """What a finished job reports back."""

    output_paths: list[str]
    counters: CounterSet
    map_tasks: int
    reduce_tasks: int
    wall_seconds: float
    records_in: int
    records_out: int
    retries: int = 0
    node_count: int = 1
    returned: list[list[Any]] = field(default_factory=list)
    """What each map task's mappers ``give``-d back, in task order."""


def _partition(key: str, buckets: int) -> int:
    """Stable hash partition (must not depend on PYTHONHASHSEED)."""
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % buckets


class MapReduceJob:
    """Executes a :class:`MapReduceSpec` against a DFS."""

    def __init__(self, dfs: DistributedFileSystem, spec: MapReduceSpec) -> None:
        self._dfs = dfs
        self._spec = spec
        self._retries = 0
        self._retry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> MapReduceResult:
        spec = self._spec
        start = time.perf_counter()

        pool = NodeServicePool(spec.node_setup, spec.tasks_per_node)
        try:
            contexts, records_in = self._run_map_phase(pool)
        finally:
            pool.shutdown()
        counters = CounterSet.merged(ctx.counters for ctx in contexts)
        map_outputs = [ctx._pairs for ctx in contexts]

        if spec.reducer is None:
            paths, records_out = self._write_map_only(map_outputs)
            reduce_tasks = 0
        else:
            paths, records_out, reduce_tasks = self._run_reduce_phase(
                map_outputs, counters
            )

        wall = time.perf_counter() - start
        return MapReduceResult(
            output_paths=paths,
            counters=counters,
            map_tasks=len(spec.input_paths),
            reduce_tasks=reduce_tasks,
            wall_seconds=wall,
            records_in=records_in,
            records_out=records_out,
            retries=self._retries,
            node_count=pool.nodes_started or 1,
            returned=[ctx._returned for ctx in contexts],
        )

    # ------------------------------------------------------------------
    # map phase
    # ------------------------------------------------------------------
    def _run_map_phase(
        self, pool: NodeServicePool
    ) -> tuple[list[MapContext], int]:
        """Run every map task; returns each task's *winning* context."""
        spec = self._spec
        winners: list[MapContext | None] = [None] * len(spec.input_paths)
        records_in = [0] * len(spec.input_paths)

        def run_task(index: int) -> None:
            path = spec.input_paths[index]
            last_error: BaseException | None = None
            for attempt in range(spec.max_retries + 1):
                service = pool.acquire()
                try:
                    if spec.fail_injector is not None:
                        spec.fail_injector(index, attempt)
                    ctx = MapContext(service)
                    count = 0
                    reader = RecordReader(self._dfs, path)
                    if spec.batch_mapper is not None:
                        for block in reader.iter_blocks(spec.map_block_size):
                            spec.batch_mapper(ctx, block)
                            count += len(block)
                    else:
                        for record in reader:
                            spec.mapper(ctx, record)
                            count += 1
                    winners[index] = ctx
                    records_in[index] = count
                    return
                except Exception as error:  # worker crash -> retry
                    last_error = error
                    with self._retry_lock:
                        self._retries += 1
                finally:
                    pool.release(service)
            raise WorkerFailure(
                f"map task {index} ({path}) failed after "
                f"{spec.max_retries + 1} attempts"
            ) from last_error

        if spec.parallelism <= 1:
            for i in range(len(spec.input_paths)):
                run_task(i)
        else:
            with ThreadPoolExecutor(max_workers=spec.parallelism) as executor:
                futures = [
                    executor.submit(run_task, i)
                    for i in range(len(spec.input_paths))
                ]
                for future in futures:
                    future.result()

        # Over-counted retries are attempts that eventually failed for good
        # reasons; the final retries value counts crashed attempts only.
        return [ctx for ctx in winners if ctx is not None], sum(records_in)

    # ------------------------------------------------------------------
    # map-only output
    # ------------------------------------------------------------------
    def _write_map_only(
        self, map_outputs: list[list[tuple[str, Any]]]
    ) -> tuple[list[str], int]:
        spec = self._spec
        if spec.output_base is None:
            return [], 0
        count = len(map_outputs)
        paths = []
        records_out = 0
        for index, pairs in enumerate(map_outputs):
            path = shard_name(spec.output_base, index, count)
            with RecordWriter(self._dfs, path) as writer:
                for key, value in pairs:
                    writer.write({"key": key, "value": value})
                    records_out += 1
            paths.append(path)
        return paths, records_out

    # ------------------------------------------------------------------
    # shuffle + reduce
    # ------------------------------------------------------------------
    def _run_reduce_phase(
        self,
        map_outputs: list[list[tuple[str, Any]]],
        counters: CounterSet,
    ) -> tuple[list[str], int, int]:
        spec = self._spec
        buckets: list[dict[str, list[Any]]] = [
            {} for _ in range(spec.num_reducers)
        ]
        # Shuffle in task order for determinism.
        for pairs in map_outputs:
            for key, value in pairs:
                bucket = buckets[_partition(key, spec.num_reducers)]
                bucket.setdefault(key, []).append(value)

        paths = []
        records_out = 0
        for index, bucket in enumerate(buckets):
            path = shard_name(spec.output_base, index, spec.num_reducers)
            ctx = ReduceContext(counters)
            for key in sorted(bucket):
                spec.reducer(ctx, key, bucket[key])  # type: ignore[misc]
            with RecordWriter(self._dfs, path) as writer:
                for key, value in ctx._pairs:
                    writer.write({"key": key, "value": value})
                    records_out += 1
            paths.append(path)
        return paths, records_out, spec.num_reducers


def run_map_reduce(
    dfs: DistributedFileSystem,
    spec: MapReduceSpec,
) -> MapReduceResult:
    """Convenience wrapper: build and run a job."""
    return MapReduceJob(dfs, spec).run()
