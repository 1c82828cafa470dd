"""The MapReduce engine.

A :class:`MapReduceSpec` describes a map-only job the way the paper's
C++ LF templates do: input record files on the distributed filesystem, a
mapper, an optional node-local service (this is where
``NLPLabelingFunction`` starts its model server), and an output path.

Execution model
---------------
* Each *input shard* (one DFS record file) is a map task. Tasks run one
  after another on the caller's thread: an LF kernel is Python that
  holds the GIL, so threads would only trade it (processes are
  :mod:`repro.parallel`'s job).
* The job builds its ``node_setup`` service once, in its first attempt,
  and every task reuses it (model servers are a per-node cost in the
  paper, not per-task). It stops once, after the last task or when the
  job aborts.
* Jobs may provide a ``batch_mapper`` instead of (or in addition to) a
  per-record ``mapper``: map tasks then consume *blocks* of up to
  ``map_block_size`` records, letting vectorized user code amortize
  per-record dispatch. Blocks preserve record order within a shard, so a
  batched job's output is byte-identical to the per-record path.
* Each map task's ``emit``-ted pairs become its own output shard —
  exactly how LF binaries produce vote files. With ``output_base=None``
  a job publishes nothing: its product is what the mappers ``give`` back
  (:attr:`MapReduceResult.returned`, one list per map task in task
  order), for a driver that writes the output itself — ``LFApplier``'s
  one job per LF suite does.
* Worker failures: a map task that raises is retried up to
  ``max_retries`` times on a fresh worker; exhausted retries abort the
  job with :class:`WorkerFailure`. A service start that raises is a
  crashed attempt like any other. Every attempt gets its own
  :class:`MapContext`, and only the winning attempt's emitted pairs,
  returned values *and* counters reach the job, so a task that died
  mid-shard contributes nothing twice — not a record, not a count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from repro.dfs.filesystem import DistributedFileSystem, shard_name
from repro.dfs.records import DEFAULT_BLOCK_SIZE, RecordReader, RecordWriter
from repro.mapreduce.counters import CounterSet

__all__ = [
    "MapContext",
    "MapReduceSpec",
    "MapReduceResult",
    "MapReduceJob",
    "NodeService",
    "WorkerFailure",
]

Mapper = Callable[["MapContext", dict[str, Any]], None]
BatchMapper = Callable[["MapContext", list[dict[str, Any]]], None]


class NodeService(Protocol):
    """What a node-local service must implement.

    Concrete services (e.g. :class:`repro.services.nlp_server.NLPServer`)
    may expose any richer API; the job only needs start/stop.
    """

    def start(self) -> None: ...

    def stop(self) -> None: ...


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


@dataclass
class MapReduceSpec:
    """Declarative description of one map-only job."""

    name: str
    input_paths: Sequence[str]
    output_base: str | None
    """``None``: publish no output shards."""
    mapper: Mapper | None
    max_retries: int = 2
    node_setup: Callable[[], NodeService] | None = None
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


@dataclass
class MapReduceResult:
    """What a finished job reports back."""

    output_paths: list[str]
    counters: CounterSet
    map_tasks: int
    wall_seconds: float
    records_in: int
    records_out: int
    retries: int = 0
    returned: list[list[Any]] = field(default_factory=list)
    """What each map task's mappers ``give``-d back, in task order."""


class MapReduceJob:
    """Executes a :class:`MapReduceSpec` against a DFS."""

    def __init__(self, dfs: DistributedFileSystem, spec: MapReduceSpec) -> None:
        self._dfs = dfs
        self._spec = spec
        self._retries = 0
        self._service: NodeService | None = None

    def run(self) -> MapReduceResult:
        spec = self._spec
        start = time.perf_counter()
        contexts: list[MapContext] = []
        records_in = 0
        try:
            for index, path in enumerate(spec.input_paths):
                ctx, count = self._run_task(index, path)
                contexts.append(ctx)
                records_in += count
        finally:
            if self._service is not None:
                self._service.stop()
                self._service = None

        paths, records_out = self._write_outputs([ctx._pairs for ctx in contexts])
        return MapReduceResult(
            output_paths=paths,
            counters=CounterSet.merged(ctx.counters for ctx in contexts),
            map_tasks=len(spec.input_paths),
            wall_seconds=time.perf_counter() - start,
            records_in=records_in,
            records_out=records_out,
            retries=self._retries,
            returned=[ctx._returned for ctx in contexts],
        )

    def _run_task(self, index: int, path: str) -> tuple[MapContext, int]:
        """Run one map task until an attempt survives; returns that
        attempt's context and the records it read."""
        spec = self._spec
        last_error: BaseException | None = None
        for attempt in range(spec.max_retries + 1):
            try:
                if self._service is None and spec.node_setup is not None:
                    service = spec.node_setup()
                    service.start()
                    self._service = service
                if spec.fail_injector is not None:
                    spec.fail_injector(index, attempt)
                ctx = MapContext(self._service)
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
                return ctx, count
            except Exception as error:  # worker crash -> retry
                last_error = error
                self._retries += 1
        else:
            raise WorkerFailure(
                f"map task {index} ({path}) failed after "
                f"{spec.max_retries + 1} attempts"
            ) from last_error

    def _write_outputs(
        self, map_outputs: list[list[tuple[str, Any]]]
    ) -> tuple[list[str], int]:
        """One output shard per map task, its pairs in emit order."""
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
