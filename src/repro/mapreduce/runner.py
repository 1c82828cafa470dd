"""Map tasks over DFS record shards.

DryBell's LF templates each "define a MapReduce pipeline" (Section
5.1): one map task per input shard reads its records and hands back
what the LF computed from them. :func:`run_map_tasks` is that loop:

* Tasks run one after another on the caller's thread: an LF kernel is
  Python that holds the GIL, so threads would only trade it (processes
  are :mod:`repro.parallel`'s job).
* A task reads its shard in blocks of up to ``block_size`` records, in
  record order, and keeps what the block mapper returns for each block.
* A task is retried as a unit, up to :data:`MAX_RETRIES` times: only
  the winning attempt's values count, so a task that died mid-shard
  contributes nothing twice. Exhausted retries raise
  :class:`WorkerFailure`.

Writing output and bringing model servers up are the callers' jobs
(:class:`repro.lf.applier.LFApplier` and the per-LF reference binary,
:meth:`repro.lf.base.AbstractLabelingFunction.run`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import DEFAULT_BLOCK_SIZE, RecordReader

__all__ = ["MAX_RETRIES", "WorkerFailure", "run_map_tasks"]

#: Reruns a failed map task gets before the job gives up.
MAX_RETRIES = 2

T = TypeVar("T")


class WorkerFailure(Exception):
    """A map task failed more times than the retry budget allows."""


def run_map_tasks(
    dfs: DistributedFileSystem,
    input_paths: Sequence[str],
    block_mapper: Callable[[list[dict[str, Any]]], T],
    block_size: int = DEFAULT_BLOCK_SIZE,
    fail_injector: Callable[[int, int], None] | None = None,
) -> list[list[T]]:
    """Map every input shard; returns each task's block values in task order.

    ``fail_injector`` is the test seam: it is called as
    ``fail_injector(task_index, attempt)`` before each attempt, and
    raising simulates a worker crash.
    """
    tasks: list[list[T]] = []
    for index, path in enumerate(input_paths):
        for attempt in range(MAX_RETRIES + 1):
            try:
                if fail_injector is not None:
                    fail_injector(index, attempt)
                reader = RecordReader(dfs, path)
                tasks.append(
                    [block_mapper(block) for block in reader.iter_blocks(block_size)]
                )
                break
            except Exception as error:  # worker crash -> retry
                last_error = error
        else:
            raise WorkerFailure(
                f"map task {index} ({path}) failed after "
                f"{MAX_RETRIES + 1} attempts"
            ) from last_error
    return tasks
