"""Executing labeling functions and joining their votes.

Snorkel DryBell "executes the labeling function binary on Google's
distributed compute environment" and then "loads the labeling functions'
output into its generative model" (Figure 4). :class:`LFApplier`
reproduces that flow:

1. examples are staged to sharded DFS record files,
2. the whole suite votes in ONE map job
   (:func:`repro.mapreduce.run_map_tasks`) — one decode of the input,
   one tokenization per record for the fused-spec LFs, every other LF
   through its ``label_batch`` on the same block
   (:func:`label_example_block`, the kernel the stream, the pool workers
   and the server run too) — whose driver writes every LF's vote
   shards, one per input shard, straight from the int8 blocks the
   mappers hand back: each shard is one ``{"kind": "lf_votes", "ids",
   "votes"}`` block of the LF's non-abstaining votes
   (:func:`~repro.lf.base.write_lf_votes`). The shards are the durable
   contract: byte for byte what each LF's own binary writes,
3. the votes become a :class:`repro.types.LabelMatrix` whose rows and
   example ids are those same blocks; nothing the applier wrote is read
   back.

:meth:`LFApplier.apply_per_lf` is the per-record reference the
equivalence tests judge ``apply`` against: every LF is the paper's
independent binary, running
:meth:`~repro.lf.base.AbstractLabelingFunction.run` as its own job, and
its shards are read back (:func:`~repro.lf.base.read_lf_votes`) and
joined on example id (missing ids = abstain). :func:`apply_lfs_in_memory`
is the measurement fast path used by large parameter sweeps;
``batched=False`` there is its per-example reference. Integration tests assert every path produces the same
matrix.

The in-memory path also parallelizes across *processes*:
``apply_lfs_in_memory(..., executor=pool)`` shards example blocks over
the caller's :class:`repro.parallel.ParallelLabelExecutor` and
reassembles votes in block order, bit-exact with the serial run (the
GIL makes threads useless here; processes are the unit that scales).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dfs.filesystem import DistributedFileSystem, shard_name
from repro.dfs.records import DEFAULT_BLOCK_SIZE, iter_record_blobs, write_records
from repro.lf.base import (
    AbstractLabelingFunction, LFRunResult, read_lf_votes, write_lf_votes,
)
from repro.lf.templates import FusedPlan
from repro.mapreduce.runner import run_map_tasks
from repro.obs.registry import MetricsRegistry
from repro.types import Example, LabelMatrix

__all__ = [
    "LFApplier",
    "ApplyReport",
    "stage_examples",
    "apply_lfs_in_memory",
    "fused_lf_columns",
    "label_example_block",
    "start_lf_resources",
    "stop_lf_resources",
    "DEFAULT_MEMORY_BATCH",
]

#: Block size for the in-memory batched path. Big enough that NumPy and
#: set-intersection kernels dominate Python dispatch, small enough that a
#: block's intermediates stay cache-resident.
DEFAULT_MEMORY_BATCH = 8192


@dataclass
class ApplyReport:
    """Everything a labeling run reports (throughput feeds Section 1's
    6M-points-in-under-30-minutes scale claim)."""

    label_matrix: LabelMatrix
    lf_results: list[LFRunResult]
    wall_seconds: float
    examples: int

    @property
    def examples_per_second(self) -> float:
        """Labeling throughput over the run's wall time."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.examples / self.wall_seconds


def stage_examples(
    dfs: DistributedFileSystem,
    examples: Sequence[Example],
    base_path: str,
    num_shards: int = 8,
) -> list[str]:
    """Write examples to sharded record files; returns shard paths."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    paths = []
    for shard in range(num_shards):
        path = shard_name(base_path, shard, num_shards)
        chunk = (
            examples[i].to_record()
            for i in range(shard, len(examples), num_shards)
        )
        write_records(dfs, path, chunk)
        paths.append(path)
    return paths


def fused_lf_columns(lfs: Sequence[AbstractLabelingFunction]) -> FusedPlan:
    """The suite's fused-spec LFs as one :class:`FusedPlan`.

    The plan iterates as the indices of LFs carrying a declarative fused
    batch spec and is what :func:`label_example_block` takes as
    ``fused_cols``. Build one per started run (before or after
    :func:`start_lf_resources`; it compiles on first use) and hand it to
    every block of that run.
    """
    columns = [
        j for j, lf in enumerate(lfs)
        if getattr(lf, "fused_spec", None) is not None
    ]
    return FusedPlan([lfs[j].fused_spec for j in columns], columns, len(lfs))


def start_lf_resources(lfs: Sequence[AbstractLabelingFunction]) -> None:
    """Start every LF (:meth:`~repro.lf.base.AbstractLabelingFunction.start`:
    its offline resources and its node-local model server) for a bulk
    run, once, before its first block is labelled.

    A start that raises stops what this call started, in reverse order,
    before the error propagates: a failed start leaves nothing running.
    """
    started: list[AbstractLabelingFunction] = []
    try:
        for lf in lfs:
            started.append(lf)
            lf.start()
    except BaseException:
        stop_lf_resources(started[::-1])
        raise


def stop_lf_resources(lfs: Sequence[AbstractLabelingFunction]) -> None:
    """Stop every LF (its resources and any node-local server) after a run."""
    for lf in lfs:
        lf.stop()


def label_example_block(
    lfs: Sequence[AbstractLabelingFunction],
    examples: Sequence[Example],
    fused_cols: FusedPlan | None = None,
) -> np.ndarray:
    """Vote every LF on one in-memory block; returns ``(n, m)`` int8.

    The single batched-labeling kernel shared by the offline applier,
    the micro-batch streaming pipeline, the pool workers and the label
    server: LFs with a fused spec are evaluated in one tokenize-once
    pass by ``fused_cols`` — the run's :func:`fused_lf_columns` plan,
    compiled once and reused for every block — and the rest through
    their ``label_batch`` kernels. Callers manage resource lifecycle
    (:func:`start_lf_resources` / :func:`stop_lf_resources`) around the
    run.
    """
    if fused_cols is None:
        fused_cols = fused_lf_columns(lfs)
    if not examples:
        return np.zeros((0, len(lfs)), dtype=np.int8)
    votes = fused_cols.apply(examples)
    for j in fused_cols.unfused:
        votes[:, j] = lfs[j].label_batch(examples)
    return votes


class LFApplier:
    """Labels staged examples with an LF suite: one vote shard set per LF
    and the joined label matrix.

    ``parallelism`` accepts only ``1``: map tasks run one after another
    on the caller's thread. ``batch_size`` is the records per map block.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        example_paths: Sequence[str],
        run_root: str = "/runs/default",
        parallelism: int = 1,
        batch_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if parallelism != 1:
            raise ValueError(
                f"LFApplier runs its map tasks on the caller's thread; got "
                f"parallelism={parallelism}. To label on several processes, "
                "use apply_lfs_in_memory(executor=ParallelLabelExecutor(...))"
            )
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ValueError(
                f"batch_size must be an int >= 1, got {batch_size!r}; the "
                "per-record reference is LFApplier.apply_per_lf"
            )
        self._dfs = dfs
        self._example_paths = list(example_paths)
        self._run_root = run_root.rstrip("/")
        self._batch_size = batch_size

    def apply(self, lfs: Sequence[AbstractLabelingFunction]) -> ApplyReport:
        """Label the whole suite in ONE map job over the examples: the block
        mapper runs :func:`label_example_block` with one :class:`FusedPlan`
        for the job, and this driver writes every LF's vote shards from
        the ``(ids, votes)`` blocks it returns (module docstring, step 2).
        """
        return self._report(lfs, self._suite_job)

    def apply_per_lf(self, lfs: Sequence[AbstractLabelingFunction]) -> ApplyReport:
        """The per-record reference: each LF runs its own
        :meth:`~repro.lf.base.AbstractLabelingFunction.run`, and its shards
        are read back and joined on example id."""
        return self._report(lfs, self._per_lf_jobs)

    def _report(self, lfs, job) -> ApplyReport:
        names = [lf.name for lf in lfs]
        duplicates = sorted(name for name, n in Counter(names).items() if n > 1)
        if duplicates:
            # Each LF publishes under run_root/<name>/: caught here, before
            # any job runs, not after the first LF's shards are published.
            raise ValueError(f"duplicate labeling function names: {duplicates}")
        # repro: allow[determinism] ApplyReport.wall_seconds is throughput reporting only
        start = time.perf_counter()
        example_ids, matrix, lf_results = job(lfs)
        # repro: allow[determinism] wall_seconds is throughput reporting only
        wall = time.perf_counter() - start
        return ApplyReport(
            label_matrix=LabelMatrix(matrix, example_ids, names),
            lf_results=lf_results,
            wall_seconds=wall,
            examples=len(example_ids),
        )

    def _suite_job(
        self, lfs: Sequence[AbstractLabelingFunction]
    ) -> tuple[list[str], np.ndarray, list[LFRunResult]]:
        plan = fused_lf_columns(lfs)

        def block_mapper(records: list[dict]) -> tuple[list, np.ndarray]:
            examples = [Example.from_record(record) for record in records]
            # Ids and votes only: the decoded records die with the block.
            return [e.example_id for e in examples], label_example_block(lfs, examples, plan)

        # repro: allow[determinism] LFRunResult.wall_seconds is throughput reporting only
        start = time.perf_counter()
        start_lf_resources(lfs)
        try:
            tasks = run_map_tasks(
                self._dfs, self._example_paths, block_mapper, self._batch_size
            )
        finally:
            stop_lf_resources(lfs)
        # repro: allow[determinism] wall_seconds is throughput reporting only
        wall = time.perf_counter() - start

        blocks = [block for task_blocks in tasks for block in task_blocks]
        example_ids = [eid for ids, _ in blocks for eid in ids]
        empty = np.zeros((0, len(lfs)), dtype=np.int8)
        votes = np.concatenate([block_votes for _, block_votes in blocks] or [empty])
        # One vote shard per (input shard, LF), under the names and with the
        # block, in record order, that the LF's own job writes.
        bases = [f"{self._run_root}/{lf.name}/votes" for lf in lfs]
        output_paths = [[shard_name(b, s, len(tasks)) for s in range(len(tasks))] for b in bases]
        stop = 0
        for s, task_blocks in enumerate(tasks):
            start, stop = stop, stop + sum(len(ids) for ids, _ in task_blocks)
            for k, paths in enumerate(output_paths):
                write_lf_votes(self._dfs, paths[s], example_ids[start:stop], votes[start:stop, k])
        n = len(example_ids)
        positives = np.count_nonzero(votes > 0, axis=0).tolist()
        negatives = np.count_nonzero(votes < 0, axis=0).tolist()
        results = [
            LFRunResult(
                lf_name=lf.name,
                output_paths=output_paths[k],
                examples_seen=n,
                votes_emitted=positives[k] + negatives[k],
                positives=positives[k],
                negatives=negatives[k],
                abstains=n - positives[k] - negatives[k],
                # The suite shares one job; each LF reports the job's wall.
                wall_seconds=wall,
            )
            for k, lf in enumerate(lfs)
        ]
        return example_ids, votes, results

    def _per_lf_jobs(
        self, lfs: Sequence[AbstractLabelingFunction]
    ) -> tuple[list[str], np.ndarray, list[LFRunResult]]:
        records = iter_record_blobs(self._dfs, self._example_paths)
        example_ids = [record["example_id"] for record in records]
        rows = {eid: i for i, eid in enumerate(example_ids)}
        matrix = np.zeros((len(example_ids), len(lfs)), dtype=np.int8)
        results = []
        for j, lf in enumerate(lfs):
            out = f"{self._run_root}/{lf.name}/votes"
            results.append(lf.run(self._dfs, self._example_paths, out))
            for path in results[-1].output_paths:
                ids, votes = read_lf_votes(self._dfs, path)
                matrix[[rows[eid] for eid in ids], j] = votes
        return example_ids, matrix, results


def apply_lfs_in_memory(
    lfs: Sequence[AbstractLabelingFunction],
    examples: Sequence[Example],
    batched: bool = True,
    batch_size: int = DEFAULT_MEMORY_BATCH,
    executor=None,
    telemetry=None,
) -> LabelMatrix:
    """Fast path: vote on in-memory examples, no DFS/MapReduce.

    Produces the same matrix as :class:`LFApplier` (asserted by the
    integration tests); used by benchmarks so parameter sweeps measure
    modeling, not simulator overhead.

    ``batched=True`` (the default) fills each LF's column via
    :meth:`~repro.lf.base.AbstractLabelingFunction.label_batch` in
    ``batch_size`` blocks; ``batched=False`` is the per-example loop
    over :meth:`~repro.lf.base.AbstractLabelingFunction.vote_in_memory`,
    the oracle the equivalence tests judge the batched path against.

    ``executor`` (a live :class:`repro.parallel.ParallelLabelExecutor`
    whose suite spec rebuilds ``lfs`` in each worker) shards example
    blocks across its process pool. The pool belongs to the caller: it
    is never closed here, and stays warm for the next call. The matrix
    is byte-identical to the serial batched path at every worker count
    — the equivalence suite asserts it.

    ``telemetry`` (a :class:`repro.obs.MetricsRegistry`) receives one
    ``offline.label_block`` stage event per serially labeled block (a
    pool reports through the registry its executor was built with), and
    a tracer on that registry gets the same events as spans. It defaults
    to off, in which case the hot loop runs with zero added timing calls
    — the votes are identical either way.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    examples = list(examples)
    n, m = len(examples), len(lfs)
    matrix = np.zeros((n, m), dtype=np.int8)

    if executor is not None and not batched:
        raise ValueError("executor= requires the batched path")
    if executor is not None and n > 0:
        from repro.parallel import parallel_block_size

        votes = executor.label_examples(
            examples, parallel_block_size(n, executor.workers, batch_size)
        )
        if votes.shape != (n, m):
            raise ValueError(
                f"worker suite produced votes of shape {votes.shape}; "
                f"this run expects {(n, m)} — the executor's suite_spec "
                "must rebuild the same LF suite"
            )
        matrix = votes
    elif batched:
        # Keyword-style LFs carry a declarative TokenMatchSpec; fuse them
        # so each example is tokenized and index-probed once for the
        # whole group instead of once per LF. The same block kernel
        # drives the streaming pipeline's micro-batches.
        fused_cols = fused_lf_columns(lfs)
        # Unobserved, clock() reads nothing: the loop stays free of
        # timing calls. Observed, it costs two perf_counter reads per
        # *block* (never per example), which the overhead gate bounds.
        metrics = MetricsRegistry().attach(telemetry)
        start_lf_resources(lfs)
        try:
            for start in range(0, n, batch_size):
                block = examples[start:start + batch_size]
                started = metrics.clock()
                matrix[start:start + len(block)] = label_example_block(
                    lfs, block, fused_cols
                )
                metrics.stage(
                    "offline.label_block",
                    since=started,
                    offset=start,
                    records=len(block),
                )
        finally:
            stop_lf_resources(lfs)
    else:
        for j, lf in enumerate(lfs):
            start_lf_resources([lf])
            try:
                for i, example in enumerate(examples):
                    matrix[i, j] = lf.vote_in_memory(example)
            finally:
                stop_lf_resources([lf])
    return LabelMatrix(
        matrix,
        [e.example_id for e in examples],
        [lf.name for lf in lfs],
    )
