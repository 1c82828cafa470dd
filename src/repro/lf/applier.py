"""Executing labeling functions and joining their votes.

In production each LF is an independent binary: Snorkel DryBell
"executes the labeling function binary on Google's distributed compute
environment" and then "loads the labeling functions' output into its
generative model" (Figure 4). :class:`LFApplier` reproduces that flow:

1. examples are staged to sharded DFS record files,
2. every LF's votes land in its own sparse vote shards, one per input
   shard — the durable contract, byte for byte the same however they
   were computed. LFs carrying a fused spec run together as ONE
   MapReduce job (one decode and one tokenization of the input for the
   whole group) whose driver writes each LF's shards straight from the
   int8 blocks the mappers hand back; every other LF is an independent
   binary running its own job, which writes its own shards,
3. the votes become a :class:`repro.types.LabelMatrix`: the group's
   columns and the example ids are the blocks the group job returned —
   nothing the applier wrote is read back — and each independent LF's
   shards are joined on example id (missing ids = abstain).

:func:`apply_lfs_in_memory` is the measurement fast path used by large
parameter sweeps; integration tests assert both paths produce identical
matrices.

Both paths are *batched*: LF binaries run block-based map tasks
(``batch_size`` records per block) and the vote join is columnar — one
``(n, m)`` int8 matrix filled a column per LF with a vectorized scatter,
instead of the per-``(example, LF)`` dictionary join the seed shipped
with. ``batch_size=None`` (or ``batched=False`` in memory) selects the
original per-example path — every LF its own per-record job, ids and
every column read back from the shards — kept as the oracle of the
equivalence tests.

The in-memory path also parallelizes across *processes*:
``apply_lfs_in_memory(..., executor=pool)`` shards example blocks over
the caller's :class:`repro.parallel.ParallelLabelExecutor` and
reassembles votes in block order, bit-exact with the serial run (the
GIL makes threads useless here; processes are the unit that scales).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dfs.filesystem import DistributedFileSystem, shard_name
from repro.dfs.records import (
    DEFAULT_BLOCK_SIZE,
    iter_record_blobs,
    write_records,
)
from repro.lf.base import AbstractLabelingFunction, LFRunResult
from repro.lf.default import LabelingFunction
from repro.lf.templates import FusedPlan
from repro.mapreduce.runner import MapContext, MapReduceJob, MapReduceSpec
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
    """Bring up every LF's offline resources for a bulk run."""
    for lf in lfs:
        if isinstance(lf, LabelingFunction):
            lf.start_resources()


def stop_lf_resources(lfs: Sequence[AbstractLabelingFunction]) -> None:
    """Tear down resources and any node-local services after a run."""
    for lf in lfs:
        if isinstance(lf, LabelingFunction):
            lf.stop_resources()
        lf.close_local_service()


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


def _vote_records(blocks, k: int):
    """Column ``k`` of ``(ids, votes)`` blocks as the sparse
    ``{"key", "value"}`` records an LF's own job emits, in record order."""
    for ids, votes in blocks:
        column = votes[:, k]
        rows = np.flatnonzero(column)
        for i, vote in zip(rows.tolist(), column[rows].tolist()):
            yield {"key": ids[i], "value": vote}


def _run_fused_lf_group(
    dfs: DistributedFileSystem,
    fused: Sequence[tuple[int, AbstractLabelingFunction]],
    example_paths: Sequence[str],
    run_root: str,
    parallelism: int,
    batch_size: int,
) -> tuple[list[str], np.ndarray, dict[int, LFRunResult]]:
    """Run every fused-spec LF as ONE MapReduce job over the examples.

    The per-LF execution model re-tokenizes every record once per LF
    binary; this job instead applies one :class:`FusedPlan` (compiled by
    the first block, shared by all) in its block mapper — one
    tokenization and one inverted-index probe per record for the whole
    group — and gives each block's example ids and ``(B, k)`` int8 votes
    back to this driver. The job itself publishes nothing; the driver
    writes every LF's sparse vote shard straight from those blocks,
    byte-identical to what the LF's own job would have written
    (asserted by the equivalence suite), and nothing it wrote is read
    back. Returns the example ids in input order, their ``(n, k)``
    votes, and ``{lf column -> LFRunResult}``.
    """
    plan = FusedPlan([lf.fused_spec for _, lf in fused])
    names = [lf.name for _, lf in fused]
    # repro: allow[determinism] wall_seconds is reporting-only; vote shards never see it
    start = time.perf_counter()

    def batch_mapper(ctx: MapContext, records: list[dict]) -> None:
        examples = [Example.from_record(record) for record in records]
        votes = plan.apply(examples)
        ctx.counters.increment("examples_seen", len(examples))
        for k, name in enumerate(names):
            column = votes[:, k]
            positives = int(np.count_nonzero(column > 0))
            negatives = int(np.count_nonzero(column < 0))
            abstains = len(examples) - positives - negatives
            for suffix, amount in (
                ("abstains", abstains),
                ("positives", positives),
                ("negatives", negatives),
            ):
                if amount:
                    ctx.counters.increment(f"{name}/{suffix}", amount)
        # Ids and votes only: the decoded records die with the block.
        ctx.give(([example.example_id for example in examples], votes))

    spec = MapReduceSpec(
        name="lf/_fused",
        input_paths=list(example_paths),
        output_base=None,
        mapper=None,
        batch_mapper=batch_mapper,
        map_block_size=batch_size,
        reducer=None,
        parallelism=parallelism,
    )
    result = MapReduceJob(dfs, spec).run()

    # One vote shard per (input shard, LF), under the names and with the
    # records, in record order, that the per-LF jobs write.
    n_shards = len(result.returned)
    output_paths: list[list[str]] = [[] for _ in fused]
    votes_out = [0] * len(fused)
    for s, task_blocks in enumerate(result.returned):
        for k, (_, lf) in enumerate(fused):
            out = shard_name(f"{run_root}/{lf.name}/votes", s, n_shards)
            votes_out[k] += write_records(dfs, out, _vote_records(task_blocks, k))
            output_paths[k].append(out)
    blocks = [block for task_blocks in result.returned for block in task_blocks]
    example_ids = [eid for ids, _ in blocks for eid in ids]
    votes = (
        np.concatenate([block_votes for _, block_votes in blocks])
        if blocks
        else np.zeros((0, len(fused)), dtype=np.int8)
    )

    # repro: allow[determinism] group wall-clock feeds LFRunResult reporting, not artifacts
    wall = time.perf_counter() - start
    counters = result.counters
    results: dict[int, LFRunResult] = {}
    for k, (col, lf) in enumerate(fused):
        results[col] = LFRunResult(
            lf_name=lf.name,
            output_paths=output_paths[k],
            examples_seen=counters.value("examples_seen"),
            votes_emitted=votes_out[k],
            positives=counters.value(f"{lf.name}/positives"),
            negatives=counters.value(f"{lf.name}/negatives"),
            abstains=counters.value(f"{lf.name}/abstains"),
            # The group shares one job; each LF reports the group wall.
            wall_seconds=wall,
            nodes_used=result.node_count,
        )
    return example_ids, votes, results


class LFApplier:
    """Runs a set of LF binaries over staged examples and joins votes."""

    def __init__(
        self,
        dfs: DistributedFileSystem,
        example_paths: Sequence[str],
        run_root: str = "/runs/default",
        parallelism: int = 1,
        batch_size: int | None = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self._dfs = dfs
        self._example_paths = list(example_paths)
        self._run_root = run_root.rstrip("/")
        self._parallelism = parallelism
        self._batch_size = batch_size

    def apply(self, lfs: Sequence[AbstractLabelingFunction]) -> ApplyReport:
        # repro: allow[determinism] ApplyReport.wall_seconds is throughput reporting only
        start = time.perf_counter()
        # Batched runs execute every fused-spec LF as one MapReduce job
        # (tokenize once per record for the whole group) that hands back
        # the ids and the group's columns from its one pass over the
        # input. Only a run without a group reads the input for its ids.
        fused = (
            [(j, lfs[j]) for j in fused_lf_columns(lfs)]
            if self._batch_size is not None
            else []
        )
        fused_results: dict[int, LFRunResult] = {}
        if fused:
            fused_lfs = [lf for _, lf in fused]
            start_lf_resources(fused_lfs)
            try:
                example_ids, fused_votes, fused_results = _run_fused_lf_group(
                    self._dfs,
                    fused,
                    self._example_paths,
                    self._run_root,
                    self._parallelism,
                    self._batch_size,
                )
            finally:
                stop_lf_resources(fused_lfs)
        else:
            example_ids = [
                record["example_id"]
                for record in iter_record_blobs(self._dfs, self._example_paths)
            ]
        # Columnar join: fused columns are assigned whole; every other
        # LF's sparse vote shards scatter into their own int8 column
        # through one O(n) id index.
        id_index = {eid: i for i, eid in enumerate(example_ids)}
        matrix = np.zeros((len(example_ids), len(lfs)), dtype=np.int8)
        if fused:
            matrix[:, [j for j, _ in fused]] = fused_votes

        lf_results = []
        for j, lf in enumerate(lfs):
            if j in fused_results:
                lf_results.append(fused_results[j])
                continue
            start_lf_resources([lf])
            try:
                output_base = f"{self._run_root}/{lf.name}/votes"
                result = lf.run(
                    self._dfs,
                    self._example_paths,
                    output_base,
                    parallelism=self._parallelism,
                    batch_size=self._batch_size,
                )
            finally:
                stop_lf_resources([lf])
            lf_results.append(result)
            rows: list[int] = []
            values: list[int] = []
            for record in iter_record_blobs(self._dfs, result.output_paths):
                row = id_index.get(record["key"])
                if row is not None:
                    rows.append(row)
                    values.append(int(record["value"]))
            if rows:
                matrix[np.asarray(rows), j] = np.asarray(values, dtype=np.int8)

        label_matrix = LabelMatrix(matrix, example_ids, [lf.name for lf in lfs])
        # repro: allow[determinism] wall_seconds is throughput reporting only
        wall = time.perf_counter() - start
        return ApplyReport(
            label_matrix=label_matrix,
            lf_results=lf_results,
            wall_seconds=wall,
            examples=len(example_ids),
        )


def apply_lfs_in_memory(
    lfs: Sequence[AbstractLabelingFunction],
    examples: Sequence[Example],
    batched: bool = True,
    batch_size: int = DEFAULT_MEMORY_BATCH,
    executor=None,
    telemetry=None,
    tracer=None,
) -> LabelMatrix:
    """Fast path: vote on in-memory examples, no DFS/MapReduce.

    Produces the same matrix as :class:`LFApplier` (asserted by the
    integration tests); used by benchmarks so parameter sweeps measure
    modeling, not simulator overhead.

    ``batched=True`` (the default) fills each LF's column via
    :meth:`~repro.lf.base.AbstractLabelingFunction.label_batch` in
    ``batch_size`` blocks; ``batched=False`` is the seed's per-example
    loop, kept as the baseline the perf suite compares against.

    ``executor`` (a live :class:`repro.parallel.ParallelLabelExecutor`
    whose suite spec rebuilds ``lfs`` in each worker) shards example
    blocks across its process pool. The pool belongs to the caller: it
    is never closed here, and stays warm for the next call. The matrix
    is byte-identical to the serial batched path at every worker count
    — the equivalence suite asserts it.

    ``telemetry`` (a :class:`repro.obs.MetricsRegistry`) receives one
    ``offline.label_block`` stage event per serially labeled block (a
    pool reports through the registry its executor was built with);
    ``tracer`` gets the same events as spans. Both default to off, in
    which case the hot loop runs with zero added timing calls — the
    votes are identical either way.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    examples = list(examples)
    n, m = len(examples), len(lfs)
    matrix = np.zeros((n, m), dtype=np.int8)

    if executor is not None and n > 0:
        if not batched:
            raise ValueError("executor= requires the batched path")
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
        metrics = MetricsRegistry().attach(telemetry, tracer)
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
            if isinstance(lf, LabelingFunction):
                lf.start_resources()
            try:
                for i, example in enumerate(examples):
                    matrix[i, j] = lf.vote_in_memory(example)
            finally:
                if isinstance(lf, LabelingFunction):
                    lf.stop_resources()
                lf.close_local_service()
    return LabelMatrix(
        matrix,
        [e.example_id for e in examples],
        [lf.name for lf in lfs],
    )
