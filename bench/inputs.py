"""Seeded inputs and the measuring wrappers the workloads share.

Everything the program under test sees is built here from ``--seed``:
the ``product`` content task's example pool (the repo's own dataset
generator at a benchmark-chosen pool size), its eight labeling
functions, and staged record shards.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.applications.product import build_product_lfs
from repro.config import ScaleConfig
from repro.core.label_model import LabelModelConfig
from repro.core.online_label_model import OnlineLabelModelConfig
from repro.datasets.content import build_content_world, generate_product_dataset
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import RecordReader
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.parallel import LFSuiteSpec
from repro.types import Example

__all__ = [
    "Sizes",
    "FULL",
    "SMOKE",
    "Inputs",
    "TimingDFS",
    "TimedSource",
    "build_inputs",
    "build_lfs",
    "suite_spec",
    "clone_examples",
    "online_config",
    "tree_bytes",
    "tree_digest",
    "read_vote_shards",
    "reference_votes",
    "batch_latencies",
]

BATCH_SIZE = 1024


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``FULL`` is what ``BENCHMARK.json`` measures; the
    issue's 40k-pool sizing was shrunk (names unchanged) so that 92 runs
    with set-up fit the driver's time cap."""

    pool: int
    """Examples generated for the pool (and staged to ``shards`` shards)."""
    shards: int
    stream_epochs: int
    """``stream_durable`` streams this many id-suffixed copies of the pool."""
    refit_every: int
    corpus_batch: int
    """``serve_mixed`` streams the pool in batches of this size, one
    manifest each, to make the releases it deploys."""
    deploys: int
    min_rounds: int
    probe_passes: int
    """Passes each direct-call probe of the traced run makes."""


FULL = Sizes(
    pool=8000,
    shards=8,
    stream_epochs=3,
    refit_every=16,
    corpus_batch=512,
    deploys=5,
    min_rounds=3,
    probe_passes=3,
)
SMOKE = Sizes(
    pool=2000,
    shards=4,
    stream_epochs=1,
    refit_every=2,
    corpus_batch=256,
    deploys=1,
    min_rounds=1,
    probe_passes=1,
)


class TimingDFS(DistributedFileSystem):
    """The benchmark's own filesystem: stamps the instant each file is
    published, which is where a micro-batch's latency ends."""

    def __init__(self) -> None:
        super().__init__()
        self.published: dict[str, float] = {}

    def finalize(self, path: str) -> None:
        super().finalize(path)
        self.published[path] = time.perf_counter()

    def finalize_as(self, staged_path: str, final_path: str) -> None:
        super().finalize_as(staged_path, final_path)
        self.published[final_path] = time.perf_counter()


class TimedSource:
    """Wraps a cursor-capable source; stamps the instant each
    micro-batch's last example is yielded, which is where the batch's
    latency starts (queue wait included, batch assembly excluded)."""

    def __init__(self, source, batch_size: int = BATCH_SIZE) -> None:
        self._source = source
        self._batch_size = batch_size
        self.ready: list[float] = []

    def iter_with_cursor(self, start=None):
        count = 0
        for pair in self._source.iter_with_cursor(start):
            count += 1
            if count % self._batch_size == 0:
                self.ready.append(time.perf_counter())
            yield pair
        if count % self._batch_size:
            self.ready.append(time.perf_counter())

    def __iter__(self):
        for example, _ in self.iter_with_cursor():
            yield example


def batch_latencies(source: TimedSource, dfs: TimingDFS, path_of) -> list[float]:
    """Seconds from batch ``k`` leaving the source to ``path_of(k)``
    being published, for every batch the source produced."""
    return [
        dfs.published[path_of(k)] - ready
        for k, ready in enumerate(source.ready)
    ]


@dataclass
class Inputs:
    """One seed's generated world, as the program under test sees it."""

    seed: int
    sizes: Sizes
    pool: list[Example]
    lfs: list
    dfs: TimingDFS
    shard_paths: list[str]

    @property
    def lf_names(self) -> list[str]:
        return [lf.name for lf in self.lfs]


def build_lfs(seed: int):
    """The product LF suite for ``seed`` (also the pool workers' factory:
    the suite depends on the seeded world only, never on the pool size)."""
    return build_product_lfs(build_content_world(seed))[0]


def suite_spec(seed: int) -> LFSuiteSpec:
    return LFSuiteSpec(factory="inputs:build_lfs", args=(seed,))


def build_inputs(seed: int, sizes: Sizes, epochs: int = 1) -> Inputs:
    """Generate the pool, build the suite, stage ``epochs`` copies."""
    scale = ScaleConfig(
        name="bench",
        topic_unlabeled=0,
        topic_dev=0,
        topic_test=0,
        product_unlabeled=sizes.pool,
        product_dev=0,
        product_test=0,
        events_unlabeled=0,
        events_test=0,
    )
    dataset = generate_product_dataset(scale, seed=seed)
    pool = dataset.unlabeled
    lfs = build_product_lfs(dataset.world)[0]
    staged = pool
    if epochs > 1:
        staged = [
            example
            for epoch in range(epochs)
            for example in clone_examples(pool, suffix=f"#e{epoch}")
        ]
    dfs = TimingDFS()
    shard_paths = stage_examples(
        dfs, staged, "/bench/in/examples", num_shards=sizes.shards * epochs
    )
    return Inputs(seed, sizes, pool, lfs, dfs, shard_paths)


def clone_examples(examples, suffix: str = "") -> list[Example]:
    """Fresh ``Example`` objects: token memos hang off the instances, so
    every timed pass labels clones, as it would label decoded records."""
    return [
        Example(
            example_id=e.example_id + suffix,
            fields=dict(e.fields),
            servable=dict(e.servable),
            non_servable=dict(e.non_servable),
            label=e.label,
        )
        for e in examples
    ]


def online_config(seed: int, refit_every: int | None) -> OnlineLabelModelConfig:
    return OnlineLabelModelConfig(
        base=LabelModelConfig(seed=seed), refit_every=refit_every, seed=seed
    )


# ----------------------------------------------------------------------
# durable-output helpers
# ----------------------------------------------------------------------
def tree_bytes(dfs: DistributedFileSystem, root: str) -> int:
    return sum(dfs.size(path) for path in dfs.list(root + "/"))


def tree_digest(dfs: DistributedFileSystem, root: str, kinds) -> dict[str, int]:
    """``{path relative to root: crc32}`` for the listed subdirectories."""
    return {
        path[len(root):]: zlib.crc32(dfs.read_file(path))
        for kind in kinds
        for path in dfs.list(f"{root}/{kind}/")
    }


def read_vote_shards(dfs: DistributedFileSystem, paths) -> tuple[list[str], np.ndarray]:
    """Decode ``VoteSink`` shards back into ``(example ids, vote matrix)``."""
    ids: list[str] = []
    rows: list[list[int]] = []
    for path in paths:
        for record in RecordReader(dfs, path):
            if record.get("kind") == "meta":
                continue
            ids.append(record["example_id"])
            rows.append(record["votes"])
    return ids, np.asarray(rows, dtype=np.int8)


def reference_votes(inputs: Inputs, ids: list[str]) -> np.ndarray:
    """The reference vote matrix, id-aligned to ``ids``.

    One in-memory pass over the pool; an id of the form ``<pool id>#eK``
    (a stream epoch copy) takes its pool example's row.
    """
    reference = apply_lfs_in_memory(inputs.lfs, clone_examples(inputs.pool))
    row_of = {eid: i for i, eid in enumerate(reference.example_ids)}
    rows = [row_of[eid.split("#", 1)[0]] for eid in ids]
    return reference.matrix[rows]
