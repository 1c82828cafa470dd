"""``AbstractLabelingFunction``: the root of the template library.

Section 5.1: "We achieve this by implementing an AbstractLabelingFunction
class that handles all input and output to Google's distributed
filesystem. Each subclass defines a MapReduce pipeline, with class
template slots for functions to be executed within the pipeline."

The reproduction follows the same contract:

* :meth:`run` is the whole "labeling function binary": it reads example
  records from the DFS, calls :meth:`_vote` on each one in one map task
  per input shard (:func:`repro.mapreduce.run_map_tasks`), and writes one
  vote shard per input shard to its own sharded output — LFs never share
  state except through the filesystem (Section 5.4's loosely-coupled
  design). It is the per-record reference
  :meth:`repro.lf.applier.LFApplier.apply_per_lf` runs; ``apply`` labels
  the whole suite in one job through :meth:`label_batch` and writes the
  same shards.
* Subclasses override :meth:`_node_service_factory` (which model server,
  if any, to launch per compute node) and :meth:`_vote` (the per-example
  slot an engineer writes).
* Every LF has one lifecycle, :meth:`start` / :meth:`stop`: ``start``
  brings up the offline resources the LF declares in ``resources`` and
  its one node-local model server, ``stop`` takes both down. ``run``
  starts it for its job and stops it afterwards; a bulk run starts every
  LF once through :func:`repro.lf.applier.start_lf_resources`.

A vote shard is one block record, ``{"kind": "lf_votes", "ids": [...],
"votes": encode_ndarray(int8)}``: the ids of the input shard's examples
the LF voted on, in record order, and their votes in ``{-1, +1}`` — a
slice of the LF's column of the sparse label matrix. Abstains are not
written (the join treats missing ids as abstain, exactly like sparse
vote files at Google scale), and a shard on which the LF cast no vote is
published empty. :func:`write_lf_votes` writes a shard and
:func:`read_lf_votes` reads one back.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.dfs.filesystem import DistributedFileSystem, shard_name
from repro.dfs.records import (
    RecordReader, RecordWriter, decode_ndarray, encode_ndarray, record_body,
)
from repro.mapreduce.runner import run_map_tasks
from repro.lf.registry import LFInfo
from repro.services.base import ModelServer
from repro.types import ABSTAIN, Example, require_fields

__all__ = [
    "AbstractLabelingFunction",
    "LFRunResult",
    "VALID_VOTES",
    "lf_votes_body",
    "write_lf_votes",
    "read_lf_votes",
]

#: The only legal votes in the binary setting (Section 5.1's ``LFVote``).
VALID_VOTES = (-1, 0, 1)


def lf_votes_body(ids: list, votes: np.ndarray) -> bytes:
    """The record body of one vote block: ``ids`` and their int8 ``votes``."""
    return record_body({"kind": "lf_votes", "ids": ids, "votes": encode_ndarray(votes)})


def write_lf_votes(
    dfs: DistributedFileSystem, path: str, ids: Sequence, votes: np.ndarray
) -> None:
    """Publish one (LF, input shard) vote shard at ``path``.

    ``votes`` holds the LF's vote on each of ``ids``, in record order;
    the shard is one :func:`lf_votes_body` block of the non-abstaining
    ones, or empty when the LF cast no vote.
    """
    cast = np.flatnonzero(votes)
    with RecordWriter(dfs, path) as writer:
        if len(cast):
            writer.write_body(lf_votes_body([ids[i] for i in cast.tolist()], votes[cast]))


def read_lf_votes(dfs: DistributedFileSystem, path: str) -> tuple[list, np.ndarray]:
    """One vote shard's ``(ids, votes)``: the ids the LF voted on, in
    record order, and their ``int8`` votes; an empty shard holds none.

    Raises:
        ValueError: If the shard's record is of another kind or misses a
            field, its ``ids`` are not a list, its ``votes`` are not a
            1-D int8 array as long as ``ids`` or hold a vote outside
            ``{-1, +1}``, or a record follows the block.
        RecordCorruption: If a record fails its CRC or framing check.
    """
    records = iter(RecordReader(dfs, path))
    block = next(records, None)
    if block is None:
        return [], np.zeros(0, dtype=np.int8)
    block = require_fields(block, f"vote block of {path}", ("kind", "ids", "votes"))
    if block["kind"] != "lf_votes":
        raise ValueError(f"{path} is not a vote shard: kind {block['kind']!r}")
    ids = block["ids"]
    votes = decode_ndarray(block["votes"])
    if not isinstance(ids, list):
        raise ValueError(f"{path} ids are {type(ids).__name__}, not a list")
    if votes.dtype != np.int8 or votes.shape != (len(ids),):
        raise ValueError(
            f"{path} votes are {votes.dtype} {votes.shape}, not int8 ({len(ids)},)"
        )
    if not np.isin(votes, (-1, 1)).all():
        raise ValueError(f"{path} holds a vote outside {{-1, +1}}")
    if next(records, None) is not None:
        raise ValueError(f"{path} holds a record after its vote block")
    return ids, votes


@dataclass
class LFRunResult:
    """Outcome of executing one labeling-function binary."""

    lf_name: str
    output_paths: list[str]
    examples_seen: int
    votes_emitted: int
    positives: int
    negatives: int
    abstains: int
    wall_seconds: float

    @property
    def coverage(self) -> float:
        """Fraction of the examples seen on which the LF did not abstain."""
        if self.examples_seen == 0:
            return 0.0
        return self.votes_emitted / self.examples_seen


class AbstractLabelingFunction:
    """Base class handling DFS I/O and MapReduce execution."""

    def __init__(self, info: LFInfo) -> None:
        self.info = info

    @property
    def name(self) -> str:
        """The LF's registered name (its column in the label matrix)."""
        return self.info.name

    # ------------------------------------------------------------------
    # template slots
    # ------------------------------------------------------------------
    def _node_service_factory(self) -> Callable[[], ModelServer] | None:
        """Return a factory for the per-node model server, or ``None``.

        The default pipeline launches no additional services; the NLP
        pipeline overrides this (Section 5.1).
        """
        return None

    def _vote(self, example: Example, service: ModelServer | None) -> int:
        """Compute the LF's vote for one example (the engineer's code)."""
        raise NotImplementedError

    def _vote_batch(
        self, examples: Sequence[Example], service: ModelServer | None
    ) -> np.ndarray:
        """Compute votes for a block of examples.

        The default implementation loops :meth:`_vote`, so every existing
        subclass works on the batched execution path unchanged; pipelines
        with a vectorized kernel override this and return an ``int8``
        array of shape ``(len(examples),)``.
        """
        # int64 so an out-of-range vote reaches _validate_votes intact
        # instead of being silently wrapped by an int8 cast.
        return np.fromiter(
            (self._vote(example, service) for example in examples),
            dtype=np.int64,
            count=len(examples),
        )

    def _validate_votes(self, votes: np.ndarray, expected: int) -> np.ndarray:
        """Check a batch of votes and normalize the dtype to ``int8``."""
        arr = np.asarray(votes)
        if arr.shape != (expected,):
            raise ValueError(
                f"labeling function {self.name!r} returned votes of shape "
                f"{arr.shape} for a batch of {expected} examples"
            )
        if not np.isin(arr, VALID_VOTES).all():
            bad = arr[~np.isin(arr, VALID_VOTES)][0]
            raise ValueError(
                f"labeling function {self.name!r} returned invalid vote "
                f"{bad!r} (must be -1, 0, or +1)"
            )
        return arr.astype(np.int8, copy=False)

    # ------------------------------------------------------------------
    # execution = one MapReduce job over the example shards
    # ------------------------------------------------------------------
    def run(
        self,
        dfs: DistributedFileSystem,
        input_paths: Sequence[str],
        output_base: str,
    ) -> LFRunResult:
        """Execute this LF over example record files; write vote shards.

        The per-record reference the suite job is judged against: one map
        task per input shard calls :meth:`_vote` on each record, with the
        node-local model server when the pipeline declares one, and each
        task's votes become one :func:`write_lf_votes` shard. The LF is
        started for the job and stopped after it, whatever was running
        before: its resources and its server are down when ``run`` returns.
        """
        start = time.perf_counter()

        def block_mapper(records: list[dict]) -> tuple[list, np.ndarray]:
            examples = [Example.from_record(record) for record in records]
            votes = np.asarray([self._vote(example, service) for example in examples])
            ids = [example.example_id for example in examples]
            return ids, self._validate_votes(votes, len(examples))

        try:
            service = self.start()
            tasks = run_map_tasks(dfs, input_paths, block_mapper)
        finally:
            self.stop()

        counts = Counter()
        output_paths = []
        for index, blocks in enumerate(tasks):
            path = shard_name(output_base, index, len(tasks))
            ids = [eid for block_ids, _ in blocks for eid in block_ids]
            votes = np.concatenate([v for _, v in blocks] or [np.zeros(0, np.int8)])
            counts.update(votes.tolist())
            write_lf_votes(dfs, path, ids, votes)
            output_paths.append(path)
        return LFRunResult(
            lf_name=self.name,
            output_paths=output_paths,
            examples_seen=sum(counts.values()),
            votes_emitted=counts[1] + counts[-1],
            positives=counts[1],
            negatives=counts[-1],
            abstains=counts[ABSTAIN],
            wall_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # fast path used by the experiment harness
    # ------------------------------------------------------------------
    def vote_in_memory(self, example: Example) -> int:
        """Vote on one in-memory example, starting the LF if it is down.

        Benchmarks label hundreds of thousands of examples; going through
        DFS + MapReduce for each sweep would measure the simulator, not
        the method. The integration tests assert this fast path agrees
        with :meth:`run` exactly.
        """
        return self._vote(example, self.start())

    def label_batch(self, examples: Sequence[Example]) -> np.ndarray:
        """Vote on a block of in-memory examples; returns an ``int8`` array.

        This is the batched counterpart of :meth:`vote_in_memory`: it
        starts the LF if it is down, dispatches to :meth:`_vote_batch`
        (vectorized where the pipeline provides a kernel, per-example
        fallback otherwise), and validates the result. The equivalence
        suite asserts ``label_batch(xs) == [label(x) for x in xs]`` for
        every shipped LF.
        """
        examples = list(examples)
        votes = self._vote_batch(examples, self.start())
        return self._validate_votes(votes, len(examples))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    #: Offline services the LF queries (topic model, knowledge graph, ...);
    #: :meth:`start` brings them up and :meth:`stop` takes them down.
    resources: Sequence[ModelServer] = ()
    _local_service: ModelServer | None = None

    def start(self) -> ModelServer | None:
        """Bring the LF up (idempotent); returns its node-local server.

        Starts every resource that is not running, then builds and starts
        the server from :meth:`_node_service_factory` if none is live.
        Returns that server, or ``None`` when the pipeline launches none.
        Nothing is locked: a bulk run starts its LFs through
        :func:`repro.lf.applier.start_lf_resources` before any block is
        labelled, so threads that label blocks only ever find them up.
        """
        for resource in self.resources:
            if not resource.running:
                resource.start()
        factory = self._node_service_factory()
        if factory is not None and self._local_service is None:
            service = factory()
            service.start()
            self._local_service = service
        return self._local_service

    def stop(self) -> None:
        """Stop the LF's resources and stop and drop its node server."""
        for resource in self.resources:
            resource.stop()
        if self._local_service is not None:
            self._local_service.stop()
            self._local_service = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"category={self.info.category.value!r}, "
            f"servable={self.info.servable})"
        )
