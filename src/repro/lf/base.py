"""``AbstractLabelingFunction``: the root of the template library.

Section 5.1: "We achieve this by implementing an AbstractLabelingFunction
class that handles all input and output to Google's distributed
filesystem. Each subclass defines a MapReduce pipeline, with class
template slots for functions to be executed within the pipeline."

The reproduction follows the same contract:

* :meth:`run` is the whole "labeling function binary": it reads example
  records from the DFS, calls :meth:`_vote` on each one in one map task
  per input shard (:func:`repro.mapreduce.run_map_tasks`), and writes one
  vote record per non-abstaining example to its own sharded output —
  LFs never share state except through the filesystem (Section 5.4's
  loosely-coupled design). It is the per-record reference
  :meth:`repro.lf.applier.LFApplier.apply_per_lf` runs; ``apply`` labels
  the whole suite in one job through :meth:`label_batch` and writes the
  same shards.
* Subclasses override :meth:`_node_service_factory` (which model server,
  if any, to launch per compute node) and :meth:`_vote` (the per-example
  slot an engineer writes). That server is one local service per LF,
  brought up by :meth:`start_local_service`; :meth:`run` brings it up
  once per job and stops it afterwards.

Vote records have the shape ``{"key": example_id, "value": vote}`` with
``vote in {-1, +1}`` (abstains are simply not written; the join treats
missing ids as abstain, exactly like sparse vote files at Google scale).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.dfs.filesystem import DistributedFileSystem, shard_name
from repro.dfs.records import RecordWriter
from repro.mapreduce.runner import run_map_tasks
from repro.lf.registry import LFInfo
from repro.services.base import ModelServer
from repro.types import ABSTAIN, Example

__all__ = ["AbstractLabelingFunction", "LFRunResult", "VALID_VOTES"]

#: The only legal votes in the binary setting (Section 5.1's ``LFVote``).
VALID_VOTES = (-1, 0, 1)


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
        if self.examples_seen == 0:
            return 0.0
        return self.votes_emitted / self.examples_seen


class AbstractLabelingFunction:
    """Base class handling DFS I/O and MapReduce execution."""

    def __init__(self, info: LFInfo) -> None:
        self.info = info

    @property
    def name(self) -> str:
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
        node-local model server when the pipeline declares one (its local
        service, up once for the job and stopped after it), and each task's
        non-abstaining votes become one ``{"key", "value"}`` shard.
        """
        start = time.perf_counter()
        service = self.start_local_service()

        def block_mapper(records: list[dict]) -> tuple[list, list[int]]:
            examples = [Example.from_record(record) for record in records]
            votes = np.asarray([self._vote(example, service) for example in examples])
            ids = [example.example_id for example in examples]
            return ids, self._validate_votes(votes, len(examples)).tolist()

        try:
            tasks = run_map_tasks(dfs, input_paths, block_mapper)
        finally:
            self.close_local_service()

        counts = Counter()
        output_paths = []
        for index, blocks in enumerate(tasks):
            path = shard_name(output_base, index, len(tasks))
            with RecordWriter(dfs, path) as writer:
                for ids, votes in blocks:
                    counts.update(votes)
                    for key, vote in zip(ids, votes):
                        if vote != ABSTAIN:
                            writer.write({"key": key, "value": vote})
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
        """Vote on one in-memory example, managing any service locally.

        Benchmarks label hundreds of thousands of examples; going through
        DFS + MapReduce for each sweep would measure the simulator, not
        the method. The integration tests assert this fast path agrees
        with :meth:`run` exactly.
        """
        return self._vote(example, self.start_local_service())

    def label_batch(self, examples: Sequence[Example]) -> np.ndarray:
        """Vote on a block of in-memory examples; returns an ``int8`` array.

        This is the batched counterpart of :meth:`vote_in_memory`: it
        manages any node-local service, dispatches to :meth:`_vote_batch`
        (vectorized where the pipeline provides a kernel, per-example
        fallback otherwise), and validates the result. The equivalence
        suite asserts ``label_batch(xs) == [label(x) for x in xs]`` for
        every shipped LF.
        """
        examples = list(examples)
        votes = self._vote_batch(examples, self.start_local_service())
        return self._validate_votes(votes, len(examples))

    _local_service: ModelServer | None = None

    def start_local_service(self) -> ModelServer | None:
        """This LF's local model server, built and started on first call.

        ``None`` when the pipeline launches no server. The check is not
        locked: a bulk run starts the server through
        :func:`repro.lf.applier.start_lf_resources` before any block is
        labelled, so threads that label blocks only ever find it running.
        """
        factory = self._node_service_factory()
        if factory is not None and self._local_service is None:
            service = factory()
            service.start()
            self._local_service = service
        return self._local_service

    def close_local_service(self) -> None:
        if self._local_service is not None:
            self._local_service.stop()
            self._local_service = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"category={self.info.category.value!r}, "
            f"servable={self.info.servable})"
        )
