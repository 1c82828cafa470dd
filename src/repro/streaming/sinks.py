"""Durable sinks: micro-batch outputs persisted to DFS record shards.

A sink is a callable the pipeline invokes once per finalized micro-batch
(``sink(seq, examples, votes)``), on the calling thread, in batch order,
while the batch's records still count as resident. The sinks here make
the stream's outputs *durable*: each batch becomes one finalized record
shard under the sink's root, written through the DFS stage-then-publish
path so a crash mid-batch leaves no partial shard visible — a reader
sees either the whole batch or nothing (the invariant crash-resume is
built on).

Shard-per-batch is deliberate: batch ``seq`` maps to exactly one file
(``{root}/{kind}/batch-{seq:06d}``), so recovery can reason about what
is durable by listing file names alone, and re-labeling a batch after a
crash rewrites byte-identical shards (record encoding is deterministic:
sorted keys, fixed separators).

* :class:`VoteSink` persists the raw LF votes per example — the
  streaming counterpart of the offline applier's vote shards.
* :class:`LabelSink` persists probabilistic labels per example, computed
  by a caller-supplied function from the batch's votes (typically the
  online label model's *current* posterior, i.e. the labels a downstream
  trainer consumed at that point in the stream).
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import RecordWriter, json_token, record_body
from repro.types import Example

__all__ = ["RecordBatchSink", "VoteSink", "LabelSink", "batch_shard_seq"]

#: json's tokens for the floats whose ``repr`` is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_BATCH_SHARD_RE = re.compile(r"/batch-(?P<seq>\d{6,})$")


def batch_shard_seq(path: str) -> int | None:
    """Parse the batch sequence number out of a sink shard path."""
    match = _BATCH_SHARD_RE.search(path)
    return None if match is None else int(match.group("seq"))


class RecordBatchSink:
    """Base class: one finalized record shard per micro-batch."""

    #: Subdirectory under the sink root; also the default counter name.
    kind = "batch"

    def __init__(
        self, dfs: DistributedFileSystem, root: str, name: str | None = None
    ) -> None:
        self._dfs = dfs
        self.root = root.rstrip("/")
        self.name = name or self.kind
        self.shards_written = 0
        self.records_written = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def shard_path(self, seq: int) -> str:
        """The canonical shard path for batch ``seq`` under this sink."""
        return f"{self.root}/{self.kind}/batch-{seq:06d}"

    def batch_bodies(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> list[bytes]:
        """The :func:`~repro.dfs.records.record_body` bytes of each
        record of one batch's shard (subclass hook); runs before the
        shard is staged, so a batch it rejects leaves nothing behind.

        Args:
            seq: Batch sequence number.
            examples: The batch's examples, stream-ordered.
            votes: The batch's ``(B, m)`` vote matrix.

        Raises:
            NotImplementedError: Always, on the base class.
        """
        raise NotImplementedError

    def __call__(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> None:
        bodies = self.batch_bodies(seq, examples, votes)
        with RecordWriter(self._dfs, self.shard_path(seq)) as writer:
            for body in bodies:
                writer.write_body(body)
            written = writer.records_written
        self.shards_written += 1
        self.records_written += written

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def existing_shards(self) -> list[str]:
        """Finalized shards under this sink's root, in batch order.

        Ordered by the parsed batch number: shard names outgrow their
        6-digit zero padding at batch 1,000,000, where lexicographic
        order would interleave 7-digit and 6-digit names.
        """
        matched = [
            (seq, path)
            for path in self._dfs.list(f"{self.root}/{self.kind}/")
            if (seq := batch_shard_seq(path)) is not None
        ]
        return [path for _, path in sorted(matched)]

    def delete_after(self, seq: int) -> list[str]:
        """Delete shards for batches newer than ``seq``; returns them.

        Recovery truncation: a crash between a shard's finalize and the
        next checkpoint leaves *orphan* shards the manifest knows nothing
        about. They are deleted (not trusted) so the resumed stream
        rewrites them from the restored state — byte-identical, but
        provably derived from checkpointed state rather than assumed.
        """
        orphans = [
            path
            for path in self.existing_shards()
            if (parsed := batch_shard_seq(path)) is not None and parsed > seq
        ]
        for path in orphans:
            self._dfs.delete(path)
        return orphans


class VoteSink(RecordBatchSink):
    """Persists each micro-batch's LF votes as one record shard.

    Shard layout: a meta record (batch seq, LF names, row count) followed
    by one ``{"example_id", "votes"}`` record per example, in stream
    order — self-describing enough that the shard set alone reconstructs
    the full label matrix.
    """

    kind = "votes"

    def __init__(
        self,
        dfs: DistributedFileSystem,
        root: str,
        lf_names: list[str],
        name: str | None = None,
    ) -> None:
        super().__init__(dfs, root, name)
        self.lf_names = list(lf_names)

    def batch_bodies(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> list[bytes]:
        """One meta record, then ``{example_id, votes}`` per example;
        each distinct vote row is encoded once, as its records' tail.

        Raises:
            ValueError: If ``votes`` is not ``(len(examples), len(lf_names))``.
        """
        shape = (len(examples), len(self.lf_names))
        if np.shape(votes) != shape:
            raise ValueError(f"votes of shape {np.shape(votes)} for (examples, LFs) = {shape}")
        meta = {"kind": "meta", "batch": seq, "lf_names": self.lf_names, "n": shape[0]}
        bodies, tails = [record_body(meta)], {}
        for example, row in zip(examples, votes.tolist()):
            tail = tails.get(key := tuple(row))
            if tail is None:
                tail = tails[key] = b"," + record_body({"votes": row})[1:]
            bodies.append(b'{"example_id":' + json_token(example.example_id).encode() + tail)
        return bodies


class LabelSink(RecordBatchSink):
    """Persists per-example probabilistic labels for each micro-batch.

    ``proba_fn(votes) -> (B,) array`` supplies the labels — wired to the
    online label model's ``predict_proba`` this records the posterior the
    stream actually produced at batch time (which is what makes resumed
    and uninterrupted runs byte-comparable: the restored model yields the
    same bits).
    """

    kind = "labels"

    def __init__(
        self,
        dfs: DistributedFileSystem,
        root: str,
        proba_fn: Callable[[np.ndarray], np.ndarray],
        name: str | None = None,
    ) -> None:
        super().__init__(dfs, root, name)
        self._proba_fn = proba_fn

    def batch_bodies(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> list[bytes]:
        """One meta record, then ``{example_id, proba}`` per example.

        Raises:
            ValueError: If ``proba_fn`` returns the wrong shape.
        """
        proba = np.asarray(self._proba_fn(votes), dtype=np.float64)
        if proba.shape != (len(examples),):
            raise ValueError(
                f"proba_fn returned shape {proba.shape} for a batch of "
                f"{len(examples)} examples"
            )
        bodies = [record_body({"kind": "meta", "batch": seq, "n": len(examples)})]
        for example, p in zip(examples, proba.tolist()):
            token, eid = _NON_FINITE.get(r := float.__repr__(p), r), example.example_id
            bodies.append(f'{{"example_id":{json_token(eid)},"proba":{token}}}'.encode())
        return bodies
