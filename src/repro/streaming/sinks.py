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
sorted keys, fixed separators; arrays travel as their raw bytes).

* :class:`VoteSink` persists the raw LF votes per example — the
  streaming counterpart of the offline applier's vote shards.
* :class:`LabelSink` persists each batch's probabilistic labels as one
  block record: the batch's distinct posteriors as raw float64, and one
  small-integer index per example into them (a label model's posterior
  is a function of the vote pattern, so a batch holds few distinct
  values). The block carries no ids: row ``i`` of a label shard is row
  ``i`` of the same batch's vote shard under the same root, which the
  stream publishes first, so each example id is written once per batch.
  The labels come from a caller-supplied function of the batch's votes
  (typically the online label model's *current* posterior, i.e. the
  labels a downstream trainer consumed at that point in the stream).

:func:`read_votes` reads a vote shard back as ``(ids, int8 votes)``;
:func:`read_labels` reads a label shard back as ``(ids, posteriors)``,
taking the ids from the batch's vote shard, and also reads the two
layouts earlier writers used (a block carrying its own id column, and
one row per example), so a root resumed across writers reads back
whole.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import (
    RecordReader,
    RecordWriter,
    decode_ndarray,
    encode_ndarray,
    json_token,
    record_body,
)
from repro.types import Example, require_fields, require_int

__all__ = [
    "RecordBatchSink",
    "VoteSink",
    "LabelSink",
    "batch_shard_seq",
    "read_labels",
    "read_votes",
]

_BATCH_SHARD_RE = re.compile(r"/batch-(?P<seq>\d{6,})$")


def batch_shard_path(root: str, kind: str, seq: int) -> str:
    """The shard path of batch ``seq`` for the ``kind`` sink under ``root``."""
    return f"{root}/{kind}/batch-{seq:06d}"


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
        return batch_shard_path(self.root, self.kind, seq)

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
    the full label matrix. It is also the batch's one id column: the
    same batch's label shard takes its ids from here. :func:`read_votes`
    is the reader.
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
    """Persists each micro-batch's probabilistic labels as one block.

    ``proba_fn(votes) -> (B,) array`` supplies the labels — wired to the
    online label model's ``predict_proba`` this records the posterior the
    stream actually produced at batch time (which is what makes resumed
    and uninterrupted runs byte-comparable: the restored model yields the
    same bits).

    Shard layout: one record, ``{"kind": "labels", "batch", "n",
    "posteriors", "index"}``. ``posteriors`` is the batch's distinct
    labels as an encoded float64 array, sorted by bit pattern;
    ``index`` holds each example's position in it, as the narrowest of
    uint8 / uint16 / uint32 that fits. Labels are deduplicated on their
    float64 bits, so every value (``-0.0``, NaN payloads, subnormals)
    reads back bitwise. The block holds no ids: its row ``i`` is row
    ``i`` of the :class:`VoteSink` shard of the same batch under the
    same root, so a label shard reads back only beside that shard (run
    a ``VoteSink`` before this sink, as :class:`CheckpointedStream`
    does); :func:`read_labels` is the reader.
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
        """The batch's one block record.

        Raises:
            ValueError: If ``proba_fn`` returns the wrong shape.
        """
        proba = np.ascontiguousarray(self._proba_fn(votes), dtype=np.float64)
        if proba.shape != (len(examples),):
            raise ValueError(
                f"proba_fn returned shape {proba.shape} for a batch of "
                f"{len(examples)} examples"
            )
        bits, index = np.unique(proba.view(np.uint64), return_inverse=True)
        width = np.min_scalar_type(max(len(bits) - 1, 0))
        block = {
            "kind": "labels",
            "batch": seq,
            "n": len(examples),
            "posteriors": encode_ndarray(bits.view(np.float64)),
            "index": encode_ndarray(index.astype(width)),
        }
        return [record_body(block)]


def read_votes(dfs: DistributedFileSystem, path: str) -> tuple[list, np.ndarray]:
    """One :class:`VoteSink` shard's ``(example ids, votes)``, in stream
    order; the votes are an ``(n, len(lf_names))`` int8 matrix.

    Raises:
        ValueError: If ``path`` is not a batch shard path or holds no
            shard, the first record is not a vote meta (``kind: "meta"``
            with ``batch``, ``lf_names`` and ``n``), the meta's batch is
            not the path's sequence number, the shard holds other than
            ``n`` rows, or a row misses a field, is not ``len(lf_names)``
            votes wide or holds a vote outside ``{-1, 0, 1}``.
        RecordCorruption: If a record fails its CRC or framing check.
    """
    seq = batch_shard_seq(path)
    if seq is None:
        raise ValueError(f"{path} is not a batch shard path")
    if not dfs.exists(path):
        raise ValueError(f"no vote shard at {path}")
    records = iter(RecordReader(dfs, path))
    meta = require_fields(
        next(records, None), f"first record of {path}", ("kind", "batch", "lf_names", "n")
    )
    if meta["kind"] != "meta":
        raise ValueError(f"{path} is not a vote shard: kind {meta['kind']!r}")
    batch = require_int(meta["batch"], "batch", minimum=0)
    if batch != seq:
        raise ValueError(f"{path} holds batch {batch}, its name says {seq}")
    n = require_int(meta["n"], "n", minimum=0)
    if not isinstance(meta["lf_names"], list):
        raise ValueError(f"{path} lf_names are not a list")
    width = len(meta["lf_names"])
    ids, rows = [], []
    for record in records:
        row = require_fields(record, f"vote row of {path}", ("example_id", "votes"))
        votes = row["votes"]
        if type(votes) is not list or len(votes) != width:
            raise ValueError(f"{path} holds a vote row that is not {width} votes wide")
        if not all(type(vote) is int and -1 <= vote <= 1 for vote in votes):
            raise ValueError(f"{path} holds a vote outside {{-1, 0, 1}}")
        ids.append(row["example_id"])
        rows.append(votes)
    if len(rows) != n:
        raise ValueError(f"{path} holds {len(rows)} vote rows, its meta says {n}")
    return ids, np.array(rows, dtype=np.int8).reshape(n, width)


def read_labels(dfs: DistributedFileSystem, path: str) -> tuple[list, np.ndarray]:
    """One label shard's ``(example ids, posteriors)``, in stream order.

    Reads a :class:`LabelSink` block (first record ``kind: "labels"``),
    taking its ids from the same batch's vote shard through
    :func:`read_votes`: the label shard must sit at
    ``{root}/labels/batch-N`` and its vote shard at
    ``{root}/votes/batch-N``. Also reads the layouts earlier writers
    used: a block carrying its own ``ids`` column, and a ``kind:
    "meta"`` record followed by one ``{"example_id", "proba"}`` record
    per example, so a root resumed across writers reads back whole.

    Raises:
        ValueError: If the shard is empty, of another kind, or malformed
            (a missing field, an id or index count that is not ``n``, an
            index past the posterior table, or a record after the
            block), or if a block without ids is not at a label shard
            path, its batch is not the path's, or its vote shard is
            missing or malformed (see :func:`read_votes`).
        RecordCorruption: If a record fails its CRC or framing check.
    """
    records = iter(RecordReader(dfs, path))
    first = require_fields(next(records, None), f"first record of {path}", ("kind",))
    if first["kind"] == "meta":
        rows = [
            require_fields(row, f"label row of {path}", ("example_id", "proba"))
            for row in records
        ]
        n = require_int(first.get("n"), "n", minimum=0)
        if len(rows) != n:
            raise ValueError(f"{path} holds {len(rows)} label rows, its meta says {n}")
        try:
            proba = np.array([row["proba"] for row in rows], dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise ValueError(f"{path} holds a non-numeric proba: {error!r}") from error
        return [row["example_id"] for row in rows], proba
    if first["kind"] != "labels":
        raise ValueError(f"{path} is not a label shard: kind {first['kind']!r}")
    block = require_fields(
        first, f"label block of {path}", ("batch", "n", "posteriors", "index")
    )
    batch = require_int(block["batch"], "batch", minimum=0)
    n = require_int(block["n"], "n", minimum=0)
    table = decode_ndarray(block["posteriors"])
    index = decode_ndarray(block["index"])
    if table.dtype != np.float64 or table.ndim != 1:
        raise ValueError(f"{path} posteriors are {table.dtype} {table.shape}, not 1-D float64")
    if index.dtype.kind != "u" or index.shape != (n,) or (n and index.max() >= len(table)):
        raise ValueError(f"{path} needs {n} unsigned indices into {len(table)} posteriors")
    if next(records, None) is not None:
        raise ValueError(f"{path} holds a record after its label block")
    ids = block["ids"] if "ids" in block else _vote_shard_ids(dfs, path, batch)
    if not isinstance(ids, list) or len(ids) != n:
        raise ValueError(f"{path} needs a list of {n} ids")
    return ids, table[index]


def _vote_shard_ids(dfs: DistributedFileSystem, path: str, batch: int) -> list:
    """The ids of the vote shard beside label shard ``path`` of ``batch``."""
    seq = batch_shard_seq(path)
    root = path[: path.rfind(f"/{LabelSink.kind}/")]
    if seq is None or path != batch_shard_path(root, LabelSink.kind, seq):
        raise ValueError(f"{path} is not a label shard path, so its block has no vote shard")
    if batch != seq:
        raise ValueError(f"{path} holds batch {batch}, its name says {seq}")
    return read_votes(dfs, batch_shard_path(root, VoteSink.kind, seq))[0]
