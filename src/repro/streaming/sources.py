"""Example sources for the micro-batch streaming pipeline.

A source is anything iterable over :class:`repro.types.Example` — the
pipeline assembles micro-batches from the iterator, so sources stay
trivially composable (a generator over a socket would work the same
way). Two concrete sources cover the repository's needs:

* :class:`RecordStreamSource` — replays staged DFS record shards with
  true incremental reads: each shard streams through
  :class:`repro.dfs.records.RecordReader` chunk by chunk, so an
  arbitrarily large shard set is ingested at O(chunk + one record)
  memory in the source itself (the pipeline's admission control bounds
  the decoded records downstream).
* :class:`MemorySource` — an in-memory replay source for tests and
  benchmarks. Every pass re-yields the same Example objects: labeling
  reads an Example and never writes to it, so a second pass sees
  exactly what the first did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import (
    DEFAULT_READ_CHUNK,
    stream_records_with_offsets,
)
from repro.types import Example

__all__ = [
    "ExampleSource",
    "SourceCursor",
    "RecordStreamSource",
    "MemorySource",
    "iter_example_batches",
]


@dataclass(frozen=True)
class SourceCursor:
    """A resumable position inside a shard set: *seek here, read on*.

    ``shard`` indexes the source's path list; ``offset`` is the absolute
    byte offset of the next unread record within that shard (record
    framing is length-prefixed, so offsets land exactly on record
    boundaries). Checkpoint manifests persist these two integers so a
    resumed stream decodes O(1) work past the cursor instead of
    re-decoding and discarding every consumed example.
    """

    shard: int
    offset: int

    def as_meta(self) -> dict[str, int]:
        """Manifest-friendly encoding (plain ints, schema-stable)."""
        return {"cursor_shard": self.shard, "cursor_offset": self.offset}

    @classmethod
    def from_meta(cls, meta: dict) -> "SourceCursor | None":
        """Inverse of :meth:`as_meta`; ``None`` when the manifest has no
        stored position (pre-cursor manifests)."""
        if "cursor_shard" not in meta or "cursor_offset" not in meta:
            return None
        return cls(int(meta["cursor_shard"]), int(meta["cursor_offset"]))


class ExampleSource(Protocol):
    """Anything that can be iterated for examples, possibly many times."""

    def __iter__(self) -> Iterator[Example]: ...


class RecordStreamSource:
    """Streams examples out of finalized DFS record shards.

    Iteration opens one shard at a time and decodes records through the
    chunked reader — no whole-shard blobs, no upfront materialization.
    Reiterable: each ``iter()`` starts a fresh pass over the shard set.

    The source is also *seekable*: :meth:`iter_with_cursor` reports a
    :class:`SourceCursor` alongside every example and accepts one to
    start mid-stream, seeking the chunked reader straight to the stored
    byte offset. This closes the resume-replay gap — a checkpointed
    stream restarts by decoding only unconsumed records, not by
    re-decoding and discarding the whole consumed prefix.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        paths: Sequence[str],
        chunk_size: int = DEFAULT_READ_CHUNK,
    ) -> None:
        self._dfs = dfs
        self._paths = list(paths)
        self._chunk_size = chunk_size

    def __iter__(self) -> Iterator[Example]:
        for example, _ in self.iter_with_cursor():
            yield example

    def iter_from(self, cursor: SourceCursor | None) -> Iterator[Example]:
        """Examples strictly after ``cursor`` (all of them for ``None``)."""
        for example, _ in self.iter_with_cursor(cursor):
            yield example

    def iter_with_cursor(
        self, start: SourceCursor | None = None
    ) -> Iterator[tuple[Example, SourceCursor]]:
        """Yield ``(example, cursor-after-it)`` pairs from ``start``.

        The yielded cursor names the position *after* the example, i.e.
        the exact argument a later call needs to continue with the next
        record. A ``start`` at a shard's EOF is equivalent to the next
        shard's offset 0.
        """
        first_shard = 0 if start is None else start.shard
        if first_shard < 0 or first_shard > len(self._paths):
            raise ValueError(
                f"cursor shard {first_shard} out of range for "
                f"{len(self._paths)} shards"
            )
        for index in range(first_shard, len(self._paths)):
            path = self._paths[index]
            # open_read stats the file, so missing shards fail fast here.
            handle = self._dfs.open_read(path)
            try:
                if start is not None and index == first_shard and start.offset:
                    if start.offset > handle.size:
                        raise ValueError(
                            f"cursor offset {start.offset} beyond {path} "
                            f"({handle.size} bytes)"
                        )
                    handle.seek(start.offset)
                for record, end in stream_records_with_offsets(
                    handle, self._chunk_size
                ):
                    yield Example.from_record(record), SourceCursor(index, end)
            finally:
                handle.close()


class MemorySource:
    """Replays an in-memory example list, the same objects every pass."""

    def __init__(self, examples: Sequence[Example]) -> None:
        self._examples = list(examples)

    def __len__(self) -> int:
        return len(self._examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self._examples)


def iter_example_batches(
    source: Iterable[Example], batch_size: int
) -> Iterator[list[Example]]:
    """Assemble a flat example iterator into micro-batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    batch: list[Example] = []
    for example in source:
        batch.append(example)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
