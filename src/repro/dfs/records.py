"""Record-file serialization for the distributed filesystem.

Google's MapReduce pipelines exchange data as record files (SSTable /
RecordIO). The LF template library reads unlabeled-example records and
writes vote records; the generative model reads the votes back. We
reproduce a minimal length-prefixed record format with CRC integrity
checks so corrupt shards are detected rather than silently mis-parsed
(exercised by the failure-injection tests).

Format per record::

    [4-byte big-endian length][4-byte big-endian CRC32][payload]

Payloads are JSON (UTF-8). JSON keeps records language-neutral, matching
the paper's loosely-coupled architecture in which labeling functions are
independent executables.

What a record costs: every durable byte (input, vote and label shards,
manifests, trace shards) passes here. *Encode* is one per-thread C JSON
encoder, built once, or a row template filled by :func:`json_token`;
*append* is one locked DFS call per :data:`DEFAULT_READ_CHUNK` bytes a
:class:`RecordWriter` buffers, plus one at close; *decode* parses each
body sliced from the chunk just read with ``orjson.loads``. json's
``JSONDecoder.decode`` parses a body instead when it holds a run of 19
or more digits (orjson turns an integer outside ``[-2**63, 2**64)``,
such as the 128-bit PCG64 ``rng_state`` words schema-5 and earlier
label-model manifests carry, into a float) or when orjson refuses
it (``NaN`` / ``Infinity``, which label shards of the per-example row
layout hold, ``1e400``, a lone surrogate, bad UTF-8 or malformed JSON), so every value, type and
error is json's. The one exception is nesting json's recursion limit
refuses, which orjson decodes; :func:`record_body` cannot write it.
"""

from __future__ import annotations

import base64
import json
import struct
import threading
import zlib
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable, Iterator

import numpy as np
import orjson

from repro.dfs.filesystem import DistributedFileSystem

__all__ = [
    "RecordWriter",
    "RecordReader",
    "RecordCorruption",
    "write_records",
    "read_records",
    "stream_records",
    "stream_records_with_offsets",
    "iter_record_blobs",
    "encode_ndarray",
    "decode_ndarray",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_READ_CHUNK",
]

#: Default chunk size for block iteration; large enough to amortize
#: per-call Python overhead, small enough to keep a block resident in
#: cache alongside its decoded payloads.
DEFAULT_BLOCK_SIZE = 1024

#: Bytes per positional read while streaming, and per buffered writer
#: append. Peak reader memory is one chunk plus one in-flight record,
#: regardless of shard size.
DEFAULT_READ_CHUNK = 256 * 1024

_HEADER = struct.Struct(">II")

#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``'s
#: settings; its own ``encode`` runs only to re-raise a failed encode.
_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
#: Each thread's C encoder: its ``markers`` dict is per-encode scratch.
_THREAD = threading.local()
_DECODE_JSON = json.JSONDecoder().decode
#: Maps every nonzero ASCII digit to ``0``, so a body holds a run of 19
#: digits exactly when its translation holds :data:`_DIGIT_RUN`.
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"0" * 9)
#: The shortest digit run that can spell an integer outside
#: ``[-2**63, 2**64)``, which orjson decodes as a ``float``.
_DIGIT_RUN = b"0" * 19


class RecordCorruption(Exception):
    """Raised when a record fails its CRC or framing check."""


def record_body(payload: dict[str, Any]) -> bytes:
    """One record's JSON body, unframed.

    The body, and the error for a payload json cannot encode, are
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``'s.
    """
    try:
        encoder = _THREAD.encoder
    except AttributeError:
        # The C encoder ``_JSON.encode`` would build, with its arguments.
        encoder = _THREAD.encoder = c_make_encoder(
            {}, _JSON.default, encode_basestring_ascii, _JSON.indent,
            _JSON.key_separator, _JSON.item_separator, _JSON.sort_keys,
            _JSON.skipkeys, _JSON.allow_nan,
        )
    try:
        return "".join(encoder(payload, 0)).encode("utf-8")
    except Exception:
        # A failed encode leaves ids in ``markers`` (false cycles later):
        # drop this encoder and let the stock one raise json's own error.
        del _THREAD.encoder
        return _JSON.encode(payload).encode("utf-8")


def json_token(value: Any) -> str:
    """``value``'s JSON as :func:`record_body` writes it in a payload."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # the C encoder's own escaper
    return record_body(value).decode()


def _frame(body: bytes) -> bytes:
    """Prefix one body with its length and CRC."""
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_record(payload: dict[str, Any]) -> bytes:
    """Frame one JSON payload (:func:`record_body`) with length and CRC."""
    return _frame(record_body(payload))


def encode_ndarray(array: np.ndarray) -> dict[str, Any]:
    """JSON-safe, *bit-exact* encoding of a NumPy array.

    Checkpoint manifests must restore model state to the byte — a
    float64 that drifts in the last ulp breaks the resumed-run ==
    uninterrupted-run guarantee — so arrays travel as base64 of their
    raw buffer plus dtype/shape, never as decimal strings.
    """
    array = np.ascontiguousarray(array)
    return {
        "__ndarray__": base64.b64encode(array.tobytes()).decode("ascii"),
        "dtype": str(array.dtype),
        "shape": list(array.shape),
    }


def decode_ndarray(payload: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_ndarray`; returns a writable array.

    Raises:
        ValueError: If ``payload`` is not an encoded array: not a dict,
            no base64 ``__ndarray__``, an unknown ``dtype``, or a
            ``shape`` its bytes do not fill.
    """
    try:
        raw = base64.b64decode(payload["__ndarray__"])
        array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return array.reshape(payload["shape"]).copy()
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"not an encoded array: {error!r}") from error


class RecordWriter:
    """Streams records into one staged DFS file.

    Usable as a context manager; the file only becomes visible to readers
    when the writer exits cleanly (finalize-on-close), reproducing the
    write-once publish semantics LF binaries depend on. When
    ``final_path`` is given, records are staged under ``path`` and
    atomically renamed to ``final_path`` on close (write-then-rename) —
    the checkpoint-manifest idiom where the canonical name must never
    name a partial file.

    Records reach the staged file in one ``append`` per
    :data:`DEFAULT_READ_CHUNK` buffered bytes, plus one at close; staged
    files are invisible, so no reader can tell.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        path: str,
        final_path: str | None = None,
    ) -> None:
        self._dfs = dfs
        self._path = path
        self._final_path = final_path
        self._count = 0
        self._buffer = bytearray()
        self._open = True
        dfs.create(path)

    @property
    def final_path(self) -> str:
        """Where the records will be visible after a clean close."""
        return self._final_path or self._path

    def write(self, payload: dict[str, Any]) -> None:
        self.write_body(record_body(payload))

    def write_body(self, body: bytes) -> None:
        """Write one record from its :func:`record_body` bytes."""
        if not self._open:
            raise ValueError("writer already closed")
        self._buffer += _frame(body)
        self._count += 1
        if len(self._buffer) >= DEFAULT_READ_CHUNK:
            self._flush()

    def _flush(self) -> None:
        """Append the buffered records to the staged file, in one call."""
        data, self._buffer = self._buffer, bytearray()
        if data:
            self._dfs.append(self._path, data)

    def close(self) -> None:
        if self._open:
            self._flush()
            if self._final_path is not None:
                self._dfs.finalize_as(self._path, self._final_path)
            else:
                self._dfs.finalize(self._path)
            self._open = False

    def abandon(self) -> None:
        """Discard the staged file (simulates a crashed writer)."""
        if self._open:
            self._buffer = bytearray()
            self._dfs.abandon(self._path)
            self._open = False

    @property
    def records_written(self) -> int:
        return self._count

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abandon()


def stream_records_with_offsets(
    handle, chunk_size: int = DEFAULT_READ_CHUNK
) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(payload, end_offset)`` from a sequential read handle.

    ``end_offset`` is the absolute file offset one byte past the record
    just yielded — i.e. where the *next* record's header starts. This is
    the primitive behind source-side resume cursors: a reader that
    ``seek``s a handle to a previously reported ``end_offset`` decodes
    exactly the remaining records, no replay. Decoding starts at the
    handle's current position, so a seeked handle works transparently.

    Bytes are pulled ``chunk_size`` at a time and each body is sliced
    out of the chunk that holds it; a record crossing a chunk boundary
    joins the chunk's tail to the next read. So peak memory is one chunk
    plus one in-flight record no matter how large the shard is. The
    record sequence (and every corruption diagnostic) is identical to
    whole-blob decoding.
    """
    if chunk_size < _HEADER.size:
        raise ValueError(
            f"chunk_size must be >= {_HEADER.size}, got {chunk_size}"
        )
    header = _HEADER.size
    total = handle.size
    chunk, pos = b"", 0
    offset = handle.tell()  # the file offset of chunk[pos]

    def _fill(needed: int) -> bool:
        """Restart ``chunk`` at ``pos`` holding ``needed`` bytes; False at EOF."""
        nonlocal chunk, pos
        chunk, pos = chunk[pos:], 0
        while len(chunk) < needed:
            more = handle.read(max(chunk_size, needed - len(chunk)))
            if not more:
                return False
            chunk += more
        return True

    while True:
        if len(chunk) - pos < header and not _fill(header):
            if not chunk:
                return
            raise RecordCorruption(f"truncated header at offset {offset} of {total}")
        length, crc = _HEADER.unpack_from(chunk, pos)
        if pos + header + length > len(chunk):
            if offset + header + length > total or not _fill(header + length):
                raise RecordCorruption(
                    f"record of {length} bytes overruns file (offset {offset + header})"
                )
        body = chunk[pos + header:pos + header + length]
        pos += header + length
        offset += header + length
        if zlib.crc32(body) != crc:
            raise RecordCorruption(f"CRC mismatch at offset {offset - length}")
        yield _decode_body(body), offset


def _decode_body(body: bytes) -> Any:
    """One record body's value: json's value, type and error."""
    if _DIGIT_RUN not in body.translate(_DIGITS_TO_ZERO):
        try:
            return orjson.loads(body)
        except orjson.JSONDecodeError:
            pass  # NaN, +-Infinity, 1e400, a lone surrogate, bad bytes
    return _DECODE_JSON(body.decode("utf-8"))


def stream_records(
    handle, chunk_size: int = DEFAULT_READ_CHUNK
) -> Iterator[dict[str, Any]]:
    """Yield payloads from a sequential read handle, verifying CRCs
    (:func:`stream_records_with_offsets` without the offsets)."""
    return (payload for payload, _ in stream_records_with_offsets(handle, chunk_size))


class RecordReader:
    """Iterates records from one finalized DFS file.

    Reads stream through a :class:`repro.dfs.filesystem.DFSReadHandle` in
    ``chunk_size`` slices — the reader never materializes the shard blob,
    so iterating an arbitrarily large file holds one chunk plus one
    record in memory (the streaming subsystem and the MapReduce mappers
    both depend on this bound). A reader is reiterable; each iteration
    opens a fresh handle.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        path: str,
        chunk_size: int = DEFAULT_READ_CHUNK,
    ) -> None:
        self._dfs = dfs
        self._path = path
        self._chunk_size = chunk_size
        dfs.size(path)  # fail fast on a missing file

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return stream_records(self._dfs.open_read(self._path), self._chunk_size)

    def iter_blocks(
        self, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Iterator[list[dict[str, Any]]]:
        """Yield records in lists of up to ``block_size``.

        The batched mapper path amortizes per-record dispatch over a
        block; record order (so output bytes) is one-at-a-time's.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        records = iter(self)
        while block := list(islice(records, block_size)):
            yield block


def write_records(
    dfs: DistributedFileSystem, path: str, payloads: Iterable[dict[str, Any]]
) -> int:
    """Write an iterable of payloads to one file; returns record count."""
    with RecordWriter(dfs, path) as writer:
        for payload in payloads:
            writer.write(payload)
        return writer.records_written


def read_records(dfs: DistributedFileSystem, path: str) -> list[dict[str, Any]]:
    """Read all records from one file."""
    return list(RecordReader(dfs, path))


def iter_record_blobs(
    dfs: DistributedFileSystem, paths: Iterable[str]
) -> Iterator[dict[str, Any]]:
    """Iterate records across many files (e.g. a whole shard set).

    Despite the historical name, each shard streams in bounded chunks,
    so a consumer holds O(1) file bytes whatever the shard set's size.
    """
    for path in paths:
        yield from RecordReader(dfs, path)
