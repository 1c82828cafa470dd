"""Tests for record-file serialization."""

import json
import struct
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dfs.filesystem import DFSError, DistributedFileSystem, FileNotFound
from repro.dfs.records import (
    DEFAULT_READ_CHUNK,
    RecordCorruption,
    RecordReader,
    RecordWriter,
    encode_ndarray,
    encode_record,
    iter_record_blobs,
    read_records,
    record_body,
    stream_records,
    stream_records_with_offsets,
    write_records,
)
from repro.lf.applier import _write_vote_block
from repro.streaming.sinks import LabelSink, VoteSink, read_labels
from repro.types import Example

from tests.conftest import decode_records


def dumps(payload):
    """The stock call the record encoder must match, byte for byte."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def record_ends(blob):
    """File offset one past each record of a well-formed blob."""
    ends, offset = [], 0
    while offset < len(blob):
        offset += 8 + int.from_bytes(blob[offset:offset + 4], "big")
        ends.append(offset)
    return ends


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [1e16, 5e-324, -0.0, 0.1 + 0.2, float("nan"), float("inf"), -float("inf")]
    ),
    st.text(max_size=12),
    st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f\x7f', "ünï-çødé/例-7", "\u2028\ud800😀"]),
    st.lists(st.integers(-1, 1), max_size=10).map(
        lambda row: np.asarray(row, dtype=np.int8).tolist()
    ),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=16,
)

#: Values json cannot encode, built inside the payload they poison.
UNENCODABLE = {
    "set": lambda payload: {1, 2},
    "object": lambda payload: object(),
    "circular": lambda payload: payload,
}


class TestFraming:
    def test_single_record_round_trip(self):
        blob = encode_record({"a": 1, "b": "x"})
        assert list(decode_records(blob)) == [{"a": 1, "b": "x"}]

    def test_multiple_records_round_trip(self):
        blob = encode_record({"i": 0}) + encode_record({"i": 1})
        assert [r["i"] for r in decode_records(blob)] == [0, 1]

    def test_truncated_header_detected(self):
        blob = encode_record({"a": 1})
        # Two stray bytes after a valid record cannot hold a header.
        with pytest.raises(RecordCorruption, match="truncated"):
            list(decode_records(blob + b"\x00\x00"))

    def test_overrun_length_detected(self):
        blob = encode_record({"a": 1})
        with pytest.raises(RecordCorruption):
            list(decode_records(blob[: len(blob) // 2]))

    def test_bit_flip_detected_by_crc(self):
        blob = bytearray(encode_record({"key": "value"}))
        blob[-2] ^= 0xFF
        with pytest.raises(RecordCorruption, match="CRC"):
            list(decode_records(bytes(blob)))

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=20), st.booleans()),
            max_size=5,
        )
    )
    def test_any_json_payload_round_trips(self, payload):
        assert list(decode_records(encode_record(payload))) == [payload]

    @pytest.mark.parametrize(
        "payload",
        [
            {"key": "doc-00017", "value": -1},
            {"votes": [0, 1, -1, 0], "example_id": "ünï-çødé/例-7"},
            {"example_id": "x", "proba": 0.1 + 0.2},
            {"kind": "meta", "lf_names": ["b", "a"], "nested": {"z": None, "a": 1}},
        ],
    )
    def test_shared_encoder_writes_json_dumps_bytes(self, payload):
        """The module-level encoder must frame exactly what the
        per-record ``json.dumps`` call it replaced did."""
        body = json.dumps(
            payload, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        assert encode_record(payload)[8:] == body

    @given(st.dictionaries(st.text(max_size=8), json_values, max_size=5))
    def test_encoder_writes_json_dumps_bytes_for_any_value(self, payload):
        assert encode_record(payload)[8:] == dumps(payload).encode("utf-8")

    @pytest.mark.parametrize("kind", sorted(UNENCODABLE))
    def test_encode_errors_are_json_dumps_errors(self, kind):
        """Same exception type and text as ``json.dumps``, and a failed
        encode leaves the thread's encoder clean: the very objects it
        was encoding, once made encodable, encode with no false cycle."""
        for _ in range(2):  # the second pass runs after a failed encode
            payload = {"a": 1, "k": [0]}
            payload["k"].append(UNENCODABLE[kind](payload))
            with pytest.raises((TypeError, ValueError)) as ours:
                encode_record(payload)
            with pytest.raises((TypeError, ValueError)) as stock:
                dumps(payload)
            assert type(ours.value) is type(stock.value)
            assert str(ours.value) == str(stock.value)
            payload["k"][1] = None
            assert encode_record(payload)[8:] == dumps(payload).encode()

    def test_threads_encode_the_same_bytes(self):
        """Four threads encoding at once, with a payload object they all
        share and a failing encode every 50 records, each get exactly
        the stock bytes."""
        shared = {"lf_names": ["b", "a"], "n": 3}
        payloads = [
            {"example_id": f"ex-{i}", "votes": [i % 3 - 1] * 8, "meta": shared}
            for i in range(1500)
        ]
        expected = [dumps(p).encode() for p in payloads]
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(slot):
            barrier.wait(10.0)
            out = []
            for i, payload in enumerate(payloads):
                if i % 50 == 0:
                    with pytest.raises(TypeError):
                        encode_record({"meta": shared, "bad": {i}})
                out.append(encode_record(payload)[8:])
            results[slot] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(out == expected for out in results)


#: Characters an id must survive: JSON escapes, controls, non-ASCII,
#: astral, and lone surrogates of both halves.
NASTY_CHARS = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xa0\xfc\u4f8b\U0001f600\u2028\ud800\udbff\udc00\udfff'
ids = st.one_of(st.text(max_size=12), st.text(NASTY_CHARS, max_size=12))
#: The ids an ``Example`` takes: the same, less the surrogates it
#: refuses (hypothesis's default alphabet has none).
example_ids = st.one_of(
    st.text(max_size=12),
    st.text([c for c in NASTY_CHARS if not "\ud800" <= c <= "\udfff"], max_size=12),
    st.integers(),
)
probas = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308,
         1e16, 1e-7, 0.1 + 0.2]
    ),
)


@st.composite
def vote_batches(draw):
    """``(ids, votes)``: a ``(B, m)`` int8 batch, m in 0..12, rows drawn
    from a few patterns so rows repeat the way a real batch's do."""
    m = draw(st.integers(0, 12))
    row = st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m)
    patterns = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(patterns), max_size=12))
    batch_ids = draw(st.lists(example_ids, min_size=len(rows), max_size=len(rows)))
    return batch_ids, np.array(rows, dtype=np.int8).reshape(len(rows), m)


class TestTemplatedBodies:
    """Every row shape built from a template must be exactly the body
    ``record_body`` (so ``json.dumps``) gives for its payload."""

    @given(vote_batches())
    def test_vote_sink_rows(self, batch):
        batch_ids, votes = batch
        names = [f"lf{j}" for j in range(votes.shape[1])]
        sink = VoteSink(DistributedFileSystem(), "/s", names)
        bodies = sink.batch_bodies(4, [Example(eid) for eid in batch_ids], votes)
        expected = [{"kind": "meta", "batch": 4, "lf_names": names, "n": len(batch_ids)}]
        expected += [
            {"example_id": eid, "votes": row}
            for eid, row in zip(batch_ids, votes.tolist())
        ]
        assert bodies == [dumps(p).encode() for p in expected]
        assert bodies == [record_body(p) for p in expected]

    @given(st.lists(st.tuples(example_ids, probas), max_size=12))
    def test_label_sink_rows(self, rows):
        """A label block is ``record_body`` of its payload, and its rows
        read back with every posterior's bits (the table is deduplicated
        on bits, so ``-0.0`` and each NaN payload keep their own entry)."""
        proba = np.array([p for _, p in rows], dtype=np.float64)
        dfs = DistributedFileSystem()
        sink = LabelSink(dfs, "/s", lambda votes: proba)
        examples = [Example(eid) for eid, _ in rows]
        votes = np.zeros((len(rows), 0), np.int8)
        (body,) = sink.batch_bodies(2, examples, votes)
        bits, index = np.unique(proba.view(np.uint64), return_inverse=True)
        expected = {
            "kind": "labels",
            "batch": 2,
            "n": len(rows),
            "ids": [eid for eid, _ in rows],
            "posteriors": encode_ndarray(bits.view(np.float64)),
            "index": encode_ndarray(index.astype(np.uint8)),
        }
        assert body == dumps(expected).encode()
        sink(2, examples, votes)
        got_ids, got = read_labels(dfs, sink.shard_path(2))
        assert got_ids == [eid for eid, _ in rows]
        assert got.dtype == np.float64 and got.tobytes() == proba.tobytes()

    @given(st.lists(st.tuples(st.one_of(ids, st.integers()), probas), max_size=12))
    def test_row_format_label_shards_read_back(self, rows):
        """A shard in the per-example row layout earlier label sinks
        wrote reads back with json's value for every posterior."""
        dfs = DistributedFileSystem()
        write_records(dfs, "/s/rows", [
            {"kind": "meta", "batch": 0, "n": len(rows)},
            *({"example_id": eid, "proba": p} for eid, p in rows),
        ])
        got_ids, got = read_labels(dfs, "/s/rows")
        assert got_ids == json.loads(dumps([eid for eid, _ in rows]))
        expected = np.array([p for _, p in rows], dtype=np.float64)
        assert np.array_equal(got, expected, equal_nan=True)
        # JSON's NaN has no sign; every other value keeps its own.
        numbers = ~np.isnan(expected)
        assert got[numbers].tobytes() == expected[numbers].tobytes()

    @given(st.lists(vote_batches(), max_size=3))
    def test_applier_vote_records(self, blocks):
        """One pass per block fans each column's sparse ``{"key",
        "value"}`` records out to that column's writer, in row order."""
        width = max((votes.shape[1] for _, votes in blocks), default=0)
        writers = [_Bodies() for _ in range(width)]
        for batch_ids, votes in blocks:
            _write_vote_block(writers, batch_ids, votes)
        for k, bodies in enumerate(writers):
            expected = [
                {"key": batch_ids[i], "value": int(votes[i, k])}
                for batch_ids, votes in blocks
                if votes.shape[1] > k
                for i in range(len(batch_ids))
                if votes[i, k]
            ]
            assert bodies == [dumps(p).encode() for p in expected]


class _Bodies(list):
    """A writer stand-in that keeps the bodies it is given."""

    write_body = list.append


def frame(body: bytes) -> bytes:
    """A record with a valid header around any bytes."""
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


#: A real PCG64 state word, as label-model manifests store ``rng_state``.
PCG64_STATE = np.random.PCG64(39).state["state"]["state"]


class TestDecoder:
    """The stream decoder parses each body with ``orjson.loads`` and
    hands it to json's ``JSONDecoder.decode`` instead when the body holds
    a run of 19 digits (an integer orjson might turn into a float) or
    orjson refuses it; values, types and errors stay json's."""

    @given(json_values)
    def test_values_are_jsons(self, value):
        blob = frame(dumps(value).encode())
        dfs = DistributedFileSystem()
        dfs.write_file("/r/v", blob)
        got = list(RecordReader(dfs, "/r/v"))
        # dumps compares NaN-bearing values and keeps int/float distinct.
        assert [dumps(v) for v in got] == [dumps(v) for v in decode_records(blob)]

    @pytest.mark.parametrize(
        "body", [b' {"a": 1}', b'{"a":1} ', b"\n[1, 2]\t", b' "x" ', b" 7 "]
    )
    def test_whitespace_around_a_body_decodes_as_before(self, dfs, body):
        dfs.write_file("/r/ws", frame(body))
        assert read_records(dfs, "/r/ws") == [json.loads(body)]

    @pytest.mark.parametrize(
        "value",
        [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1, PCG64_STATE],
        ids=["2^63-1", "2^63", "2^64-1", "2^64", "-2^63", "-2^63-1", "pcg64_state"],
    )
    def test_wide_integers_stay_ints(self, dfs, value):
        blob = frame(dumps({"rng_state": value, "row": [value, 1]}).encode())
        dfs.write_file("/r/int", blob)
        (got,) = read_records(dfs, "/r/int")
        assert got == next(decode_records(blob))
        assert type(got["rng_state"]) is int and got["rng_state"] == value
        assert type(got["row"][0]) is int and got["row"] == [value, 1]

    def test_pcg64_state_is_wider_than_64_bits(self):
        assert PCG64_STATE >= 2**64

    @pytest.mark.parametrize(
        "body",
        [b'{"id":"x1234567890123456789y","n":5}', b'{"p":NaN,"q":[0.5]}',
         b'[-Infinity,Infinity]', b'{"big":1e400}', b'{"s":"\\ud800"}'],
        ids=["19_digit_string", "nan", "infinity", "1e400", "lone_surrogate"],
    )
    def test_bodies_orjson_cannot_decode_are_jsons(self, dfs, body):
        blob = frame(body)
        dfs.write_file("/r/hazard", blob)
        got = read_records(dfs, "/r/hazard")
        expected = list(decode_records(blob))
        # dumps compares NaN-bearing values and keeps int/float distinct.
        assert [dumps(v) for v in got] == [dumps(v) for v in expected]

    def test_label_sink_non_finite_posteriors_read_back_as_json_reads_them(self, dfs):
        """Non-finite posteriors travel as raw float64 bits inside a
        label block, so its body is plain JSON orjson decodes, and each
        one (a NaN's payload too) reads back bitwise."""
        payload_nan = np.array([0x7FF8_0000_DEAD_BEEF], np.uint64).view(np.float64)[0]
        proba = np.array([np.nan, np.inf, -np.inf, 0.25, -0.0, 5e-324, payload_nan])
        sink = LabelSink(dfs, "/s", lambda votes: proba)
        sink(3, [Example(f"e{i}") for i in range(len(proba))],
             np.zeros((len(proba), 0), np.int8))
        got = read_records(dfs, sink.shard_path(3))
        expected = list(decode_records(dfs.read_file(sink.shard_path(3))))
        assert [dumps(v) for v in got] == [dumps(v) for v in expected]
        assert b"NaN" not in dfs.read_file(sink.shard_path(3))
        ids, read = read_labels(dfs, sink.shard_path(3))
        assert ids == [f"e{i}" for i in range(len(proba))]
        assert read.tobytes() == proba.tobytes()

    @pytest.mark.parametrize(
        "body",
        [b'{"a":1}x', b'{"a":1} {}', b'{"a":}', b"", b"   ", b"[1,2",
         b"nul", b'"abc', b'{"a" 1}', b"-", b"01", b'{"a":1,}',
         b'"\xff"', b'{"s":"\xed\xa0\x80"}', b'{"n":12345678901234567890'],
    )
    def test_bad_bodies_raise_the_oracles_error(self, dfs, body):
        blob = frame(b'{"ok":1}') + frame(body)
        dfs.write_file("/r/bad", blob)
        with pytest.raises(ValueError) as oracle:
            list(decode_records(blob))
        with pytest.raises(ValueError) as ours:
            list(RecordReader(dfs, "/r/bad"))
        assert type(ours.value) is type(oracle.value)
        assert str(ours.value) == str(oracle.value)


class TestWriterReader:
    def test_write_read_round_trip(self, dfs):
        count = write_records(dfs, "/r/file", [{"i": i} for i in range(10)])
        assert count == 10
        assert [r["i"] for r in read_records(dfs, "/r/file")] == list(range(10))

    def test_writer_counts_records(self, dfs):
        with RecordWriter(dfs, "/r/x") as writer:
            writer.write({"a": 1})
            writer.write({"a": 2})
            assert writer.records_written == 2

    def test_writer_publishes_only_on_clean_exit(self, dfs):
        with pytest.raises(RuntimeError):
            with RecordWriter(dfs, "/r/x") as writer:
                writer.write({"a": 1})
                raise RuntimeError("worker crash")
        # The crashed writer's output never became visible.
        assert not dfs.exists("/r/x")

    def test_writer_appends_once_per_chunk_and_publishes_at_close(
        self, dfs, monkeypatch
    ):
        payloads = [{"i": i, "pad": "x" * 200} for i in range(3000)]
        appended = []
        append = dfs.append
        monkeypatch.setattr(
            dfs,
            "append",
            lambda path, data: (appended.append(len(data)), append(path, data)),
        )
        writer = RecordWriter(dfs, "/r/big")
        for payload in payloads:
            writer.write(payload)
        assert appended and min(appended) >= DEFAULT_READ_CHUNK
        assert not dfs.exists("/r/big")  # flushed, still invisible
        writer.close()
        blob = b"".join(encode_record(p) for p in payloads)
        assert len(appended) == 1 + len(blob) // DEFAULT_READ_CHUNK
        assert dfs.read_file("/r/big") == blob

    def test_abandon_after_a_flush_leaves_nothing_staged(
        self, dfs, monkeypatch
    ):
        appended = []
        append = dfs.append
        monkeypatch.setattr(
            dfs,
            "append",
            lambda path, data: (appended.append(len(data)), append(path, data)),
        )
        writer = RecordWriter(dfs, "/r/abandoned")
        while not appended:
            writer.write({"pad": "x" * 200})
        writer.write({"pad": "buffered, never appended"})
        writer.abandon()
        assert len(appended) == 1
        assert dfs.staged_paths() == []
        assert not dfs.exists("/r/abandoned")

    def test_closed_writer_rejects_writes(self, dfs):
        writer = RecordWriter(dfs, "/r/x")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write({"a": 1})

    def test_closed_writer_rejects_bodies_like_writes(self, dfs):
        writer = RecordWriter(dfs, "/r/x")
        writer.close()
        with pytest.raises(ValueError) as by_write:
            writer.write({"a": 1})
        with pytest.raises(ValueError) as by_body:
            writer.write_body(b'{"a":1}')
        assert str(by_body.value) == str(by_write.value)
        assert writer.records_written == 0

    def test_write_is_write_body_of_record_body(self, dfs):
        payloads = [{"i": i, "s": "ü\ud800"} for i in range(5)]
        with RecordWriter(dfs, "/r/a") as writer:
            for payload in payloads:
                writer.write(payload)
        with RecordWriter(dfs, "/r/b") as writer:
            for payload in payloads:
                writer.write_body(record_body(payload))
        assert dfs.read_file("/r/a") == dfs.read_file("/r/b")
        assert dfs.read_file("/r/a") == b"".join(encode_record(p) for p in payloads)

    def test_reader_iterates_multiple_times(self, dfs):
        write_records(dfs, "/r/x", [{"i": 1}])
        reader = RecordReader(dfs, "/r/x")
        assert list(reader) == list(reader)

    def test_iter_record_blobs_spans_files(self, dfs):
        write_records(dfs, "/r/a", [{"i": 0}])
        write_records(dfs, "/r/b", [{"i": 1}, {"i": 2}])
        merged = list(iter_record_blobs(dfs, ["/r/a", "/r/b"]))
        assert [r["i"] for r in merged] == [0, 1, 2]

    def test_empty_file_yields_nothing(self, dfs):
        write_records(dfs, "/r/empty", [])
        assert read_records(dfs, "/r/empty") == []

    def test_reader_fails_fast_on_missing_file(self, dfs):
        with pytest.raises(FileNotFound):
            RecordReader(dfs, "/r/missing")


class TestStreamingReads:
    """The chunked read path: bounded memory, blob-equivalent output."""

    def test_stream_matches_blob_decode_at_any_chunk_size(self, dfs):
        payloads = [{"i": i, "pad": "x" * (i % 37)} for i in range(200)]
        write_records(dfs, "/r/big", payloads)
        blob = dfs.read_file("/r/big")
        for chunk_size in (8, 13, 64, 1 << 20):
            reader = RecordReader(dfs, "/r/big", chunk_size=chunk_size)
            assert list(reader) == list(decode_records(blob))

    def test_stream_never_calls_read_file(self, dfs, monkeypatch):
        write_records(dfs, "/r/x", [{"i": i} for i in range(50)])
        reader = RecordReader(dfs, "/r/x", chunk_size=32)
        monkeypatch.setattr(
            dfs,
            "read_file",
            lambda path: (_ for _ in ()).throw(
                AssertionError("blob read on the streaming path")
            ),
        )
        assert [r["i"] for r in reader] == list(range(50))

    def test_stream_corruption_diagnostics_match_blob_path(self, dfs):
        payloads = [{"i": i} for i in range(20)]
        blob = b"".join(encode_record(p) for p in payloads)
        corrupt = bytearray(blob)
        corrupt[len(blob) // 2] ^= 0xFF  # flip a bit mid-file
        dfs.write_file("/r/corrupt", bytes(corrupt))

        with pytest.raises(RecordCorruption) as blob_error:
            list(decode_records(bytes(corrupt)))
        with pytest.raises(RecordCorruption) as stream_error:
            list(RecordReader(dfs, "/r/corrupt", chunk_size=16))
        assert str(stream_error.value) == str(blob_error.value)

    def test_stream_truncation_diagnostics_match_blob_path(self, dfs):
        blob = encode_record({"a": 1}) + encode_record({"b": 2})
        for cut in (len(blob) - 3, len(blob) - 10):
            truncated = blob[:cut]
            dfs.write_file(f"/r/trunc{cut}", truncated)
            with pytest.raises(RecordCorruption) as blob_error:
                list(decode_records(truncated))
            with pytest.raises(RecordCorruption) as stream_error:
                list(RecordReader(dfs, f"/r/trunc{cut}", chunk_size=8))
            assert str(stream_error.value) == str(blob_error.value)

    def test_every_truncation_point_raises_like_the_blob_path(self, dfs):
        """A shard cut anywhere mid-record must never end silently.

        Sweeps *every* truncation offset of a multi-record shard — in
        particular cuts that land inside the final chunk, mid-header and
        mid-body of the last record — and checks the streaming reader
        raises exactly the whole-blob diagnostic at several chunk sizes
        (including one smaller than a record, so the truncated record
        spans the last two chunks).
        """
        blob = b"".join(
            encode_record({"i": i, "pad": "x" * (3 * i)}) for i in range(4)
        )
        clean_cuts = set()
        offset = 0
        while offset < len(blob):
            clean_cuts.add(offset)
            length = int.from_bytes(blob[offset:offset + 4], "big")
            offset += 8 + length
        for cut in range(len(blob)):
            truncated = blob[:cut]
            path = f"/r/sweep{cut}"
            dfs.write_file(path, truncated)
            if cut in clean_cuts:
                # A cut on a record boundary is a short file, not a
                # corrupt one; both paths must agree on that too.
                records = list(decode_records(truncated))
                for chunk_size in (8, 13, 1 << 20):
                    assert (
                        list(RecordReader(dfs, path, chunk_size=chunk_size))
                        == records
                    )
                continue
            with pytest.raises(RecordCorruption) as blob_error:
                list(decode_records(truncated))
            for chunk_size in (8, 13, 1 << 20):
                with pytest.raises(RecordCorruption) as stream_error:
                    list(RecordReader(dfs, path, chunk_size=chunk_size))
                assert str(stream_error.value) == str(blob_error.value)

    def test_resume_from_every_record_boundary(self, dfs):
        """The ``SourceCursor`` resume path: a handle seeked to any record
        boundary yields the oracle's ``(payload, end_offset)`` pairs, at
        chunk sizes below, around and above the records, with one record
        larger than every chunk."""
        payloads = [{"i": i, "pad": "x" * (7 * i % 50)} for i in range(40)]
        payloads.insert(17, {"big": "y" * (DEFAULT_READ_CHUNK + 1000)})
        write_records(dfs, "/r/resume", payloads)
        blob = dfs.read_file("/r/resume")
        ends = record_ends(blob)
        oracle = list(decode_records(blob))
        assert oracle == payloads
        for first, start in enumerate([0] + ends):
            expected = list(zip(oracle[first:], ends[first:]))
            for chunk_size in (8, 13, 64, DEFAULT_READ_CHUNK):
                handle = dfs.open_read("/r/resume")
                handle.seek(start)
                assert (
                    list(stream_records_with_offsets(handle, chunk_size))
                    == expected
                )

    def test_rejects_tiny_chunk_size(self, dfs):
        write_records(dfs, "/r/x", [{"i": 1}])
        with pytest.raises(ValueError, match="chunk_size"):
            list(stream_records(dfs.open_read("/r/x"), chunk_size=4))


class TestReadHandles:
    def test_sequential_reads_and_positions(self, dfs):
        dfs.write_file("/h/data", b"abcdefghij")
        with dfs.open_read("/h/data") as handle:
            assert handle.size == 10
            assert handle.read(4) == b"abcd"
            assert handle.tell() == 4
            assert handle.remaining == 6
            assert handle.read(100) == b"efghij"
            assert handle.read(1) == b""

    def test_closed_handle_rejects_reads(self, dfs):
        dfs.write_file("/h/data", b"abc")
        handle = dfs.open_read("/h/data")
        handle.close()
        with pytest.raises(DFSError, match="closed"):
            handle.read(1)

    def test_read_at_bounds(self, dfs):
        dfs.write_file("/h/data", b"abcdef")
        assert dfs.read_at("/h/data", 2, 3) == b"cde"
        assert dfs.read_at("/h/data", 5, 10) == b"f"
        assert dfs.read_at("/h/data", 9, 4) == b""
        with pytest.raises(DFSError):
            dfs.read_at("/h/data", -1, 2)
        with pytest.raises(FileNotFound):
            dfs.read_at("/h/nope", 0, 1)
