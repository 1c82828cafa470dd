"""Tests for record-file serialization."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.dfs.filesystem import DFSError, FileNotFound
from repro.dfs.records import (
    RecordCorruption,
    RecordReader,
    RecordWriter,
    decode_records,
    encode_record,
    iter_record_blobs,
    read_records,
    stream_records,
    write_records,
)


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

    def test_closed_writer_rejects_writes(self, dfs):
        writer = RecordWriter(dfs, "/r/x")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write({"a": 1})

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
