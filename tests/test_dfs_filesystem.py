"""Tests for the simulated distributed filesystem."""

import gc
import multiprocessing
import os
import sys
import threading

import pytest

from repro.dfs.filesystem import (
    STAGING,
    DFSError,
    DistributedFileSystem,
    FileNotFound,
    shard_name,
)


class TestShardNaming:
    def test_shard_name_format(self):
        assert shard_name("/a/votes", 3, 16) == "/a/votes-00003-of-00016"

    def test_shard_name_bounds(self):
        with pytest.raises(ValueError):
            shard_name("/a", 16, 16)
        with pytest.raises(ValueError):
            shard_name("/a", -1, 16)


class TestWritePath:
    def test_staged_files_invisible_until_finalized(self, tmp_path):
        """Invisible to the writer and to a second DFS on the same root,
        which then reads what the first published."""
        dfs = DistributedFileSystem(root=str(tmp_path))
        other = DistributedFileSystem(root=str(tmp_path))
        dfs.create("/x")
        dfs.append("/x", b"data")
        for reader in (dfs, other):
            assert not reader.exists("/x") and reader.list("/") == []
            with pytest.raises(FileNotFound):
                reader.read_file("/x")
        dfs.finalize("/x")
        for reader in (dfs, other):
            assert reader.read_file("/x") == b"data"
            assert reader.list("/") == ["/x"]

    def test_write_file_convenience(self, dfs):
        dfs.write_file("/y", b"hello")
        assert dfs.read_file("/y") == b"hello"

    def test_files_are_immutable_once_finalized(self, dfs):
        dfs.write_file("/x", b"1")
        with pytest.raises(DFSError, match="immutable"):
            dfs.create("/x")

    def test_double_staging_rejected(self, dfs):
        dfs.create("/x")
        with pytest.raises(DFSError, match="staged"):
            dfs.create("/x")

    def test_append_requires_staging(self, dfs):
        with pytest.raises(DFSError, match="not staged"):
            dfs.append("/nope", b"x")

    def test_abandon_discards_staged_data(self, dfs):
        dfs.create("/x")
        dfs.append("/x", b"junk")
        dfs.abandon("/x")
        assert not dfs.exists("/x")
        # The path is free for a new writer (crashed-worker retry).
        dfs.write_file("/x", b"good")
        assert dfs.read_file("/x") == b"good"

    def test_multiple_appends_concatenate(self, dfs):
        dfs.create("/x")
        dfs.append("/x", b"ab")
        dfs.append("/x", b"cd")
        dfs.finalize("/x")
        assert dfs.read_file("/x") == b"abcd"

    def test_finalize_as_renames_atomically(self, dfs):
        dfs.create("/ckpt/.staged")
        dfs.append("/ckpt/.staged", b"manifest")
        assert not dfs.exists("/ckpt/final")
        dfs.finalize_as("/ckpt/.staged", "/ckpt/final")
        assert dfs.read_file("/ckpt/final") == b"manifest"
        # The staged name is gone on both sides of the namespace.
        assert not dfs.exists("/ckpt/.staged")
        with pytest.raises(DFSError, match="not staged"):
            dfs.append("/ckpt/.staged", b"more")

    def test_finalize_as_respects_immutability(self, dfs):
        dfs.write_file("/ckpt/final", b"first")
        dfs.create("/ckpt/.staged")
        with pytest.raises(DFSError, match="immutable"):
            dfs.finalize_as("/ckpt/.staged", "/ckpt/final")
        # The staged file survives the refused rename.
        dfs.append("/ckpt/.staged", b"x")
        dfs.finalize_as("/ckpt/.staged", "/ckpt/other")
        assert dfs.read_file("/ckpt/other") == b"x"

    def test_finalize_as_requires_staging(self, dfs):
        with pytest.raises(DFSError, match="not staged"):
            dfs.finalize_as("/nope", "/ckpt/final")


class TestPathValidation:
    def test_relative_paths_rejected(self, dfs):
        with pytest.raises(DFSError, match="absolute"):
            dfs.write_file("relative/path", b"")

    def test_dotdot_rejected(self, dfs):
        with pytest.raises(DFSError, match="relative components"):
            dfs.write_file("/a/../b", b"")

    def test_duplicate_slashes_normalized(self, dfs):
        dfs.write_file("/a//b", b"x")
        assert dfs.read_file("/a/b") == b"x"

    def test_staging_directory_is_not_a_dfs_path(self, dfs):
        for path in (f"/{STAGING}", f"//{STAGING}/x", f"/{STAGING}/0-0"):
            with pytest.raises(DFSError, match="staging"):
                dfs.exists(path)
        assert dfs.exists(f"/a/{STAGING}") is False


class TestNamespaceOps:
    def test_list_by_prefix(self, dfs):
        dfs.write_file("/runs/a/1", b"")
        dfs.write_file("/runs/a/2", b"")
        dfs.write_file("/runs/b/1", b"")
        assert dfs.list("/runs/a") == ["/runs/a/1", "/runs/a/2"]
        # A string prefix of the path, not only a directory.
        dfs.write_file("/runs/ab", b"")
        assert dfs.list("/runs/a") == ["/runs/a/1", "/runs/a/2", "/runs/ab"]
        assert dfs.list("/runs/a/") == dfs.list("/runs/a")
        assert dfs.list("/nowhere/") == []

    def test_delete(self, dfs):
        dfs.write_file("/x", b"1")
        dfs.delete("/x")
        assert not dfs.exists("/x")
        with pytest.raises(FileNotFound):
            dfs.delete("/x")

    def test_delete_recursive_counts(self, dfs):
        dfs.write_file("/t/1", b"")
        dfs.write_file("/t/2", b"")
        assert dfs.delete_recursive("/t") == 2
        assert dfs.list("/t") == []


class TestAccounting:
    def test_staged_paths_visible_for_debugging(self, dfs):
        dfs.create("/pending")
        assert dfs.staged_paths() == ["/pending"]


class TestConcurrency:
    def test_parallel_writers_distinct_shards(self, dfs):
        """Sixteen threads each publish a shard, and all race to stage one
        shared path: exactly one of them may hold it."""
        errors, staged = [], []

        def write(i: int) -> None:
            try:
                path = shard_name("/c/votes", i, 16)
                dfs.create(path)
                dfs.append(path, f"shard-{i}".encode())
                dfs.finalize(path)
            except Exception as error:  # pragma: no cover
                errors.append(error)
            try:
                dfs.create("/contended")
                staged.append(i)
            except DFSError:
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(staged) == 1
        assert dfs.list("/c/") == [shard_name("/c/votes", i, 16) for i in range(16)]

    def test_disk_spill_round_trip(self, tmp_path):
        """The root holds the published bytes at their DFS path; staged
        bytes live only in the staging directory."""
        dfs = DistributedFileSystem(root=str(tmp_path))
        dfs.write_file("/run/a", b"bytes")
        dfs.create("/run/b")
        dfs.append("/run/b", b"staged")
        assert (tmp_path / "run" / "a").read_bytes() == b"bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == [STAGING, "run"]
        assert [p.read_bytes() for p in (tmp_path / STAGING).iterdir()] == [b"staged"]
        dfs.delete("/run/a")
        assert list((tmp_path / "run").iterdir()) == []


def _in_fork(body) -> multiprocessing.Process:
    """Start ``body`` in a forked child (exit code 0 if it returns)."""
    child = multiprocessing.get_context("fork").Process(target=body)
    child.start()
    return child


def _exit_code(child: multiprocessing.Process) -> int | None:
    child.join(timeout=30)
    return child.exitcode


class TestStore:
    def test_forked_child_reads_a_file_published_after_the_fork(self, dfs):
        published = multiprocessing.get_context("fork").Event()

        def child():
            assert published.wait(timeout=30)
            assert dfs.read_file("/late") == b"after the fork"
            assert dfs.list("/") == ["/late"]

        forked = _in_fork(child)
        try:
            dfs.write_file("/late", b"after the fork")
        finally:
            published.set()
        assert _exit_code(forked) == 0

    def test_forked_child_dropping_its_copy_keeps_the_parents_root(self):
        dfs = DistributedFileSystem()
        dfs.write_file("/kept", b"parent's")

        def child():
            nonlocal dfs
            dfs = None
            gc.collect()

        assert _exit_code(_in_fork(child)) == 0
        with open(os.path.join(dfs._root, "kept"), "rb") as kept:
            assert kept.read() == b"parent's"

    def test_private_root_removed_when_collected(self):
        dfs = DistributedFileSystem()
        dfs.write_file("/a/b", b"x")
        dfs.create("/pending")
        root = dfs._root
        assert os.path.isdir(root)
        del dfs
        gc.collect()
        assert not os.path.exists(root)
