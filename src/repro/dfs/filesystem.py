"""A stand-in for Google's distributed filesystem, stored in one directory.

The LF template library (Section 5.1) "handles all input and output to
Google's distributed filesystem" so that engineers only write per-example
logic. To reproduce that design we need a filesystem object with the
semantics that MapReduce-era Google infrastructure provides and the
templates rely on:

* hierarchical paths under a namespace (``/ns/app/run-0/part-00003``),
  with sharded file sets named by :func:`shard_name`,
* write-once semantics: writers stage data under a temporary name and
  atomically ``finalize`` it, so readers never observe partial files —
  this is what makes independently-scheduled LF binaries safe,
* listing so the vote-joining step can discover LF outputs.

The directory is the store. DFS path ``/a/b`` is the file ``<root>/a/b``
and every read goes to that file, so memory stays flat however much is
written. A staged file is a temp file in ``<root>/.staging``, a name no
DFS path may start with; publishing hard-links it to its final name,
which fails atomically if that name exists, so write-once holds between
every DFS object and process that shares the root (forked pool workers
included). A DFS built without a root owns a private temp directory,
removed when the DFS is collected.
"""

from __future__ import annotations

import itertools
import os
import shutil
import stat
import tempfile
import weakref

__all__ = [
    "DistributedFileSystem",
    "DFSReadHandle",
    "DFSError",
    "FileNotFound",
    "shard_name",
]


class DFSError(Exception):
    """Base error for distributed-filesystem operations."""


class FileNotFound(DFSError):
    """Raised when reading a path that does not exist."""


#: The root's staging directory; no DFS path may start with it.
STAGING = ".staging"

#: What the OS raises for a DFS path that names no finalized file.
_MISSING = (FileNotFoundError, IsADirectoryError, NotADirectoryError)

#: Temp-file numbers, unique within a process (names also carry the pid).
_TEMP_IDS = itertools.count()


def shard_name(base: str, index: int, count: int) -> str:
    """Canonical shard file name, e.g. ``part-00003-of-00016``.

    >>> shard_name("/app/votes", 3, 16)
    '/app/votes-00003-of-00016'
    """
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for {count} shards")
    return f"{base}-{index:05d}-of-{count:05d}"


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise DFSError(f"DFS paths must be absolute, got {path!r}")
    # Collapse duplicate slashes; forbid relative components.
    parts = [p for p in path.split("/") if p]
    if any(p in (".", "..") for p in parts):
        raise DFSError(f"relative components not allowed in {path!r}")
    if parts and parts[0] == STAGING:
        raise DFSError(f"{path!r} is inside the DFS's staging directory")
    return "/" + "/".join(parts)


def _release(staged: dict, private_root: str | None, owner: int) -> None:
    """Close a collected DFS's staged files and remove its private root.

    Only the creating process cleans up: a forked worker that drops its
    copy of the DFS must not delete the files its parent still serves.
    """
    if os.getpid() != owner:
        return
    for fd, _ in staged.values():
        os.close(fd)
    if private_root is not None:
        shutil.rmtree(private_root, ignore_errors=True)


class DistributedFileSystem:
    """Write-once filesystem over the directory ``root``.

    Without ``root`` the DFS owns a private temp directory. Writers on
    different threads may stage distinct files at once: the table of
    staged files is only read and changed by single dict calls
    (``setdefault``, ``pop``, lookups), each atomic.
    """

    def __init__(self, root: str | None = None) -> None:
        self._staged: dict[str, tuple[int, str]] = {}
        private = None
        if root is None:
            root = private = tempfile.mkdtemp(prefix="repro-dfs-")
        self._root = os.path.abspath(root)
        self._staging = os.path.join(self._root, STAGING)
        os.makedirs(self._staging, exist_ok=True)
        weakref.finalize(self, _release, self._staged, private, os.getpid())

    def _local(self, path: str) -> str:
        return self._root + _normalize(path)

    # ------------------------------------------------------------------
    # write path: stage -> append -> finalize
    # ------------------------------------------------------------------
    def create(self, path: str) -> None:
        """Open a staged (temporary) file for writing."""
        path = _normalize(path)
        if os.path.exists(self._root + path):
            raise DFSError(f"{path} already finalized; DFS files are immutable")
        temp = os.path.join(self._staging, f"{os.getpid()}-{next(_TEMP_IDS)}")
        entry = (os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644), temp)
        if self._staged.setdefault(path, entry) is not entry:
            self._discard(entry)
            raise DFSError(f"{path} already staged by another writer")

    def append(self, path: str, data: bytes) -> None:
        """Append bytes to a staged file."""
        fd = self._staged_entry(_normalize(path))[0]
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    def finalize(self, path: str) -> None:
        """Atomically publish a staged file under its own name."""
        self._publish(path, path)

    def finalize_as(self, staged_path: str, final_path: str) -> None:
        """Atomically publish a staged file under a *different* name.

        The write-then-rename idiom checkpoint writers depend on: data is
        staged under a scratch name (``.staged-ckpt-00004``) and renamed
        to its canonical name (``ckpt-00004``) in one step, so a reader
        either sees the complete checkpoint or none at all — never a
        half-written manifest. A crash before the rename leaves only the
        invisible staged file, which the next writer can ``abandon``.
        """
        self._publish(staged_path, final_path)

    def _publish(self, staged_path: str, final_path: str) -> None:
        staged_path = _normalize(staged_path)
        final_path = _normalize(final_path)
        temp = self._staged_entry(staged_path)[1]
        final = self._root + final_path
        try:
            try:
                os.link(temp, final)
            except FileNotFoundError:
                os.makedirs(os.path.dirname(final), exist_ok=True)
                os.link(temp, final)
        except FileExistsError:
            # The staged file survives a refused publish.
            raise DFSError(
                f"{final_path} already finalized; DFS files are immutable"
            ) from None
        self._discard(self._staged.pop(staged_path))

    def _staged_entry(self, path: str) -> tuple[int, str]:
        try:
            return self._staged[path]
        except KeyError:
            raise DFSError(f"{path} is not staged for writing") from None

    @staticmethod
    def _discard(entry: tuple[int, str]) -> None:
        os.close(entry[0])
        os.unlink(entry[1])

    def abandon(self, path: str) -> None:
        """Discard a staged file (a crashed writer's temp output)."""
        entry = self._staged.pop(_normalize(path), None)
        if entry is not None:
            self._discard(entry)

    def write_file(self, path: str, data: bytes) -> None:
        """Convenience: stage, write, and finalize in one call."""
        self.create(path)
        self.append(path, data)
        self.finalize(path)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read_file(self, path: str) -> bytes:
        """Read a finalized file. Staged files are invisible to readers."""
        try:
            with open(self._local(path), "rb") as handle:
                return handle.read()
        except _MISSING:
            raise FileNotFound(path) from None

    def read_at(self, path: str, offset: int, size: int) -> bytes:
        """Read up to ``size`` bytes of a finalized file from ``offset``.

        This is the positional-read primitive real distributed
        filesystems expose (``pread``): readers pull one chunk at a time
        instead of materializing whole shards, which is what keeps
        streaming consumers at bounded memory. Short reads at EOF return
        the available suffix; reads past EOF return ``b""``.
        """
        if offset < 0 or size < 0:
            raise DFSError(
                f"read_at needs offset/size >= 0, got ({offset}, {size})"
            )
        try:
            fd = os.open(self._local(path), os.O_RDONLY)
            try:
                return os.pread(fd, size, offset)
            finally:
                os.close(fd)
        except _MISSING:
            raise FileNotFound(path) from None

    def open_read(self, path: str) -> "DFSReadHandle":
        """Open a sequential read handle on a finalized file."""
        return DFSReadHandle(self, path, self.size(path))

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._local(path))

    def size(self, path: str) -> int:
        try:
            info = os.stat(self._local(path))
        except _MISSING:
            raise FileNotFound(path) from None
        if not stat.S_ISREG(info.st_mode):
            raise FileNotFound(path)
        return info.st_size

    def delete(self, path: str) -> None:
        try:
            os.unlink(self._local(path))
        except _MISSING:
            raise FileNotFound(path) from None

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def list(self, prefix: str) -> list[str]:
        """List finalized files whose path starts with ``prefix``, sorted.

        The prefix is a string prefix of the normalized path, so
        ``/runs/a`` lists ``/runs/a/1`` and ``/runs/ab`` alike; a prefix
        that ends in ``/`` names a directory, so ``/runs/a/`` lists
        ``/runs/a/1`` and not ``/runs/ab``.
        """
        path = _normalize(prefix)
        head, tail = (path.rstrip("/"), "") if prefix.endswith("/") else path.rpartition("/")[::2]
        found = []
        try:
            scan = os.scandir(self._root + head)
        except _MISSING:
            return []
        with scan:
            for entry in scan:
                if not entry.name.startswith(tail) or (
                    not head and entry.name == STAGING
                ):
                    continue
                if not entry.is_dir(follow_symlinks=False):
                    found.append(f"{head}/{entry.name}")
                    continue
                for directory, _, names in os.walk(entry.path):
                    base = directory[len(self._root):]
                    found.extend(f"{base}/{name}" for name in names)
        return sorted(found)

    def delete_recursive(self, prefix: str) -> int:
        """Delete every finalized file :meth:`list` finds; returns count."""
        paths = self.list(prefix)
        for path in paths:
            self.delete(path)
        return len(paths)

    def staged_paths(self) -> list[str]:
        """Paths this DFS object has staged and not yet published."""
        return sorted(self._staged)


class DFSReadHandle:
    """Sequential read cursor over one finalized DFS file.

    Every ``read`` goes through :meth:`DistributedFileSystem.read_at`, so
    a consumer holding a handle keeps only its current chunk in its own
    memory — the streaming record reader and the micro-batch ingestion
    path are built on this. DFS files are immutable once finalized, so a
    handle never observes concurrent mutation.
    """

    def __init__(
        self, dfs: "DistributedFileSystem", path: str, size: int
    ) -> None:
        self._dfs = dfs
        self.path = path
        self.size = size
        self._offset = 0
        self._closed = False

    def read(self, size: int) -> bytes:
        """Read up to ``size`` bytes; ``b""`` at EOF."""
        if self._closed:
            raise DFSError(f"read on closed handle for {self.path}")
        chunk = self._dfs.read_at(self.path, self._offset, size)
        self._offset += len(chunk)
        return chunk

    def tell(self) -> int:
        return self._offset

    def seek(self, offset: int) -> None:
        """Reposition the cursor (absolute). Used by resume cursors to
        skip straight past already-consumed records; DFS files are
        immutable, so a stored offset stays valid forever."""
        if offset < 0:
            raise DFSError(f"seek offset must be >= 0, got {offset}")
        if self._closed:
            raise DFSError(f"seek on closed handle for {self.path}")
        self._offset = offset

    @property
    def remaining(self) -> int:
        return max(0, self.size - self._offset)

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "DFSReadHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
