"""Simulated distributed filesystem substrate.

The paper's labeling functions are independent binaries that exchange data
through Google's distributed filesystem (Section 5.4): each LF reads the
unlabeled-example files and writes sharded vote files, which the generative
model later joins. This package reproduces the pieces the template library
codes against — sharded record files, namespaces, atomic publishes, and
immutable-once-finalized semantics — on one local directory, which is the
store: every read goes to disk.
"""

from repro.dfs.filesystem import DistributedFileSystem, DFSError, FileNotFound
from repro.dfs.records import RecordReader, RecordWriter, read_records, write_records

__all__ = [
    "DistributedFileSystem",
    "DFSError",
    "FileNotFound",
    "RecordReader",
    "RecordWriter",
    "read_records",
    "write_records",
]
