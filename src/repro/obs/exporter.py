"""Durable export of metrics-registry snapshots.

A registry is process-local state; an operator watching a weeks-long
stream needs it *published*. :class:`TelemetryExporter` starts no
thread: its owner calls :meth:`~TelemetryExporter.export_now` on its
own schedule (after a run, between batches, at shutdown), and each
call snapshots a :class:`~repro.obs.registry.MetricsRegistry` and
writes it:

* as one finalized DFS record file per snapshot
  (``<root>/metrics-NNNNN.records``) — write-once publish, so a reader
  never observes a torn snapshot; and/or
* as one JSON line appended to a local file, which
  ``scripts/metrics_dump.py`` reads back.

An exporter opened on a root that already holds snapshots resumes
after the highest one, so a restarted process keeps publishing.
"""

from __future__ import annotations

import json
import re
import threading
import time

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import write_records
from repro.obs.registry import MetricsRegistry

__all__ = ["TelemetryExporter"]

_SNAPSHOT_RE = re.compile(r"/metrics-(?P<seq>\d{5,})\.records$")


class TelemetryExporter:
    """Publishes registry snapshots durably when its owner asks."""

    def __init__(
        self,
        registry: MetricsRegistry,
        dfs: DistributedFileSystem | None = None,
        root: str | None = None,
        path: str | None = None,
    ) -> None:
        """Configure the exporter.

        Args:
            registry: The registry to snapshot.
            dfs: Filesystem for durable record-file snapshots.
            root: DFS directory for ``metrics-NNNNN.records`` files
                (required iff ``dfs`` is given). Numbering resumes
                after the highest snapshot already there.
            path: Local file to append JSONL snapshot lines to.

        Raises:
            ValueError: On a ``dfs``/``root`` mismatch.
        """
        if (dfs is None) != (root is None):
            raise ValueError("dfs and root must be supplied together")
        self.registry = registry
        self._dfs = dfs
        self.root = root.rstrip("/") if root else None
        self.path = path
        self._lock = threading.Lock()
        # Parsed as ints, not sorted as names: they outgrow the padding.
        names = dfs.list(f"{self.root}/") if dfs is not None else []
        existing = [
            int(match.group("seq"))
            for name in names
            if (match := _SNAPSHOT_RE.search(name))
        ]
        self._first_seq = self._seq = max(existing, default=-1) + 1
        self.last_snapshot: dict | None = None

    @property
    def snapshots_written(self) -> int:
        """How many snapshots this exporter has published."""
        with self._lock:
            return self._seq - self._first_seq

    def export_now(self) -> dict:
        """Take and publish one snapshot immediately; returns it.

        Safe from any thread. A publish that raises consumes no
        sequence number: the next call retries the same one. The JSONL
        line goes first, so a failed DFS publish can leave a line whose
        seq the retry's line repeats, but never a record file that
        blocks every later call.
        """
        snapshot = self.registry.snapshot()
        with self._lock:
            entry = {
                "seq": self._seq,
                "unix": round(time.time(), 3),
                **snapshot,
            }
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(
                        json.dumps(entry, sort_keys=True) + "\n"
                    )
            if self._dfs is not None:
                # repro: allow[blocking-under-lock] the lock serializes the seq-ordered publish (one records file per seq, JSONL appends in seq order) between callers on different threads; the DFS write is one small file created, written and linked on the local disk, and takes no lock of its own, so a contender waits at most that one write
                write_records(
                    self._dfs,
                    f"{self.root}/metrics-{self._seq:05d}.records",
                    [entry],
                )
            self._seq += 1
            self.last_snapshot = entry
        return entry
