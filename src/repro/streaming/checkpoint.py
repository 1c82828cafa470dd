"""Checkpointing + crash-resume for the micro-batch streaming pipeline.

This is what turns the streaming subsystem from an in-memory pipe into a
restartable production job: every finalized micro-batch's outputs are
durable (:mod:`repro.streaming.sinks`), and a *checkpoint manifest*
periodically snapshots everything else a resumed stream needs —

* the last finalized batch id and the source cursor (examples consumed,
  plus the seekable (shard, byte offset) position when the source
  supports it),
* the :class:`~repro.core.online_label_model.OnlineLabelModel`'s full
  mutable state: the pattern table (distinct vote rows and their counts
  or decayed weights — the vote moments are read off it, not stored),
  the parameters its solve of that table gave, and the counters,
* optionally the :class:`~repro.core.drift.DriftMonitor`'s reference /
  recent windows and alarm counters, so a resumed stream scores and
  alarms on exactly the batches the uninterrupted run would have.

Manifests stay schema-compatible in both directions: a manifest written
without drift state (including every pre-drift manifest) restores into a
drift-aware stream — the online model restores its table and the
monitor starts fresh — and the drift record is simply absent when no
policy is configured.

Manifests are written with the write-then-rename idiom
(:meth:`repro.dfs.filesystem.DistributedFileSystem.finalize_as`): staged
under a scratch name, renamed to ``ckpt-{batch:06d}`` in one step, so the
canonical name never points at a partial manifest. Manifests contain no
wall-clock state — the same stream prefix always produces the same bytes.

Recovery contract (asserted by the crash-resume tests in
``tests/test_checkpoint.py``): interrupt the stream after ANY finalized
micro-batch, resume with :meth:`CheckpointedStream.run`, and the vote /
label shards and final model posteriors are byte-identical to an
uninterrupted run. The mechanism:

1. resume loads the newest manifest and restores model state to the bit;
2. *orphan* shards newer than the manifest (finalized after the last
   checkpoint but before the crash) are deleted and re-derived — durable
   output is only ever trusted up to the manifest's batch;
3. the source restarts from the manifest's cursor — cursor-capable
   sources (:class:`repro.streaming.sources.RecordStreamSource`) *seek*
   to the stored (shard, byte offset) position and decode only
   unconsumed records, while plain iterables fall back to replaying and
   discarding the consumed prefix — and batch numbering continues from
   the manifest's batch id, so shard names and batch boundaries line up
   with the run that never crashed.

Every label the stream writes comes from the solve of its own batch's
``(patterns, counts)`` table (a restore solves the snapshot's table) —
the offline ``fit``'s own ``fit_compressed`` call, so a label shard is
the offline fit of the retained prefix through its batch, whatever the
batching or the kill point. That table is O(patterns):
manifests (label-model ``state_dict`` schema 6) stay the same size
however long the stream runs. Manifests from earlier writers — schema 1
(pre-drift) and schema 2, both of which logged a pattern id per example,
schema 3, which also carried sliding-window keys, schemas 1-4's stored
vote moments and schemas 1-5's SGD-moved parameters and sampler state —
restore by solving the restored table, resume to the same vote bytes,
and from the resume point on write the same labels and state as a
fresh run; an unknown schema is refused with
``ValueError`` rather than half-read. Records of a kind this reader does
not know (such as the ``end_model`` record earlier writers could add)
are ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.drift import DriftMonitor, DriftPolicy
from repro.core.online_label_model import OnlineLabelModel, OnlineLabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import RecordWriter, read_records
from repro.lf.base import AbstractLabelingFunction
from repro.obs.registry import MetricsRegistry
from repro.streaming.pipeline import BatchSink, MicroBatchPipeline, StreamReport
from repro.streaming.sinks import LabelSink, VoteSink
from repro.streaming.sources import SourceCursor
from repro.types import Example, require_fields, require_int

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CheckpointedStream",
    "CheckpointedRunReport",
    "SimulatedCrash",
]

#: Manifest schema version, bumped on incompatible layout changes.
MANIFEST_SCHEMA = 1

_MANIFEST_RE = re.compile(r"/ckpt-(?P<batch>\d{6,})$")


class SimulatedCrash(RuntimeError):
    """Injected failure for crash-recovery tests and benchmarks."""


@dataclass
class Checkpoint:
    """One loaded manifest: durable progress plus restorable state.

    ``drift_state`` is ``None`` for manifests written without a drift
    policy — including every pre-drift (schema-compatible) manifest.
    """

    path: str
    batch: int
    cursor: int
    meta: dict
    label_model_state: dict
    drift_state: dict | None = None


class CheckpointManager:
    """Reads and writes checkpoint manifests under ``{root}/checkpoints``."""

    def __init__(self, dfs: DistributedFileSystem, root: str) -> None:
        self._dfs = dfs
        self.root = root.rstrip("/")
        self.directory = f"{self.root}/checkpoints"

    def manifest_path(self, batch: int) -> str:
        """The canonical manifest path for a finalized batch number."""
        return f"{self.directory}/ckpt-{batch:06d}"

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def write(
        self,
        batch: int,
        cursor: int,
        label_model_state: dict,
        meta: dict | None = None,
        drift_state: dict | None = None,
    ) -> str:
        """Atomically publish one manifest.

        Args:
            batch: Last finalized batch sequence number.
            cursor: Examples consumed up to and including ``batch``.
            label_model_state: :meth:`OnlineLabelModel.state_dict`.
            meta: Extra meta fields (batch size, LF names, source
                cursor position).
            drift_state: Optional :meth:`DriftMonitor.state_dict`;
                omitted records keep the manifest readable by any
                consumer (the record simply isn't there, exactly as in
                pre-drift manifests).

        Returns:
            The finalized manifest path.
        """
        final = self.manifest_path(batch)
        staged = f"{self.directory}/.staged-ckpt-{batch:06d}"
        # A writer that crashed after create() but before the rename
        # leaves an invisible staged file under this name; clear it.
        self._dfs.abandon(staged)
        with RecordWriter(self._dfs, staged, final_path=final) as writer:
            writer.write(
                {
                    "kind": "meta",
                    "schema": MANIFEST_SCHEMA,
                    "batch": batch,
                    "cursor": cursor,
                    **(meta or {}),
                }
            )
            writer.write({"kind": "label_model", "state": label_model_state})
            if drift_state is not None:
                writer.write({"kind": "drift", "state": drift_state})
        return final

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def manifest_paths(self) -> list[str]:
        """All finalized manifests, oldest first.

        Ordered by the parsed batch id, not lexicographically — names
        grow past their 6-digit zero padding at batch 1,000,000, where
        string order would rank ``ckpt-1000000`` before ``ckpt-999999``.
        """
        matched = [
            (int(match.group("batch")), path)
            for path in self._dfs.list(f"{self.directory}/")
            if (match := _MANIFEST_RE.search(path))
        ]
        return [path for _, path in sorted(matched)]

    def latest_path(self) -> str | None:
        """Path of the newest manifest without decoding it."""
        paths = self.manifest_paths()
        return paths[-1] if paths else None

    def latest(self) -> Checkpoint | None:
        """The newest finalized manifest, or ``None`` on a fresh root."""
        path = self.latest_path()
        return None if path is None else self.load(path)

    def load(self, path: str) -> Checkpoint:
        """Decode one manifest into a :class:`Checkpoint`.

        Args:
            path: A finalized manifest path.

        Returns:
            The decoded :class:`Checkpoint` (the drift state is ``None``
            when its record is absent).

        Raises:
            ValueError: If the file is not a manifest, has an
                unsupported schema, lacks the meta ``batch`` / ``cursor``
                (or holds one that is not an ``int``) or the label-model
                record, or holds a record that is not a dict with a
                string ``kind`` and a ``state``.
        """
        records = read_records(self._dfs, path)
        if not records or not isinstance(records[0], dict) or records[0].get("kind") != "meta":
            raise ValueError(f"{path} is not a checkpoint manifest")
        meta = records[0]
        if meta.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"{path} has manifest schema {meta.get('schema')!r}, "
                f"this reader supports {MANIFEST_SCHEMA}"
            )
        if "batch" not in meta or "cursor" not in meta:
            raise ValueError(f"{path} has no batch or cursor in its meta")
        for record in records[1:]:
            require_fields(record, f"{path} record", ("kind", "state"))
            if not isinstance(record["kind"], str):
                raise ValueError(f"{path} has a record kind {record['kind']!r}")
        states = {r["kind"]: r["state"] for r in records[1:]}
        if "label_model" not in states:
            raise ValueError(f"{path} is missing the label-model state")
        return Checkpoint(
            path=path,
            batch=require_int(meta["batch"], "batch"),
            cursor=require_int(meta["cursor"], "cursor"),
            meta={
                k: v
                for k, v in meta.items()
                if k not in ("kind", "schema", "batch", "cursor")
            },
            label_model_state=states["label_model"],
            drift_state=states.get("drift"),
        )


@dataclass
class CheckpointedRunReport:
    """Everything one checkpointed (possibly resumed) run reports."""

    stream: StreamReport
    resumed_from_batch: int | None
    skipped_examples: int
    batches_finalized: int
    last_batch_seq: int
    checkpoints_written: int
    orphan_shards_deleted: list[str] = field(default_factory=list)
    manifest_path: str | None = None
    #: Examples decoded and *discarded* to reach the cursor. 0 when the
    #: source supports cursor seek (the manifest stored a shard/offset
    #: position); equals ``skipped_examples`` only on the legacy replay
    #: path (plain iterables, or manifests written before cursors).
    replayed_examples: int = 0


class _CursorTracker:
    """Records the source cursor at every micro-batch boundary.

    Wraps the source's ``(example, cursor)`` stream. The pipeline's one
    loop both feeds it (assembling batches) and queries it (writing a
    manifest); by then the boundary is always recorded, since the batch
    being checkpointed was fully assembled first. Positions below the
    last written checkpoint are pruned, so the map stays bounded by the
    pipeline's in-flight window.
    """

    def __init__(
        self,
        pairs: Iterable[tuple[Example, SourceCursor]],
        batch_size: int,
        base_count: int,
    ) -> None:
        self._pairs = pairs
        self._batch_size = batch_size
        self._base_count = base_count
        self._positions: dict[int, SourceCursor] = {}

    def __iter__(self) -> Iterator[Example]:
        count = self._base_count
        last: SourceCursor | None = None
        for example, cursor in self._pairs:
            count += 1
            last = cursor
            if count % self._batch_size == 0:
                self._positions[count] = cursor
            yield example
        # The trailing partial batch ends at EOF; record it so the final
        # checkpoint can still carry a seekable position.
        if last is not None and count % self._batch_size != 0:
            self._positions[count] = last

    def position_for(self, count: int) -> SourceCursor | None:
        return self._positions.get(count)

    def prune_below(self, count: int) -> None:
        for key in [k for k in self._positions if k < count]:
            del self._positions[key]


class _NamedSink:
    """One of the stream's own per-batch steps as a named pipeline sink,
    so its time reads as ``sink/<name>/*``."""

    def __init__(self, name: str, step: BatchSink) -> None:
        self.name = name
        self._step = step

    def __call__(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> None:
        self._step(seq, examples, votes)


class CheckpointedStream:
    """Durable, resumable micro-batch labeling over an example source.

    Owns the online label model, runs the pipeline's sinks ``label_model``
    (fold and solve), ``drift`` (with a policy), ``votes``, ``labels``
    (with ``write_labels``) and ``checkpoint`` in that order, checkpoints
    every ``checkpoint_every`` finalized batches plus once at stream end, and
    — when the root already holds a manifest — resumes instead of
    restarting: restore state, drop orphan shards, skip consumed
    examples, continue batch numbering. ``run`` is idempotent; invoking it on a completed root
    replays nothing and rewrites nothing.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        lfs: Sequence[AbstractLabelingFunction],
        root: str,
        batch_size: int = 1024,
        max_resident_batches: int = 2,
        online_config: OnlineLabelModelConfig | None = None,
        checkpoint_every: int = 1,
        write_labels: bool = True,
        executor=None,
        drift: DriftPolicy | None = None,
        telemetry=None,
    ) -> None:
        """Configure a durable, resumable stream.

        Args:
            dfs: The filesystem holding shards and manifests.
            lfs: Labeling-function suite (fixed for the root's life).
            root: Durable root; sinks and manifests live under it.
            batch_size: Micro-batch size (pinned by the first manifest).
            max_resident_batches: The pool's in-flight window (an
                inline run holds one batch).
            online_config: Online label model configuration, including
                its retention mode (cumulative / decay).
            checkpoint_every: Manifest cadence in finalized batches.
            write_labels: Also persist per-batch probabilistic labels.
            executor: A live :class:`repro.parallel.ParallelLabelExecutor`
                to label batches on; built and closed by the caller.
            drift: Optional :class:`repro.core.drift.DriftPolicy`. When
                set, each run owns a :class:`DriftMonitor` fed by the
                ``drift`` sink, snapshotted into every manifest
                (bit-exactly), its activity counted as ``drift/*`` on
                :attr:`metrics`.
            telemetry: Optional :class:`repro.obs.MetricsRegistry`
                shared with the pipeline and :attr:`metrics` (manifest
                writes, ``drift/*``). Purely observational
                — manifests and shards stay byte-identical with or
                without it.

        Raises:
            ValueError: On a non-positive ``checkpoint_every``.
        """
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._dfs = dfs
        self.lfs = list(lfs)
        self.root = root.rstrip("/")
        self.batch_size = batch_size
        self.max_resident_batches = max_resident_batches
        self.online_config = online_config or OnlineLabelModelConfig()
        self.checkpoint_every = checkpoint_every
        self.write_labels = write_labels
        #: Pool labeling (the caller's process pool); sinks and
        #: manifests still finalize strictly in batch order, so durable
        #: bytes stay identical to an inline run.
        self.executor = executor
        #: Drift policy; each run() builds a fresh monitor from it (and
        #: restores the manifest's monitor snapshot on resume).
        self.drift_policy = drift
        self.telemetry = telemetry
        #: Manifest writes and drift activity, over every run.
        self.metrics = MetricsRegistry().attach(telemetry)
        self.manager = CheckpointManager(dfs, self.root)
        self.online = OnlineLabelModel(self.online_config)
        self.drift_monitor: DriftMonitor | None = None
        # Per-run state, rebuilt by run().
        self._cursor = 0
        self._last_seq = -1
        self._last_checkpoint_seq = -1
        self._checkpoints_written = 0
        self._fail_after: int | None = None
        self._tracker: _CursorTracker | None = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        source: Iterable[Example],
        fail_after_batch: int | None = None,
    ) -> CheckpointedRunReport:
        """Fresh run or resume, decided by the manifest directory.

        ``fail_after_batch`` injects a :class:`SimulatedCrash` once the
        batch with that (absolute) sequence number is fully finalized —
        shards written, manifest written if due — which is exactly the
        failure envelope a real crash-resume must survive.
        """
        checkpoint = self.manager.latest()
        self.online = OnlineLabelModel(self.online_config)
        self.drift_monitor = None
        if self.drift_policy is not None:
            self.drift_monitor = DriftMonitor(self.drift_policy)
        resumed_from: int | None = None
        cursor = 0
        lf_names = [lf.name for lf in self.lfs]
        if checkpoint is not None:
            stored = checkpoint.meta.get("batch_size")
            if stored is not None and stored != self.batch_size:
                raise ValueError(
                    f"cannot resume with batch_size={self.batch_size}; "
                    f"the manifest was written with batch_size={stored} "
                    "and resume must reproduce batch boundaries"
                )
            stored_lfs = checkpoint.meta.get("lf_names")
            if stored_lfs is not None and stored_lfs != lf_names:
                raise ValueError(
                    "cannot resume with a different LF suite: the "
                    f"manifest was written with {stored_lfs}, this run "
                    f"has {lf_names}; new shards would not be "
                    "column-compatible with the durable ones"
                )
            self.online.load_state(checkpoint.label_model_state)
            # Monitor state restores only when this run monitors drift
            # AND the manifest carries a snapshot; a pre-drift manifest
            # (or one written without a policy) starts the monitor
            # fresh, and a manifest written *with* drift state resumes
            # bit-exactly — same scores, same alarm batches.
            if (
                self.drift_monitor is not None
                and checkpoint.drift_state is not None
            ):
                self.drift_monitor.load_state(checkpoint.drift_state)
            resumed_from = checkpoint.batch
            cursor = checkpoint.cursor

        # The labels include their own batch, a drift reset lands before
        # anything durable sees it, and a manifest follows its shards.
        sinks: list = [_NamedSink("label_model", self._learn)]
        if self.drift_monitor is not None:
            sinks.append(_NamedSink("drift", self._watch_drift))
        vote_sink = VoteSink(self._dfs, self.root, lf_names)
        label_sink = LabelSink(self._dfs, self.root, self.online.predict_proba)
        sinks.append(vote_sink)
        if self.write_labels:
            sinks.append(label_sink)
        sinks.append(_NamedSink("checkpoint", self._finalize_batch))

        # Recovery truncation: durable output is only trusted up to the
        # manifest — anything newer was mid-flight when we died. Label
        # orphans go whether or not this run writes labels: a label
        # block takes its ids from the vote shard of its batch, which
        # this run rewrites.
        last_durable = -1 if resumed_from is None else resumed_from
        orphans = vote_sink.delete_after(last_durable)
        orphans += label_sink.delete_after(last_durable)

        self._cursor = cursor
        self._last_seq = last_durable
        self._last_checkpoint_seq = last_durable
        self._checkpoints_written = 0
        self._fail_after = fail_after_batch

        pipeline = MicroBatchPipeline(
            self.lfs,
            batch_size=self.batch_size,
            max_resident_batches=self.max_resident_batches,
            sinks=sinks,
            first_batch_seq=last_durable + 1,
            executor=self.executor,
            telemetry=self.telemetry,
        )
        # Source replay: seek when we can, replay-and-discard when we
        # must. A cursor-capable source resumes at the manifest's
        # (shard, byte offset) position and decodes O(1) work past it;
        # plain iterables — and manifests written before source cursors
        # existed — fall back to decoding and discarding the consumed
        # prefix (the old O(n) behaviour, kept for compatibility).
        replayed = 0
        self._tracker = None
        if hasattr(source, "iter_with_cursor"):
            start = (
                SourceCursor.from_meta(checkpoint.meta)
                if checkpoint is not None
                else None
            )
            pairs = source.iter_with_cursor(start)
            if start is None and cursor:
                pairs = islice(pairs, cursor, None)
                replayed = cursor
            self._tracker = _CursorTracker(pairs, self.batch_size, cursor)
            stream: Iterable[Example] = iter(self._tracker)
        else:
            stream = iter(source)
            if cursor:
                stream = islice(stream, cursor, None)
                replayed = cursor
        report = pipeline.run(stream)

        # Stream drained cleanly: pin the final state even when the last
        # batch fell between checkpoint cadences.
        if self._last_seq > self._last_checkpoint_seq:
            self._write_checkpoint(self._last_seq)
        # Re-snapshot so the report sees the end-of-stream manifest
        # write too (the pipeline snapshots before it happens).
        report.telemetry = self.metrics.attached_snapshot()
        return CheckpointedRunReport(
            stream=report,
            resumed_from_batch=resumed_from,
            skipped_examples=cursor,
            batches_finalized=report.batches,
            last_batch_seq=self._last_seq,
            checkpoints_written=self._checkpoints_written,
            orphan_shards_deleted=orphans,
            manifest_path=self.manager.latest_path(),
            replayed_examples=replayed,
        )

    # ------------------------------------------------------------------
    # per-batch stages (the pipeline's sink stage)
    # ------------------------------------------------------------------
    def _learn(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> None:
        """Model update — runs before the durable sinks."""
        self.online.observe(votes)

    def _watch_drift(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> None:
        """Feed the monitor and count what it did under ``drift/*``."""
        check = self.drift_monitor.observe_batch(votes)
        self.metrics.counter("drift/batches")
        if check.checked:
            self.metrics.counter("drift/checks")
            self.metrics.record("stream/drift_score", check.score)
        if check.alarmed:
            self.metrics.counter("drift/alarms")
            if self.drift_policy.reset_on_alarm:
                self.metrics.counter("drift/reference_resets")

    def _finalize_batch(
        self, seq: int, examples: list[Example], votes: np.ndarray
    ) -> None:
        """Last sink stage: advance the cursor, checkpoint, maybe crash."""
        self._cursor += len(examples)
        self._last_seq = seq
        if (seq + 1) % self.checkpoint_every == 0:
            self._write_checkpoint(seq)
        if self._fail_after is not None and seq >= self._fail_after:
            raise SimulatedCrash(
                f"injected crash after finalizing batch {seq}"
            )

    def _write_checkpoint(self, seq: int) -> str:
        started = self.metrics.clock()
        meta = {
            "batch_size": self.batch_size,
            "checkpoint_every": self.checkpoint_every,
            "lf_names": [lf.name for lf in self.lfs],
        }
        if self._tracker is not None:
            position = self._tracker.position_for(self._cursor)
            if position is not None:
                meta.update(position.as_meta())
            self._tracker.prune_below(self._cursor)
        path = self.manager.write(
            seq,
            self._cursor,
            self.online.state_dict(),
            meta=meta,
            drift_state=(
                None
                if self.drift_monitor is None
                else self.drift_monitor.state_dict()
            ),
        )
        self._last_checkpoint_seq = seq
        self._checkpoints_written += 1
        self.metrics.stage(
            "stream.checkpoint", since=started, seq=seq, path=path
        )
        return path
