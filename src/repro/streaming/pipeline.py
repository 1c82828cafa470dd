"""The micro-batch streaming scheduler.

:class:`MicroBatchPipeline` converts an example source into a continuous
labeling run on the calling thread. Each pass of its one loop assembles
the next micro-batch from the source, labels it with the same block
kernel the offline applier uses
(:func:`repro.lf.applier.label_example_block` — fused token-match
executor plus per-LF batch kernels), and hands the finalized votes to
sink callbacks (online label model update, end-model training, vote
persistence) strictly in batch order. The pipeline starts no thread:
decoding, labeling, model updates and sink writes are all GIL-bound
Python, so a second thread could only trade the GIL back and forth with
this one, never overlap it.

Two label paths
---------------
:meth:`MicroBatchPipeline.run` picks one per run:

* **inline** (default): the calling thread labels each batch as soon as
  it is assembled, so one batch is resident at a time and the source is
  never more than one batch ahead of the sinks.
* **pool** (``executor=``): the batches go through the caller's
  :meth:`repro.parallel.ParallelLabelExecutor.label_blocks` with
  ``max_resident_batches`` as its window — the executor's one windowed
  submit/drain loop. It reads the next batch only while fewer than that
  many are in flight, hands back every finished head block at once, and
  blocks on the oldest only while the window is full. Blocks come back
  oldest-submission first (the executor owns sequence numbers and
  retries; this module keeps no reorder buffer), so sinks and
  checkpoints see exactly the order an inline run produces, and
  streamed votes, sink shards and posteriors stay bit-exact at any
  worker count (asserted by the equivalence suite).

A batch's records count as resident from the moment it is assembled
until its sinks have run. The loop bounds that by construction — one
batch inline, ``max_resident_batches`` on the pool (decoded, labeling,
or awaiting in-order release) — and a
:class:`repro.obs.counters.Gauge` tracks the high-water mark so
benchmarks can assert the bound rather than trust it.

Observability
-------------
Each run owns one scoped :class:`repro.obs.MetricsRegistry`: the per-run
counters on the report, the residency gauge, and the seam its stage
events (``stream.ingest`` / ``stream.label`` / ``stream.sink``) go
through — :data:`repro.obs.contract.KEY_CONTRACT` lists every key and
the stage that feeds it. Events reach the ``telemetry=`` registry as they
happen, so a mid-stream snapshot is consistent. What the table cannot say:

* a batch's ``stream.label`` event is emitted when the loop finalizes
  it; on the pool ``label/us`` sums *worker-side* time across processes
  (it can exceed wall time) and ``queue/wait_us`` is dispatch-to-release
  latency, while inline nothing queues and it stays 0;
* on the pool, a wait on a full window is the backpressure:
  ``ingest/backpressure_waits`` / ``ingest/wait_us`` — *not*
  ``queue/wait_us`` — and ``ingest/encode_us`` is the hand-off to the
  pool. All three are pool-only;
* the drift monitor (``drift/*``) is fed in batch order, *after* the
  ``on_batch`` callback (a model sink has already observed the batch)
  and *before* the durable sinks (manifests see post-reaction state).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.lf.applier import (
    fused_lf_columns,
    label_example_block,
    start_lf_resources,
    stop_lf_resources,
)
from repro.lf.base import AbstractLabelingFunction
from repro.obs.counters import Gauge
from repro.obs.registry import MetricsRegistry
from repro.streaming.sources import iter_example_batches
from repro.types import Example, LabelMatrix

__all__ = [
    "MicroBatchPipeline",
    "PipelineStats",
    "StreamReport",
]

#: Sink callback: (batch_index, examples, votes) — runs on the calling
#: thread, in batch order, while the batch's records still count as
#: resident (the examples are guaranteed alive for the duration).
BatchSink = Callable[[int, list[Example], np.ndarray], None]


@dataclass
class _Batch:
    """One micro-batch on its way through a run: assembly fills the
    first four fields, labeling the last three."""

    seq: int
    examples: list[Example]
    created: float
    enqueued: float
    votes: np.ndarray | None = None
    label_us: int = 0
    wait_us: int = 0


@dataclass
class _Run:
    """One run's mutable state."""

    #: This run's scoped registry, and its residency gauge (held because
    #: every batch moves it twice).
    metrics: MetricsRegistry
    resident: Gauge
    batches_done: int = 0
    examples_done: int = 0
    votes_emitted: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0
    collected_votes: list[np.ndarray] = field(default_factory=list)
    collected_ids: list[str] = field(default_factory=list)


@dataclass
class PipelineStats:
    """One stage's aggregate throughput numbers."""

    name: str
    batches: int
    records: int
    seconds: float

    @property
    def records_per_second(self) -> float:
        """Stage throughput; a stage that recorded no time reports 0.0
        — never inf, which the report once produced for a sink stage
        that never ran."""
        if self.seconds <= 0:
            return 0.0
        return self.records / self.seconds


@dataclass
class StreamReport:
    """Everything one pipeline run reports."""

    examples: int
    batches: int
    lf_count: int
    wall_seconds: float
    peak_resident_records: int
    max_resident_records: int
    backpressure_waits: int
    votes_emitted: int
    mean_batch_latency_seconds: float
    max_batch_latency_seconds: float
    counters: dict[str, int] = field(default_factory=dict)
    label_matrix: LabelMatrix | None = None
    workers: int = 1
    #: Final telemetry-registry snapshot (``None`` when the run had no
    #: registry attached) — counters, gauges, and stage histograms with
    #: p50/p90/p99, per the key contract in ``repro.obs``.
    telemetry: dict | None = None

    @property
    def examples_per_second(self) -> float:
        """End-to-end sustained throughput over the run's wall time."""
        if self.wall_seconds <= 0:
            return float("inf") if self.examples else 0.0
        return self.examples / self.wall_seconds

    def stage(self, name: str) -> PipelineStats:
        """Summarize one stage ("ingest", "label", "sink") from counters.

        Every stage reads its *own* record/batch counters — the sink
        stage of a sink-less run reports zeros, not the ingest volume
        (and never an infinite rate).
        """
        time_key = {
            "ingest": "ingest/decode_us",
            "label": "label/us",
            "sink": "sink/us",
        }[name]
        return PipelineStats(
            name=name,
            batches=self.counters.get(f"{name}/batches", 0),
            records=self.counters.get(f"{name}/records", 0),
            seconds=self.counters.get(time_key, 0) / 1e6,
        )

    def stages(self) -> dict[str, PipelineStats]:
        """All three stage summaries, keyed ``ingest``/``label``/``sink``."""
        return {name: self.stage(name) for name in ("ingest", "label", "sink")}


class MicroBatchPipeline:
    """Bounded-memory micro-batch labeling over an example stream."""

    def __init__(
        self,
        lfs: Sequence[AbstractLabelingFunction],
        batch_size: int = 1024,
        max_resident_batches: int = 2,
        on_batch: BatchSink | None = None,
        collect_votes: bool = False,
        sinks: Sequence[BatchSink] | None = None,
        first_batch_seq: int = 0,
        executor=None,
        drift_monitor=None,
        telemetry=None,
        tracer=None,
    ) -> None:
        """Configure the pipeline.

        Args:
            lfs: The labeling-function suite, applied per micro-batch
                through the same block kernel as the offline applier.
            batch_size: Examples per micro-batch.
            max_resident_batches: The pool's window — the hard bound on
                decoded micro-batches in flight there. An inline run
                holds one.
            on_batch: Callback ``(seq, examples, votes)`` run first per
                finalized batch (model updates).
            collect_votes: Keep every batch's votes and return them as
                one :class:`~repro.types.LabelMatrix` on the report.
            sinks: Ordered durable sinks, run after ``on_batch`` while
                the batch's records still count as resident.
            first_batch_seq: Batch numbering offset (resume support).
            executor: A live :class:`repro.parallel.ParallelLabelExecutor`
                whose suite spec rebuilds ``lfs``: batches are labeled
                on its process pool. The pool is the caller's — a run
                resets its in-flight state on the way out and never
                closes it.
            drift_monitor: Optional
                :class:`repro.core.drift.DriftMonitor` fed every
                finalized batch's votes, in order, between ``on_batch``
                and the sinks; its activity lands in the ``drift/*``
                counters.
            telemetry: Optional :class:`repro.obs.MetricsRegistry`.
                Every event of a run is forwarded to it as it happens
                (only it keeps the ``stream/*`` histograms) and the
                report carries its final snapshot. Telemetry never
                perturbs votes, shards, or posteriors.
            tracer: Optional :class:`repro.obs.Tracer`. When enabled,
                each stage event is also emitted as a span (sampling
                and ids are deterministic — no RNG is touched).

        Raises:
            ValueError: On non-positive sizes or a negative
                ``first_batch_seq``.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_resident_batches < 1:
            raise ValueError(
                f"max_resident_batches must be >= 1, got {max_resident_batches}"
            )
        if first_batch_seq < 0:
            raise ValueError(
                f"first_batch_seq must be >= 0, got {first_batch_seq}"
            )
        self.lfs = list(lfs)
        self.batch_size = batch_size
        self.max_resident_batches = max_resident_batches
        self.on_batch = on_batch
        self.collect_votes = collect_votes
        #: Ordered sink stage: each callable runs after ``on_batch``, in
        #: batch order, while the batch's records still count as
        #: resident (a slow sink slows the stream; it never grows
        #: memory). Each sink gets its own counters keyed by its
        #: ``name`` attribute (class name when absent).
        self.sinks = list(sinks) if sinks else []
        #: Batch numbering offset — a resumed stream continues the
        #: uninterrupted run's sequence so sink shard names line up.
        self.first_batch_seq = first_batch_seq
        #: The caller's process pool, or ``None`` to label inline on the
        #: calling thread.
        self.executor = executor
        #: Drift monitor fed per finalized batch (batch order) — between
        #: ``on_batch`` and the sink stage, so a reference reset lands
        #: before anything durable observes it.
        self.drift_monitor = drift_monitor
        #: Optional telemetry registry and span tracer each run's scoped
        #: registry forwards to; both are pure observers.
        self.telemetry = telemetry
        self.tracer = tracer

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, source: Iterable[Example]) -> StreamReport:
        """Drain the source through the pipeline; returns the report.

        One loop on the calling thread assembles, labels and finalizes
        each batch in turn; labeling runs inline or on the worker pool.
        An error from the source, the kernel or a sink raises where it
        happens.
        """
        metrics = MetricsRegistry().attach(self.telemetry, self.tracer)
        run = _Run(metrics, metrics.gauge("stream/resident_records"))
        batches = self._assemble(run, source)
        wall_start = time.perf_counter()
        if self.executor is None:
            self._label_inline(run, batches)
        else:
            self._label_on_pool(run, batches)
        return self._build_report(run, time.perf_counter() - wall_start)

    # ------------------------------------------------------------------
    # pieces of the loop
    # ------------------------------------------------------------------
    def _assemble(self, run: _Run, source: Iterable[Example]) -> Iterator[_Batch]:
        """Assemble micro-batches from the source, one ``stream.ingest``
        event each; a batch's records count as resident from here."""
        batches = iter_example_batches(source, self.batch_size)
        for seq in count(self.first_batch_seq):
            started = time.perf_counter()
            examples = next(batches, None)
            if examples is None:
                return
            run.resident.add(len(examples))
            now = time.perf_counter()
            run.metrics.stage(
                "stream.ingest",
                int((now - started) * 1e6),
                seq=seq,
                records=len(examples),
            )
            yield _Batch(seq, examples, started, now)

    def _label_inline(self, run: _Run, batches: Iterator[_Batch]) -> None:
        """Label each batch on the calling thread as it is assembled."""
        fused_cols = fused_lf_columns(self.lfs)
        start_lf_resources(self.lfs)
        try:
            for batch in batches:
                started = time.perf_counter()
                batch.votes = label_example_block(
                    self.lfs, batch.examples, fused_cols
                )
                batch.label_us = int((time.perf_counter() - started) * 1e6)
                self._finish_batch(run, batch)
        finally:
            stop_lf_resources(self.lfs)

    def _label_on_pool(self, run: _Run, batches: Iterator[_Batch]) -> None:
        """Label on the caller's pool through its windowed loop.

        The pool outlives the run: ``label_blocks`` resets its in-flight
        state whenever the run ends early, so a failed run cannot leave
        blocks that collide with or stall the resume.
        """
        handed: deque[_Batch] = deque()

        def blocks():
            for batch in batches:
                handed.append(batch)
                yield batch.seq, batch.examples

        labeled = self.executor.label_blocks(
            blocks(), window=self.max_resident_batches
        )
        with closing(labeled):
            for block in labeled:
                if block.votes.shape[1] != len(self.lfs):
                    raise ValueError(
                        f"worker suite produced {block.votes.shape[1]} vote "
                        f"columns; this pipeline has {len(self.lfs)} LFs "
                        "— the suite_spec must rebuild the same suite"
                    )
                batch = handed.popleft()
                batch.votes = block.votes
                batch.label_us = block.label_us
                batch.wait_us = int(
                    (time.perf_counter() - batch.enqueued) * 1e6
                )
                run.metrics.counter("ingest/encode_us", block.encode_us)
                if block.wait_us:
                    run.metrics.counter("ingest/backpressure_waits")
                    run.metrics.counter("ingest/wait_us", block.wait_us)
                self._finish_batch(run, batch)

    def _finish_batch(self, run: _Run, batch: _Batch) -> None:
        """Post-labeling stages: the label event, ordered sinks, vote
        collection, latency, residency."""
        metrics = run.metrics
        votes = batch.votes
        records = len(batch.examples)
        batch_votes = int(np.count_nonzero(votes))
        run.votes_emitted += batch_votes
        metrics.stage(
            "stream.label",
            batch.label_us,
            seq=batch.seq,
            records=records,
            votes=batch_votes,
            wait_us=batch.wait_us,
        )
        sink_us = 0
        if self.on_batch is not None:
            sink_start = time.perf_counter()
            self.on_batch(batch.seq, batch.examples, votes)
            sink_us += int((time.perf_counter() - sink_start) * 1e6)
        if self.drift_monitor is not None:
            check = self.drift_monitor.observe_batch(votes)
            metrics.counter("drift/batches")
            if check.checked:
                metrics.counter("drift/checks")
                metrics.record("stream/drift_score", check.score)
            if check.alarmed:
                metrics.counter("drift/alarms")
            if "reset_reference" in check.reactions:
                metrics.counter("drift/reference_resets")
        for sink in self.sinks:
            sink_start = time.perf_counter()
            sink(batch.seq, batch.examples, votes)
            elapsed_us = int((time.perf_counter() - sink_start) * 1e6)
            sink_us += elapsed_us
            name = getattr(sink, "name", type(sink).__name__)
            for unit, amount in (
                ("us", elapsed_us),
                ("batches", 1),
                ("records", records),
            ):
                metrics.counter(f"sink/{name}/{unit}", amount)
        if self.on_batch is not None or self.sinks:
            metrics.stage(
                "stream.sink", sink_us, seq=batch.seq, records=records
            )
        if self.collect_votes:
            run.collected_votes.append(votes)
            run.collected_ids.extend(e.example_id for e in batch.examples)
        run.batches_done += 1
        run.examples_done += records
        latency = time.perf_counter() - batch.created
        run.latency_sum += latency
        run.latency_max = max(run.latency_max, latency)
        metrics.record("stream/batch_latency_us", int(latency * 1e6))
        # The batch's records leave the pipeline here.
        run.resident.subtract(records)

    def _build_report(self, run: _Run, wall: float) -> StreamReport:
        counters = run.metrics.counters.as_dict()
        label_matrix = None
        if self.collect_votes:
            stacked = (
                np.vstack(run.collected_votes)
                if run.collected_votes
                else np.zeros((0, len(self.lfs)), dtype=np.int8)
            )
            label_matrix = LabelMatrix(
                stacked, run.collected_ids, [lf.name for lf in self.lfs]
            )
        return StreamReport(
            examples=run.examples_done,
            batches=run.batches_done,
            lf_count=len(self.lfs),
            wall_seconds=wall,
            peak_resident_records=run.resident.peak,
            max_resident_records=self.max_resident_batches * self.batch_size,
            backpressure_waits=counters.get("ingest/backpressure_waits", 0),
            votes_emitted=run.votes_emitted,
            mean_batch_latency_seconds=(
                run.latency_sum / run.batches_done
                if run.batches_done
                else 0.0
            ),
            max_batch_latency_seconds=run.latency_max,
            counters=counters,
            label_matrix=label_matrix,
            workers=1 if self.executor is None else self.executor.workers,
            telemetry=run.metrics.attached_snapshot(),
        )
