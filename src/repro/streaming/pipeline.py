"""The micro-batch streaming scheduler.

:class:`MicroBatchPipeline` converts an example source into a continuous
labeling run: an ingest thread decodes examples and assembles
micro-batches; labeling runs the same block-labeling kernel the offline
applier uses (:func:`repro.lf.applier.label_example_block` — fused
token-match executor plus per-LF batch kernels); finalized votes are
handed to sink callbacks (online label model update, end-model training,
vote persistence) strictly in batch order.

One loop, two label stages
--------------------------
There is one ingest closure and one consumer loop; *where* the kernel
executes sits behind a small internal label stage. The ingest thread
calls ``dispatch(batch)`` and ``end_input()``; the calling thread calls
``take()`` — the next labeled batch **in sequence order**, ``None`` at
end of input — and ``close()``. :meth:`MicroBatchPipeline.run` picks
the stage once:

* **inline** (default): a FIFO hand-off queue; the calling thread labels
  each batch as it leaves the queue, so arrival order is batch order.
* **pool** (``executor=``): the ingest thread submits each decoded batch
  to the caller's :class:`repro.parallel.ParallelLabelExecutor` process
  pool, which hands blocks back oldest-submission first — order
  is restored in the executor, which owns sequence numbers and retries,
  and this module keeps no reorder buffer. Sinks and checkpoints see
  exactly the order an inline run produces, so streamed votes, sink
  shards, and posteriors stay bit-exact at any worker count (asserted
  by the equivalence suite).

Flow control is admission-based, not just queue-based: the ingest stage
must hold one *residency permit* per in-flight micro-batch before it may
decode the batch's records, and the permit is only returned after the
batch has been labeled and the sink has consumed it. With the default
``max_resident_batches=2`` the pipeline never holds more than two
micro-batches of decoded records no matter how fast the source is — and
on the pool the same permits bound the batches in flight *across all
workers* (decoded, queued, labeling, or parked awaiting in-order
release). A :class:`repro.mapreduce.counters.Gauge` tracks the actual
high-water mark so benchmarks can assert the bound rather than trust it.

Observability
-------------
Each run owns one scoped :class:`repro.obs.MetricsRegistry`: the per-run
counters on the report, the residency gauge, and the seam its stage
events (``stream.ingest`` / ``stream.label`` / ``stream.sink``) go
through — :data:`repro.obs.contract.KEY_CONTRACT` lists every key and
the stage that feeds it. Events reach the ``telemetry=`` registry as they
happen, so a mid-stream snapshot is consistent. What the table cannot say:

* a batch's ``stream.label`` event is emitted when the consumer loop
  takes it, i.e. at in-order release on either stage; on the pool
  ``label/us`` sums *worker-side* time across processes (it can exceed
  wall time) and ``queue/wait_us`` is dispatch-to-release latency;
* backpressure stalls land in ``ingest/backpressure_waits`` /
  ``ingest/wait_us`` — *not* in ``queue/wait_us``;
* the drift monitor (``drift/*``) is fed on the consumer thread, in
  batch order, *after* the ``on_batch`` callback (a model sink has
  already observed the batch when a forced refit fires) and *before* the
  durable sinks (label sinks and manifests see post-reaction state).
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.lf.applier import (
    fused_lf_columns,
    label_example_block,
    start_lf_resources,
    stop_lf_resources,
)
from repro.lf.base import AbstractLabelingFunction
from repro.mapreduce.counters import Gauge
from repro.obs.registry import MetricsRegistry
from repro.streaming.sources import iter_example_batches
from repro.types import Example, LabelMatrix

__all__ = [
    "MicroBatchPipeline",
    "PipelineStats",
    "StreamReport",
]

#: Sink callback: (batch_index, examples, votes) — runs on the consumer
#: thread, in batch order, while the batch still holds its residency
#: permit (the examples are guaranteed alive for the duration).
BatchSink = Callable[[int, list[Example], np.ndarray], None]

#: Bound on the shutdown join of the ingest thread. On every exit path
#: the stop flag is set and a residency permit released before joining,
#: so the producer unblocks within one queue/permit wait; exceeding
#: this bound means it is wedged and the error must surface.
_JOIN_TIMEOUT_S = 5.0


def _join_producer(producer: threading.Thread) -> None:
    """Join the ingest thread within the shutdown bound or fail loudly.

    Raises:
        RuntimeError: If the producer is still alive after the bound.
    """
    producer.join(timeout=_JOIN_TIMEOUT_S)
    if producer.is_alive():
        raise RuntimeError(
            "microbatch-ingest thread failed to stop within "
            f"{_JOIN_TIMEOUT_S:.0f}s"
        )


@dataclass
class _Batch:
    """One micro-batch on its way through a run: the ingest thread fills
    the first four fields, the label stage the last three."""

    seq: int
    examples: list[Example]
    created: float
    enqueued: float
    votes: np.ndarray | None = None
    label_us: int = 0
    wait_us: int = 0


@dataclass
class _Run:
    """One run's mutable state, shared by the ingest thread, the label
    stage and the finalizer."""

    permits: threading.Semaphore
    #: This run's scoped registry, and its residency gauge (held because
    #: ingest moves it once per decoded example).
    metrics: MetricsRegistry
    resident: Gauge
    stop: threading.Event = field(default_factory=threading.Event)
    ingest_error: BaseException | None = None
    batches_done: int = 0
    examples_done: int = 0
    votes_emitted: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0
    collected_votes: list[np.ndarray] = field(default_factory=list)
    collected_ids: list[str] = field(default_factory=list)


class _InlineStage:
    """Label stage that runs the kernel on the calling thread.

    One producer and one consumer share a FIFO queue, so hand-off order
    already is batch order.
    """

    def __init__(self, lfs: Sequence[AbstractLabelingFunction]) -> None:
        self._lfs = lfs
        self._fused_cols = fused_lf_columns(lfs)
        self._handoff: queue_module.Queue[_Batch | None] = queue_module.Queue()
        start_lf_resources(lfs)

    def dispatch(self, batch: _Batch) -> None:
        self._handoff.put(batch)

    def end_input(self) -> None:
        # Queued behind the batches already handed off: they are still
        # labeled and finalized before the run ends or re-raises.
        self._handoff.put(None)

    def take(self) -> _Batch | None:
        batch = self._handoff.get()
        if batch is None:
            return None
        label_start = time.perf_counter()
        batch.wait_us = int((label_start - batch.enqueued) * 1e6)
        batch.votes = label_example_block(
            self._lfs, batch.examples, self._fused_cols
        )
        batch.label_us = int((time.perf_counter() - label_start) * 1e6)
        return batch

    def close(self) -> None:
        stop_lf_resources(self._lfs)


class _PoolStage:
    """Label stage that runs the kernel on a process pool.

    The ingest thread submits each decoded batch to the
    :class:`repro.parallel.ParallelLabelExecutor` (one pickled block
    each way); :meth:`take` drains it, and the executor releases
    blocks oldest-submission first, so no reordering happens here.
    """

    #: How long one :meth:`take` poll waits for a completion before
    #: re-checking whether the input has ended.
    _POLL_S = 0.05

    def __init__(self, executor, lf_count: int, run: _Run) -> None:
        self._executor = executor
        self._lf_count = lf_count
        self._run = run
        #: seq -> dispatched batch; written by the ingest thread, popped
        #: once by :meth:`take` (disjoint keys).
        self._dispatched: dict[int, _Batch] = {}
        self._input_done = threading.Event()
        # Start the pool before the ingest thread exists: forked workers
        # must never inherit a half-running pipeline.
        self._executor.start()

    def dispatch(self, batch: _Batch) -> None:
        # The batch must be visible BEFORE the submit: a fast worker can
        # complete the block (and the consumer take it) before this
        # thread runs another line.
        self._dispatched[batch.seq] = batch
        self._executor.submit(batch.seq, batch.examples)
        self._run.metrics.counter(
            "ingest/encode_us",
            int((time.perf_counter() - batch.enqueued) * 1e6),
        )

    def end_input(self) -> None:
        self._input_done.set()

    def take(self) -> _Batch | None:
        while True:
            # A dead ingest thread (source error, failed dispatch) ends
            # the input at once: its error must surface now rather than
            # after worker completions that may never drain.
            if self._input_done.is_set() and (
                self._run.ingest_error is not None
                or self._executor.pending() == 0
            ):
                return None
            try:
                seq, _, votes, label_us = self._executor.next_completed(
                    timeout=self._POLL_S
                )
            except queue_module.Empty:
                continue
            if votes.shape[1] != self._lf_count:
                raise ValueError(
                    f"worker suite produced {votes.shape[1]} vote "
                    f"columns; this pipeline has {self._lf_count} LFs "
                    "— the suite_spec must rebuild the same suite"
                )
            batch = self._dispatched.pop(seq)
            batch.votes = votes
            batch.label_us = label_us
            batch.wait_us = int((time.perf_counter() - batch.enqueued) * 1e6)
            return batch

    def close(self) -> None:
        # The pool is the caller's and outlives the run, so it must not
        # carry this run's blocks into the next one — a failed run would
        # otherwise leave in-flight state that collides with or stalls
        # the resume. The ingest thread is joined by now, so nothing can
        # submit behind the reset.
        self._executor.reset()


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
            max_resident_batches: Residency-permit pool size — the hard
                bound on decoded micro-batches in flight.
            on_batch: Callback ``(seq, examples, votes)`` run first per
                finalized batch (model updates).
            collect_votes: Keep every batch's votes and return them as
                one :class:`~repro.types.LabelMatrix` on the report.
            sinks: Ordered durable sinks, run after ``on_batch`` while
                the batch holds its residency permit.
            first_batch_seq: Batch numbering offset (resume support).
            executor: A live :class:`repro.parallel.ParallelLabelExecutor`
                whose suite spec rebuilds ``lfs``: batches are labeled
                on its process pool (the pool label stage). The pool is
                the caller's — a run resets its in-flight state on the
                way out and never closes it.
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
        #: Ordered sink stage: each callable runs after ``on_batch``, on
        #: the consumer thread, while the batch holds its residency
        #: permit (sink time is therefore part of the backpressure
        #: accounting — a slow sink stalls ingest, it does not grow
        #: memory). Each sink gets its own counters keyed by its ``name``
        #: attribute (class name when absent).
        self.sinks = list(sinks) if sinks else []
        #: Batch numbering offset — a resumed stream continues the
        #: uninterrupted run's sequence so sink shard names line up.
        self.first_batch_seq = first_batch_seq
        #: Pool label stage: the caller's process pool, or ``None`` to
        #: label inline on the calling thread.
        self.executor = executor
        #: Drift monitor fed per finalized batch (consumer thread, batch
        #: order) — between ``on_batch`` and the sink stage, so forced
        #: refits mutate model state before anything durable observes it.
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

        The ingest stage runs on its own thread; the calling thread
        takes labeled batches from the label stage in sequence order
        and runs the sinks. Labeling itself runs wherever the stage
        puts it — on the calling thread (inline) or on the worker pool.
        """
        metrics = MetricsRegistry().attach(self.telemetry, self.tracer)
        run = _Run(
            threading.Semaphore(self.max_resident_batches),
            metrics,
            metrics.gauge("stream/resident_records"),
        )
        if self.executor is not None:
            stage = _PoolStage(self.executor, len(self.lfs), run)
        else:
            stage = _InlineStage(self.lfs)

        def produce() -> None:
            try:
                batches = iter_example_batches(
                    self._counted(iter(source), run.resident),
                    self.batch_size,
                )
                seq = self.first_batch_seq
                while not run.stop.is_set():
                    # Admission control: hold a residency permit BEFORE
                    # decoding the next batch's records.
                    self._acquire_permit(run)
                    if run.stop.is_set():
                        run.permits.release()
                        return
                    decode_start = time.perf_counter()
                    batch_examples = next(batches, None)
                    if batch_examples is None:
                        run.permits.release()
                        return
                    now = time.perf_counter()
                    metrics.stage(
                        "stream.ingest",
                        int((now - decode_start) * 1e6),
                        seq=seq,
                        records=len(batch_examples),
                    )
                    stage.dispatch(
                        _Batch(seq, batch_examples, decode_start, now)
                    )
                    seq += 1
            except BaseException as error:  # surfaced on the consumer side
                run.ingest_error = error
            finally:
                stage.end_input()

        wall_start = time.perf_counter()
        producer = threading.Thread(
            target=produce, name="microbatch-ingest", daemon=True
        )
        producer.start()
        try:
            while True:
                batch = stage.take()
                if batch is None:
                    break
                self._finish_batch(run, batch)
        except BaseException:
            # Wake the producer if it is blocked on a permit; with the
            # stop flag set it exits at the next check, so the join in
            # the finally block cannot hang.
            run.stop.set()
            run.permits.release()
            raise
        finally:
            _join_producer(producer)
            stage.close()
        if run.ingest_error is not None:
            raise run.ingest_error
        return self._build_report(run, time.perf_counter() - wall_start)

    # ------------------------------------------------------------------
    # pieces of the loop
    # ------------------------------------------------------------------
    def _counted(self, examples: Iterable[Example], resident: Gauge):
        for example in examples:
            resident.add(1)
            yield example

    def _acquire_permit(self, run: _Run) -> None:
        """Admission control, with backpressure stalls counted."""
        if not run.permits.acquire(blocking=False):
            run.metrics.counter("ingest/backpressure_waits")
            waited = time.perf_counter()
            run.permits.acquire()
            run.metrics.counter(
                "ingest/wait_us",
                int((time.perf_counter() - waited) * 1e6),
            )

    def _finish_batch(self, run: _Run, batch: _Batch) -> None:
        """Post-labeling stages: the label event, ordered sinks, vote
        collection, latency, permit return."""
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
            for reaction in check.reactions:
                if reaction == "refit":
                    metrics.counter("drift/forced_refits")
                elif reaction == "reset_reference":
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
        # The batch's records leave the pipeline here; only now may the
        # ingest stage decode a replacement batch.
        run.resident.subtract(records)
        run.permits.release()

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
