"""The shared process-pool labeling executor.

One :class:`ParallelLabelExecutor` serves both hot paths:

* the offline applier labels a flat example list (:meth:`label_examples`);
* the streaming pipeline iterates :meth:`label_blocks` over its
  micro-batches with its residency bound as the window, and finalizes
  each block it hands back while the workers label the ones behind.

Both run on one windowed submit/drain loop, :meth:`label_blocks`, on
the caller's thread; :meth:`submit` / :meth:`next_completed` are the
primitives under it.

Execution model
---------------
Each worker process runs :func:`_worker_init` once: rebuild the LF suite
from the picklable :class:`~repro.parallel.spec.LFSuiteSpec`, start its
offline resources, and precompute the fused-spec columns — the per-node
setup hook of the MapReduce engine, translated to processes. A task is
one pickled list of ``(example_id, fields, servable, non_servable,
label)`` tuples, never the ``Example`` objects, so a worker sees
exactly what decoding a record gives; the worker rebuilds each
``Example`` around the unpickled dicts, adopting them uncopied as
``Example.from_record`` adopts a decoded record's, runs the same
:func:`repro.lf.applier.label_example_block` kernel as a serial run, and
returns the ``int8`` vote block plus its labeling wall time.

Order is restored here and nowhere else: workers finish in any order,
but :meth:`next_completed` waits on the *oldest* in-flight future, so
blocks come back oldest-submission first and an early finisher simply
stays on its future until its turn (a retried block keeps its place;
:meth:`reset` forgets the futures with the rest). :meth:`label_blocks`
just drains it — so a parallel run's votes are positionally identical
to a serial run at any worker count.

Failure model
-------------
A task that raises retries on the (respawned) pool; a worker that *dies*
breaks the whole pool (`concurrent.futures` semantics) and fails every
in-flight future, so the executor rebuilds the pool and each in-flight
block is charged one attempt and resubmitted when its turn comes. A
task whose attempts exceed ``max_retries`` surfaces as
:class:`repro.mapreduce.runner.WorkerFailure` — the same exception the
MapReduce engine uses for exhausted map-task retries.

A submit that races a worker death can get back a future nothing will
ever resolve: CPython (3.11) fails a broken pool's pending work without
holding the lock ``submit`` registers new work under. So
:meth:`next_completed` waits in short slices, and an attempt whose pool
has since been replaced while its future is still pending counts as
failed like any other.

Workers ``fork`` where the platform can: they inherit the parent's
warmed module state (dataset caches, matcher tables), so pool spin-up
is milliseconds. Elsewhere they ``spawn``, which the spec-driven
bootstrap keeps correct, just slower on first build.
"""

from __future__ import annotations

import math
import os
import pickle
import queue as queue_module
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
)
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import multiprocessing
import numpy as np

from repro.mapreduce.runner import MAX_RETRIES, WorkerFailure
from repro.obs.histogram import (
    Histogram,
    decode_histograms,
    encode_histograms,
)
from repro.obs.registry import MetricsRegistry
from repro.parallel.spec import LFSuiteSpec
from repro.types import Example

__all__ = [
    "LabeledBlock",
    "ParallelLabelExecutor",
    "parallel_block_size",
    "DEFAULT_MAX_RETRIES",
]

#: Retry budget per block: the map-task runner's.
DEFAULT_MAX_RETRIES = MAX_RETRIES

#: Longest single wait on a future: between slices
#: :meth:`ParallelLabelExecutor.next_completed` checks whether the pool
#: the attempt went to has been replaced.
_WAIT_SLICE_S = 0.05


def parallel_block_size(
    n_examples: int, workers: int, batch_size: int
) -> int:
    """Deterministic block size for sharding ``n_examples`` over workers.

    Aim for a few blocks per worker so encode (serial, parent side)
    pipelines with labeling (parallel, worker side) and a straggler
    block costs a fraction of the run, while never exceeding the
    caller's ``batch_size``. Pure function of its arguments — the same
    inputs always shard the same way.
    """
    if n_examples <= 0:
        return batch_size
    target = math.ceil(n_examples / max(1, workers * 4))
    return max(1, min(batch_size, max(256, target)))


# ----------------------------------------------------------------------
# worker side (runs in the pool processes)
# ----------------------------------------------------------------------
_WORKER_LFS = None
#: The suite's :class:`~repro.lf.templates.FusedPlan`: one per worker
#: process, compiled by the first block it labels.
_WORKER_FUSED = None


def _worker_init(spec: LFSuiteSpec) -> None:
    """Per-process bootstrap: rebuild the suite, start resources."""
    global _WORKER_LFS, _WORKER_FUSED
    from repro.lf.applier import fused_lf_columns, start_lf_resources

    _WORKER_LFS = spec.build()
    _WORKER_FUSED = fused_lf_columns(_WORKER_LFS)
    start_lf_resources(_WORKER_LFS)


def _worker_warm() -> bool:
    """No-op task used to force worker processes into existence."""
    return True


def _pack_block(examples: Sequence[Example]) -> bytes:
    """One block as the pool payload: a tuple of fields per example."""
    rows = [(e.example_id, e.fields, e.servable, e.non_servable, e.label) for e in examples]
    return pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)


def _unpack_block(payload: bytes) -> list[Example]:
    """Inverse of :func:`_pack_block`: ``from_record``'s examples, no dict copied."""
    return [
        Example(eid, fields or {}, servable or {}, non_servable or {}, label)
        for eid, fields, servable, non_servable, label in pickle.loads(payload)
    ]


def _worker_label(
    payload: bytes, kill: bool, collect: bool
) -> tuple[np.ndarray, int, bytes | None]:
    """Label one pickled block; returns ``(votes, label_us, stats)``.

    ``kill=True`` is the crash-injection hook: the process exits without
    cleanup, exactly what an OOM-killed or preempted worker looks like
    to the parent (a broken pool, not an exception).

    ``collect=True`` additionally returns worker-side stage histograms
    (the ``worker/*`` keys of :data:`repro.obs.contract.KEY_CONTRACT`)
    encoded with :func:`repro.obs.histogram.encode_histograms`, beside
    the vote block and never inside it.
    """
    if kill:
        os._exit(1)
    from repro.lf.applier import label_example_block

    decode_start = time.perf_counter()
    examples = _unpack_block(payload)
    decode_us = int((time.perf_counter() - decode_start) * 1e6)
    start = time.perf_counter()
    votes = label_example_block(_WORKER_LFS, examples, _WORKER_FUSED)
    label_us = int((time.perf_counter() - start) * 1e6)
    stats: bytes | None = None
    if collect:
        decode_hist = Histogram()
        decode_hist.record(decode_us)
        label_hist = Histogram()
        label_hist.record(label_us)
        stats = encode_histograms(
            {
                "worker/decode_us": decode_hist,
                "worker/label_us": label_hist,
            }
        )
    return votes, label_us, stats


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _Inflight:
    """One submitted block: its examples (for sinks and for retries),
    the attempts charged so far, and the future of the live attempt with
    the generation of the pool it went to."""

    examples: list[Example]
    attempts: int = 0
    future: Future | None = field(default=None, repr=False)
    generation: int = -1


class LabeledBlock(NamedTuple):
    """One block :meth:`ParallelLabelExecutor.label_blocks` hands back."""

    seq: int
    examples: list[Example]
    votes: np.ndarray
    #: Worker-side labeling time (µs).
    label_us: int
    #: Parent-side time (µs) to pickle the block and hand it to the pool.
    encode_us: int
    #: Time (µs) the loop blocked on this block because the window
    #: was full; 0 when it was taken already finished, or at the end of
    #: the input.
    wait_us: int


class ParallelLabelExecutor:
    """Labels example blocks on a pool of worker processes.

    Thread contract: every caller in the repo drives an executor from
    one thread — :meth:`label_blocks` submits and drains in turn, and
    both consumers iterate it. :meth:`submit` and :meth:`next_completed`
    may still run on different threads: the in-flight table is guarded
    by a condition every submit signals.
    """

    def __init__(
        self,
        suite_spec: LFSuiteSpec,
        workers: int,
        max_retries: int = DEFAULT_MAX_RETRIES,
        telemetry=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.suite_spec = suite_spec
        self.workers = workers
        self.max_retries = max_retries
        #: Scoped registry forwarding to ``telemetry`` (an optional
        #: :class:`repro.obs.MetricsRegistry`): the ``parallel/*``
        #: counters and, per completed block, the worker-side
        #: histograms. Unattached, the workers skip collection entirely.
        self.metrics = MetricsRegistry().attach(telemetry)
        try:
            self._mp_context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            self._mp_context = multiprocessing.get_context("spawn")
        self._pool: ProcessPoolExecutor | None = None
        #: Guards pool construction/teardown: a submit and a retry (or
        #: close) may race through a crash, and exactly one of them must
        #: rebuild the pool.
        self._pool_lock = threading.Lock()
        self._pool_generation = 0
        #: Guards ``_inflight``; notified by :meth:`submit` so a consumer
        #: that has drained everything can wait for the next block.
        self._submitted = threading.Condition(threading.Lock())
        #: seq -> block, in submission order (dicts keep insertion order).
        self._inflight: dict[int, _Inflight] = {}
        self._kill_plan: dict[int, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ParallelLabelExecutor":
        """Spin the pool up eagerly (otherwise lazy on first submit)."""
        self._ensure_pool()
        return self

    def close(self) -> None:
        """Shut the pool down; the executor cannot be reused after."""
        with self._pool_lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def reset(self) -> int:
        """Drop every in-flight block; returns how many were dropped.

        After a failed run (sink exception, :class:`WorkerFailure`) the
        executor still tracks the dead run's blocks, which would collide
        with — or hang — the next run. The pool outlives its runs, so
        :meth:`label_blocks` resets it whenever it ends early: on any
        failure, or when its caller stops iterating. A dropped
        block's future goes with it, so whatever a still-running worker
        returns for it later is never handed out.
        """
        with self._submitted:
            dropped = len(self._inflight)
            self._inflight.clear()
        return dropped

    def __enter__(self) -> "ParallelLabelExecutor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def pool_restarts(self) -> int:
        """How many times a dead worker forced a pool rebuild."""
        return self.metrics.counters.value("parallel/pool_restarts")

    def pending(self) -> int:
        """Blocks submitted but not yet drained by the caller."""
        with self._submitted:
            return len(self._inflight)

    # ------------------------------------------------------------------
    # failure injection (tests and benchmarks only)
    # ------------------------------------------------------------------
    def kill_worker_on(self, seq: int, attempts: int = 1) -> None:
        """Make the first ``attempts`` executions of block ``seq`` die.

        The worker process exits hard (``os._exit``) — the parent sees a
        broken pool, rebuilds it, and retries, which is the failure
        envelope the worker-crash tests assert byte-identity across.
        """
        self._kill_plan[seq] = attempts

    # ------------------------------------------------------------------
    # submission / completion (the primitives)
    # ------------------------------------------------------------------
    def submit(self, seq: int, examples: Sequence[Example]) -> None:
        """Pickle one block's records and dispatch it."""
        if self._closed:
            raise RuntimeError("executor already closed")
        with self._submitted:
            if seq in self._inflight:
                raise ValueError(f"block {seq} already in flight")
        entry = _Inflight(examples=list(examples))
        # Dispatch before registering: a block is never in flight
        # without a future, so a failed dispatch leaves nothing behind
        # for pending() to count or a consumer to wait on.
        self._dispatch(seq, entry)
        with self._submitted:
            self._inflight[seq] = entry
            self._submitted.notify()

    def next_completed(
        self, timeout: float | None = None
    ) -> tuple[int, list[Example], np.ndarray, int]:
        """Return the oldest submitted block once it has finished:
        ``(seq, examples, votes, label_us)``.

        Blocks come back in *submission* order whatever order the
        workers finish in, because only the oldest in-flight future is
        ever waited on; a block that completes ahead of an earlier one
        stays on its future until its turn. Raises ``queue.Empty`` when
        the call outlasts ``timeout`` — waiting for a first submission
        with nothing in flight, else for the oldest block's live
        attempt. Failed attempts are retried transparently — the
        retried block keeps its place in line; exhausted budgets raise
        :class:`WorkerFailure`. An attempt still pending on a pool that
        has since been replaced is lost (see the module docstring) and
        fails like any other.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._submitted:
            if not self._submitted.wait_for(
                lambda: self._inflight, timeout
            ):
                raise queue_module.Empty
            seq, entry = next(iter(self._inflight.items()))
        while True:
            wait = _WAIT_SLICE_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            try:
                error = entry.future.exception(wait)
            except FutureTimeout:
                if entry.generation == self._pool_generation:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise queue_module.Empty from None
                    continue
                error = BrokenExecutor(
                    f"block {seq} was lost with pool generation "
                    f"{entry.generation}"
                )
            except CancelledError as cancelled:
                # A future caught mid-restart; treat like a crashed
                # attempt and let the retry budget decide.
                error = cancelled
            if error is None:
                with self._submitted:
                    del self._inflight[seq]
                votes, label_us, stats = entry.future.result()
                if stats is not None:
                    self.metrics.merge_histograms(decode_histograms(stats))
                self.metrics.counter("parallel/blocks")
                return seq, entry.examples, votes, label_us
            entry.attempts += 1
            if entry.attempts > self.max_retries:
                raise WorkerFailure(
                    f"parallel labeling block {seq} failed after "
                    f"{entry.attempts} attempts"
                ) from error
            self.metrics.counter("parallel/retries")
            self._dispatch(seq, entry)

    # ------------------------------------------------------------------
    # the windowed loop (what both consumers iterate)
    # ------------------------------------------------------------------
    def label_blocks(
        self,
        blocks: Iterable[tuple[int, Sequence[Example]]],
        window: int | None = None,
    ) -> Iterator[LabeledBlock]:
        """Label ``(seq, examples)`` blocks; yield in *submission* order.

        At most ``window`` blocks (default ``2 * workers + 2``) are in
        flight at once, so encoding pipelines with labeling while memory
        stays bounded: the next block is read from ``blocks`` only when
        the window has room. After each submit, every head block that
        has already finished is handed back at once, so a caller that
        works per block does it while the workers label the blocks
        behind; the loop blocks on the head only while the window is
        full. Sequence numbers must be unique; :meth:`next_completed`
        supplies the order (ascending seqs in = ascending seqs out,
        which is how :meth:`label_examples` restores row order). On any
        failure, or when the caller stops iterating early, the
        executor's in-flight state is reset so a warm pool can be reused
        for the next run.
        """
        if window is None:
            window = 2 * self.workers + 2
        encode_us: dict[int, int] = {}
        try:
            for seq, examples in blocks:
                started = time.perf_counter()
                self.submit(seq, examples)
                encode_us[seq] = int((time.perf_counter() - started) * 1e6)
                while self.pending():
                    wait_us = 0
                    try:
                        done = self.next_completed(timeout=0)
                    except queue_module.Empty:
                        if self.pending() < window:
                            break
                        started = time.perf_counter()
                        done = self.next_completed()
                        wait_us = int((time.perf_counter() - started) * 1e6)
                    yield LabeledBlock(*done, encode_us.pop(done[0]), wait_us)
            while self.pending():
                done = self.next_completed()
                yield LabeledBlock(*done, encode_us.pop(done[0]), 0)
        except BaseException:
            self.reset()
            raise

    def label_examples(
        self,
        examples: Sequence[Example],
        block_size: int,
    ) -> np.ndarray:
        """Label a flat example list; returns the ``(n, m)`` int8 matrix.

        The parallel counterpart of the serial block loop in
        :func:`repro.lf.applier.apply_lfs_in_memory`: identical votes in
        input order, because blocks come back in submission order.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        examples = list(examples)
        if not examples:
            # Width is unknowable without a worker round-trip; callers
            # handle the empty case with their own LF count.
            return np.zeros((0, 0), dtype=np.int8)
        blocks = (
            (seq, examples[start:start + block_size])
            for seq, start in enumerate(range(0, len(examples), block_size))
        )
        return np.vstack([block.votes for block in self.label_blocks(blocks)])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> tuple[ProcessPoolExecutor, int]:
        """The live pool plus its generation (for restart arbitration)."""
        with self._pool_lock:
            if self._closed:
                # A resurrected pool would leak its workers: submit()
                # refuses closed executors, so nothing could ever drain
                # or shut it down.
                raise RuntimeError("executor already closed")
            if self._pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._mp_context,
                    initializer=_worker_init,
                    initargs=(self.suite_spec,),
                )
                # ProcessPoolExecutor forks workers lazily at submit
                # time; force them ALL into existence now, while the
                # creating thread is the only one running executor work
                # — forking later, mid-run, from whichever thread
                # happens to submit is exactly the fork-with-live-
                # threads hazard start() promises to avoid (and cold
                # workers would otherwise pay suite bootstrap inside
                # the first timed/labeled blocks).
                try:
                    warm = [
                        pool.submit(_worker_warm)
                        for _ in range(self.workers)
                    ]
                    for future in warm:
                        future.result()
                except BaseException:
                    # A failing initializer (unimportable spec, factory
                    # error) breaks the pool during warm-up; tear it
                    # down so the dispatch retry loop sees a clean
                    # slate and can surface WorkerFailure.
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._pool_generation += 1
                    raise
                self._pool = pool
            return self._pool, self._pool_generation

    def _restart_pool(self, generation: int) -> None:
        """Replace the pool — but only if ``generation`` is still live.

        A dispatch and a retry can both observe the same broken pool;
        the generation check makes the second observer a no-op instead
        of tearing down the replacement the first one just built (which
        would cancel freshly resubmitted work).
        """
        with self._pool_lock:
            if generation != self._pool_generation:
                return  # another thread already rebuilt this pool
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            self._pool_generation += 1
            self.metrics.counter("parallel/pool_restarts")

    def _dispatch(self, seq: int, entry: _Inflight) -> None:
        kill = entry.attempts < self._kill_plan.get(seq, 0)
        payload = _pack_block(entry.examples)
        future: Future | None = None
        last_error: BaseException | None = None
        for _ in range(2):
            generation: int | None = None
            try:
                pool, generation = self._ensure_pool()
                future = pool.submit(
                    _worker_label,
                    payload,
                    kill,
                    self.metrics.observed,
                )
                break
            except BrokenExecutor as error:
                last_error = error
                if generation is not None:
                    self._restart_pool(generation)
        if future is None:
            raise WorkerFailure(
                f"could not dispatch block {seq}: worker pool keeps dying"
            ) from last_error
        entry.future = future
        entry.generation = generation
