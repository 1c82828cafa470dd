"""Low-latency label serving: micro-batched requests over hot-swapped
generations.

The offline pipeline labels millions of examples per batch; an online
label service sees one example per request. Scoring each request alone
would abandon the vectorized ``label_batch`` kernels and the fused
token-match executor that make the offline path fast, so
:class:`LabelServer` *micro-batches*: concurrent requests queue behind a
single batcher thread that, the moment it is free, takes everything
queued (at most ``max_batch``), labels the block through
:func:`repro.lf.applier.label_example_block` with the fused plan it
compiled once for this started run, and scores it with
:meth:`ServingGeneration.score
<repro.serving.registry.ServingGeneration.score>` — a table read per
known vote pattern, one vectorized ``predict_proba`` call for the rest
— against the generation captured once per batch.

Operational contract:

* **admission control** — a residency-permit semaphore bounds pending
  requests at ``max_pending`` (the streaming pipeline's ``Gauge``
  pattern measures the actual peak); submitters past the bound wait,
  counted as ``serving/backpressure_waits``;
* **graceful degradation** — while the registry has no generation, every
  request is answered (never erred) with the configured class prior and
  ``degraded=True``, counted as ``serving/degraded``;
* **bounded latency** — :meth:`LabelServer.predict` waits at most
  ``timeout_ms`` for admission and its result together; expiry raises
  :class:`ServeTimeout` and increments ``serving/timeouts``;
* **contained failures** — a micro-batch that raises fails alone: its
  callers get the error (``serving/batch_errors``), serving goes on;
* **hot swap safety** — the batcher captures the active generation once
  per micro-batch, so every response in a batch is scored by exactly
  one immutable generation even if the watcher swaps mid-batch;
* **bitwise reproducibility** — the generation zero-pads vote blocks
  to a multiple of 32 rows before scoring so BLAS takes the same
  vectorized row-block path as offline full-matrix scoring, and fills
  its pattern table through that same call; served posteriors are
  bitwise equal to the generation's offline fit regardless of how
  requests happened to coalesce into batches or hit the table.

The tier is configured in code, by the fields of :class:`ServeConfig`
(tabulated in ``docs/SERVING.md``); the ``serving/*`` keys are rows of
:data:`repro.obs.contract.KEY_CONTRACT` (layer ``serving``) and each
flush is one ``serving.flush`` stage event on the registry the server
shares with its :class:`CheckpointModelRegistry`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.dfs.records import RecordCorruption
from repro.lf.applier import (
    fused_lf_columns,
    label_example_block,
    start_lf_resources,
    stop_lf_resources,
)
from repro.lf.base import AbstractLabelingFunction
from repro.mapreduce.counters import Gauge
from repro.serving.registry import CheckpointModelRegistry
from repro.types import Example

__all__ = [
    "ServeConfig",
    "ServeResult",
    "ServeTimeout",
    "LabelServer",
]

#: Bound on every shutdown join. The idle batcher re-checks the stop
#: flag every 50 ms and the watcher every poll interval, so a thread
#: that outlives this bound is wedged and must be surfaced, not waited
#: on forever.
_JOIN_TIMEOUT_S = 5.0


def _join_or_raise(thread: threading.Thread, name: str) -> None:
    """Join ``thread`` within the shutdown bound or fail loudly.

    Raises:
        RuntimeError: If the thread is still alive after the bound.
    """
    thread.join(timeout=_JOIN_TIMEOUT_S)
    if thread.is_alive():
        raise RuntimeError(
            f"{name} thread failed to stop within {_JOIN_TIMEOUT_S:.0f}s"
        )


class ServeTimeout(TimeoutError):
    """A request was not admitted and answered within its deadline."""


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for :class:`LabelServer`."""

    max_batch: int = 256
    """Cap on the requests scored as one micro-batch; batch size itself
    is whatever queued while the previous batch was in flight."""
    timeout_ms: float = 5000.0
    """Default per-request deadline, covering admission and scoring."""
    max_pending: int = 1024
    """Admission-control bound on resident (queued + scoring) requests."""
    poll_ms: float = 25.0
    """Watcher cadence for polling the registry's durable root for new
    manifests."""

    def __post_init__(self) -> None:
        """Validate bounds.

        Raises:
            ValueError: On a non-positive ``max_batch``, ``max_pending``,
                ``timeout_ms``, or ``poll_ms``.
        """
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.timeout_ms <= 0:
            raise ValueError(
                f"timeout_ms must be > 0, got {self.timeout_ms}"
            )
        if self.poll_ms <= 0:
            raise ValueError(f"poll_ms must be > 0, got {self.poll_ms}")


@dataclass(frozen=True, slots=True)
class ServeResult:
    """One answered request."""

    example_id: str
    """The request's example id."""
    posterior: float
    """Served ``P(y = +1)`` — the generation's offline-exact posterior,
    or the class prior in the degraded regime."""
    generation: int | None
    """Generation that scored the request; ``None`` when degraded."""
    degraded: bool
    """True when no generation was deployed and the prior was served."""
    fired: int
    """Labeling functions that voted non-abstain on the example
    (0 in the degraded regime — LFs are not executed)."""
    latency_ms: float
    """Submit-to-resolve latency (admission wait included)."""


class _Pending:
    """One submitted request: the example plus its completion signal."""

    __slots__ = ("example", "event", "outcome", "submitted")

    def __init__(self, example: Example) -> None:
        self.example = example
        self.event = threading.Event()
        self.outcome: ServeResult | Exception | None = None
        # repro: allow[determinism] queue-latency measurement; labels depend only on the model generation
        self.submitted = time.perf_counter()

    def age_ms(self) -> float:
        """Milliseconds since submission."""
        # repro: allow[determinism] latency_ms / deadline metadata on the response envelope, never label math
        return 1e3 * (time.perf_counter() - self.submitted)


class LabelServer:
    """Micro-batching label service over a checkpoint-backed registry.

    Lifecycle: construct, :meth:`start` (spawns the batcher thread and,
    by default, a registry watcher), serve via :meth:`predict` from any
    number of client threads, :meth:`stop` (drains the queue, resolves
    every pending request, joins the threads). Also usable as a context
    manager.
    """

    def __init__(
        self,
        registry: CheckpointModelRegistry,
        lfs: list[AbstractLabelingFunction],
        config: ServeConfig | None = None,
        telemetry=None,
        tracer=None,
    ) -> None:
        """Wire a server to its registry and LF suite.

        Args:
            registry: Source of scoring generations; the server emits
                through its scoped :class:`repro.obs.MetricsRegistry`
                so the whole tier reports one counter surface.
            lfs: Labeling-function suite — must match the suite the
                manifests' stream ran, or votes (and posteriors) are
                meaningless.
            config: Serving knobs; ``None`` means ``ServeConfig()``.
            telemetry: Optional :class:`repro.obs.MetricsRegistry`
                the tier's registry forwards to; it alone keeps the
                ``serving/*`` histograms, and :meth:`report` embeds its
                snapshot.
            tracer: Optional :class:`repro.obs.Tracer`; batcher flushes
                emit ``serving.flush`` spans.

        Raises:
            ValueError: If ``lfs`` is empty.
        """
        if not lfs:
            raise ValueError("LabelServer needs at least one labeling function")
        self.registry = registry
        self.lfs = list(lfs)
        self.config = config or ServeConfig()
        self.metrics = registry.metrics.attach(telemetry, tracer)
        self.counters = registry.counters
        self.resident = Gauge()
        #: The suite's fused plan; taken in :meth:`start`, it lives for
        #: one started run.
        self._fused_cols = None
        self._abstain_prior = registry.abstain_prior()
        self._queue: deque[_Pending] = deque()
        self._wake = threading.Condition(threading.Lock())
        self._permits = threading.Semaphore(self.config.max_pending)
        self._stop = threading.Event()
        self._batcher: threading.Thread | None = None
        self._watcher: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, watch: bool = True) -> "LabelServer":
        """Start serving: LF resources, batcher, optional watcher.

        Performs one synchronous :meth:`CheckpointModelRegistry.refresh`
        so a root that already holds a manifest serves it from the very
        first request. An unreadable newest manifest is treated as the
        watcher treats it: counted as ``serving/refresh_errors``, and
        the server comes up degraded (serving the prior) until a
        readable manifest lands.

        Args:
            watch: Also spawn the watcher thread that polls the durable
                root every ``poll_ms`` for new manifests (hot swap).
                Pass ``False`` to drive :meth:`refresh
                <CheckpointModelRegistry.refresh>` manually.

        Returns:
            ``self``, for chaining.

        Raises:
            RuntimeError: If the server was already started.
        """
        if self._batcher is not None:
            raise RuntimeError("LabelServer is already started")
        start_lf_resources(self.lfs)
        # A fresh plan per start: its index holds surfaces resolved from
        # the resources this start brought up.
        self._fused_cols = fused_lf_columns(self.lfs)
        self._refresh()
        self._stop.clear()
        self._batcher = threading.Thread(
            target=self._run_batches, name="label-serve-batcher", daemon=True
        )
        self._batcher.start()
        if watch:
            self._watcher = threading.Thread(
                target=self._watch, name="label-serve-watcher", daemon=True
            )
            self._watcher.start()
        return self

    def stop(self) -> None:
        """Stop serving: drain the queue, resolve everything, join.

        Idempotent; requests submitted after ``stop`` raise
        ``RuntimeError``.
        """
        if self._batcher is None:
            return
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        _join_or_raise(self._batcher, "label-serve-batcher")
        if self._watcher is not None:
            _join_or_raise(self._watcher, "label-serve-watcher")
        self._batcher = None
        self._watcher = None
        stop_lf_resources(self.lfs)

    def __enter__(self) -> "LabelServer":
        """Start the server on context entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop (and drain) the server on context exit."""
        self.stop()

    # ------------------------------------------------------------------
    # request path (any client thread)
    # ------------------------------------------------------------------
    def predict(
        self, example: Example, timeout_ms: float | None = None
    ) -> ServeResult:
        """Serve one example, blocking until its micro-batch resolves.

        Args:
            example: The example to label.
            timeout_ms: Per-call deadline, spent across admission and
                the wait for the result; ``None`` uses the configured
                ``timeout_ms``.

        Returns:
            The :class:`ServeResult` (degraded when no generation is
            deployed — never an error).

        Raises:
            ServeTimeout: If the deadline expired (counted as
                ``serving/timeouts``): before admission nothing was
                enqueued; after it the request still resolves later
                and its permit is released by the batcher.
            RuntimeError: If the server is stopped.
            Exception: Whatever the request's micro-batch raised.
        """
        budget = (
            self.config.timeout_ms if timeout_ms is None else timeout_ms
        )
        pending = _Pending(example)
        left = self._submit(pending, budget)
        if left is None or not pending.event.wait(left / 1000.0):
            self.metrics.counter("serving/timeouts")
            raise ServeTimeout(
                f"no result for {example.example_id!r} within {budget}ms"
            )
        if isinstance(pending.outcome, Exception):
            raise pending.outcome
        return pending.outcome

    def _submit(self, pending: _Pending, budget_ms: float) -> float | None:
        """Admit and enqueue one request; returns the budget left for
        its result, or ``None`` if admission used it all (no permit is
        held and nothing was enqueued).

        Raises:
            RuntimeError: If the server is not running, or stops while
                the request waits for admission (its permit and
                residency are released first).
        """
        if self._stop.is_set() or self._batcher is None:
            raise RuntimeError("LabelServer is not running")
        # Admission control: non-blocking fast path, counted wait
        # otherwise — the streaming pipeline's residency-permit idiom.
        if not self._permits.acquire(blocking=False):
            self.metrics.counter("serving/backpressure_waits")
            if not self._permits.acquire(timeout=budget_ms / 1000.0):
                return None
            budget_ms = max(0.0, budget_ms - pending.age_ms())
        self.resident.add(1)
        with self._wake:
            # Re-checked under ``_wake``: the batcher exits only from an
            # empty queue under it, so a request queued after ``stop``
            # would never be served.
            running = not self._stop.is_set()
            if running:
                self._queue.append(pending)
                self._wake.notify()
        if not running:
            self.resident.subtract(1)
            self._permits.release()
            raise RuntimeError("LabelServer is not running")
        self.metrics.counter("serving/requests")
        return budget_ms

    # ------------------------------------------------------------------
    # batcher thread
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Pending] | None:
        """Block for the next micro-batch; ``None`` means shut down.

        Takes everything queued, up to ``max_batch``: an idle batcher
        flushes a lone request at once, and requests coalesce only while
        the previous batch is being scored.
        """
        with self._wake:
            while not self._queue:
                if self._stop.is_set():
                    return None
                self._wake.wait(0.05)
            take = min(len(self._queue), self.config.max_batch)
            return [self._queue.popleft() for _ in range(take)]

    def _run_batches(self) -> None:
        """Batcher main loop: take, score, resolve, until drained. A
        batch that raises fails alone and the loop keeps serving."""
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            try:
                self._score_batch(batch)
            except Exception as error:
                self.metrics.counter("serving/batch_errors")
                for pending in batch:
                    if not pending.event.is_set():
                        self._resolve(pending, error)

    def _score_batch(self, batch: list[_Pending]) -> None:
        """Label + score one micro-batch against one captured generation."""
        started = self.metrics.clock()
        # One generation snapshot per batch: every response in this
        # batch is scored by the same immutable object, even if the
        # watcher swaps mid-batch.
        generation = self.registry.active()
        split = {}
        if generation is None:
            self.metrics.counter("serving/degraded", len(batch))
            number = None
            posteriors = [self._abstain_prior] * len(batch)
            fired = [0] * len(batch)
        else:
            number = generation.generation
            examples = [pending.example for pending in batch]
            votes = label_example_block(self.lfs, examples, self._fused_cols)
            labelled = self.metrics.clock()
            posteriors, misses = generation.score(votes)
            if misses:
                self.metrics.counter("serving/table_misses", misses)
            if labelled is not None:
                # Observed: the flush event carries its own split.
                split = {
                    "lf_us": int((labelled - started) * 1e6),
                    "score_us": int((self.metrics.clock() - labelled) * 1e6),
                }
            fired = np.count_nonzero(votes, axis=1).tolist()
        for pending, posterior, n_fired in zip(batch, posteriors, fired):
            latency_ms = pending.age_ms()
            self.metrics.record("serving/latency_us", latency_ms * 1e3)
            self._resolve(
                pending,
                ServeResult(
                    example_id=pending.example.example_id,
                    posterior=posterior,
                    generation=number,
                    degraded=generation is None,
                    fired=n_fired,
                    latency_ms=latency_ms,
                ),
            )
        self.metrics.stage(
            "serving.flush",
            since=started,
            requests=len(batch),
            degraded=generation is None,
            **split,
        )

    def _resolve(
        self, pending: _Pending, outcome: ServeResult | Exception
    ) -> None:
        """Publish one outcome, wake its waiter, release its residency."""
        pending.outcome = outcome
        pending.event.set()
        self.resident.subtract(1)
        self._permits.release()

    # ------------------------------------------------------------------
    # watcher thread
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Deploy the newest manifest, if it can be read."""
        try:
            self.registry.refresh()
        except (ValueError, RecordCorruption):
            # An unreadable newest manifest (foreign schema, torn
            # external copy) must not kill serving: keep the active
            # generation and surface the problem as a counter.
            self.metrics.counter("serving/refresh_errors")

    def _watch(self) -> None:
        """Poll the durable root for new manifests until stopped."""
        interval = self.config.poll_ms / 1000.0
        while not self._stop.wait(interval):
            self._refresh()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Snapshot the serving tier's operational state.

        Returns:
            Counters (``serving/*``), the admission gauge's current and
            peak residency, the configured bound, the active generation
            number, and — when a telemetry registry is attached — its
            deterministic snapshot (request-latency and batch-size
            histograms included).
        """
        return {
            "counters": self.counters.as_dict(),
            "pending": self.resident.current,
            "peak_pending": self.resident.peak,
            "max_pending": self.config.max_pending,
            "active_generation": self.registry.generation,
            "telemetry": self.metrics.attached_snapshot(),
        }
