"""Low-latency label serving: micro-batched requests over hot-swapped
generations.

The offline pipeline labels millions of examples per batch; an online
label service sees one example per request. Scoring each request alone
would abandon the vectorized ``label_batch`` kernels and the fused
token-match executor that make the offline path fast, so
:class:`LabelServer` *micro-batches* on its callers' threads
(leader/follower). A request that finds no batch in progress *leads*:
it takes everything queued (at most ``max_batch``, itself included),
labels the block through :func:`repro.lf.applier.label_example_block`
with the fused plan compiled once for this started run, and scores it
with :meth:`ServingGeneration.score
<repro.serving.registry.ServingGeneration.score>` — a table read per
known vote pattern, one vectorized ``predict_proba`` call for the rest
— against the generation captured once per batch. Requests arriving
meanwhile queue as followers; once its own result is in, the leader
hands leadership to the oldest follower still waiting. A request on an
idle server is scored on its own thread, with no thread hand-off.

Deployment rides the same path, and the server owns no thread: a
leader whose batch was submitted ``poll_ms`` or more after the last
check first refreshes the registry, so an idle server deploys a newer
manifest on its next request and that leader pays the load.

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
  callers get the error (``serving/batch_errors``), and the next queued
  request leads;
* **hot swap safety** — a leader captures the active generation once
  per micro-batch, so every response in a batch is scored by exactly
  one immutable generation even if a swap lands mid-batch;
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

import math
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
from repro.obs.counters import Gauge
from repro.serving.registry import CheckpointModelRegistry
from repro.types import Example, require_int

__all__ = ["ServeConfig", "ServeResult", "ServeTimeout", "LabelServer"]

#: Bound on each shutdown wait, for the queue lock and then for the
#: leader. Both drain only what is queued, so outliving it is a wedge
#: that must be surfaced.
_JOIN_TIMEOUT_S = 5.0


def _finite_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


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
    """Minimum interval between a leader's checks of the registry's
    durable root for a newer manifest."""

    def __post_init__(self) -> None:
        """Validate bounds.

        Raises:
            ValueError: If ``max_batch`` or ``max_pending`` is not an
                ``int`` >= 1 (a ``bool`` is not one), or ``timeout_ms``
                or ``poll_ms`` is not finite and > 0.
        """
        for name in ("max_batch", "max_pending"):
            require_int(getattr(self, name), name, minimum=1)
        _finite_positive("timeout_ms", self.timeout_ms)
        _finite_positive("poll_ms", self.poll_ms)


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
    """One request and its completion signal. Only a follower gets an
    ``event``, set when its outcome is in or it ``leads``; ``waiting``
    goes false once its caller gave up."""

    __slots__ = ("example", "event", "outcome", "submitted", "waiting", "leads")

    def __init__(self, example: Example) -> None:
        self.example = example
        self.event: threading.Event | None = None
        self.outcome: ServeResult | Exception | None = None
        self.waiting = True
        self.leads = False
        # repro: allow[determinism] queue-latency measurement; labels depend only on the model generation
        self.submitted = time.perf_counter()

    def age_ms(self) -> float:
        """Milliseconds since submission."""
        # repro: allow[determinism] latency_ms / deadline metadata on the response envelope, never label math
        return 1e3 * (time.perf_counter() - self.submitted)


class LabelServer:
    """Micro-batching label service over a checkpoint-backed registry.

    Lifecycle: construct, :meth:`start` (deploys the newest manifest;
    starts no thread), serve via :meth:`predict` from any number of
    client threads (they score the batches and deploy newer manifests
    themselves), :meth:`stop` (refuses new requests, waits for the
    leader to drain the queue). Also usable as a context manager.
    """

    def __init__(
        self,
        registry: CheckpointModelRegistry,
        lfs: list[AbstractLabelingFunction],
        config: ServeConfig | None = None,
        telemetry=None,
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
                snapshot. A tracer on it gets a ``serving.flush`` span
                per scored micro-batch.

        Raises:
            ValueError: If ``lfs`` is empty.
        """
        if not lfs:
            raise ValueError("LabelServer needs at least one labeling function")
        self.registry = registry
        self.lfs = list(lfs)
        self.config = config or ServeConfig()
        self.metrics = registry.metrics.attach(telemetry)
        self.counters = registry.counters
        self.resident = Gauge()
        #: The suite's fused plan; taken in :meth:`start`, it lives for
        #: one started run.
        self._fused_cols = None
        self._abstain_prior = registry.abstain_prior()
        #: Guards the queue and the leader and stop flags; ``stop`` waits
        #: on it for the last leader to step down.
        self._queue_lock = threading.Condition(threading.Lock())
        self._queue: deque[_Pending] = deque()
        self._leading = False
        self._permits = threading.Semaphore(self.config.max_pending)
        #: Set while not serving (before ``start``, after ``stop``).
        self._stopped = threading.Event()
        self._stopped.set()
        #: The earliest submit stamp whose batch checks the root again;
        #: read and written by the leader alone, so it needs no lock.
        self._next_refresh = -math.inf

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LabelServer":
        """Start serving: LF resources and a first refresh; no thread.

        Performs one synchronous :meth:`CheckpointModelRegistry.refresh`
        so a root that already holds a manifest serves it from the very
        first request. An unreadable newest manifest is treated as a
        leader treats it: counted as ``serving/refresh_errors``, and
        the server comes up degraded (serving the prior) until a
        request finds a readable manifest.

        Returns:
            ``self``, for chaining.

        Raises:
            RuntimeError: If the server was already started.
        """
        if not self._stopped.is_set():
            raise RuntimeError("LabelServer is already started")
        start_lf_resources(self.lfs)
        # A fresh plan per start: its index holds surfaces resolved from
        # the resources this start brought up.
        self._fused_cols = fused_lf_columns(self.lfs)
        self._refresh()
        self._stopped.clear()
        return self

    def stop(self) -> None:
        """Stop serving: refuse new requests, wait for the leader to
        resolve everything queued. Idempotent; requests submitted after
        ``stop`` raise ``RuntimeError``.

        Raises:
            RuntimeError: If the queue lock or a leader outlives the
                bound.
        """
        if self._stopped.is_set():
            return
        # Bounded like the leader wait: a holder that never lets go of
        # the queue lock is a wedge the caller must hear about.
        drained = self._queue_lock.acquire(timeout=_JOIN_TIMEOUT_S)
        if drained:
            try:
                self._stopped.set()
                drained = self._queue_lock.wait_for(lambda: not self._leading, _JOIN_TIMEOUT_S)
            finally:
                self._queue_lock.release()
        if not drained:
            raise RuntimeError(f"label server failed to stop within {_JOIN_TIMEOUT_S:.0f}s")
        stop_lf_resources(self.lfs)

    def __enter__(self) -> "LabelServer":
        """Start the server on context entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop (and drain) the server on context exit."""
        self.stop()

    # ------------------------------------------------------------------
    # request path (any client thread; the leader scores)
    # ------------------------------------------------------------------
    def predict(
        self, example: Example, timeout_ms: float | None = None
    ) -> ServeResult:
        """Serve one example, blocking until its micro-batch resolves
        (on an idle server, scored on the calling thread).

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
                ``serving/timeouts``): in admission, nothing was
                enqueued; while queued, the next leader still scores
                the request and releases its permit; while leading,
                after the batch resolved.
            ValueError: If ``timeout_ms`` is not finite and > 0.
            RuntimeError: If the server is stopped.
            Exception: Whatever the request's micro-batch raised.
        """
        budget = self.config.timeout_ms if timeout_ms is None else timeout_ms
        _finite_positive("timeout_ms", budget)
        pending = _Pending(example)
        left = self._admit(pending, budget)
        if left is not None and not pending.leads and not pending.event.wait(left / 1e3):
            with self._queue_lock:
                # Promoted as the deadline passed: it must lead anyway.
                pending.waiting = pending.leads
        if pending.leads:
            self._lead(pending)
        outcome = pending.outcome
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is None or (pending.leads and outcome.latency_ms > budget):
            self.metrics.counter("serving/timeouts")
            raise ServeTimeout(f"no result for {example.example_id!r} within {budget}ms")
        return outcome

    def _admit(self, pending: _Pending, budget_ms: float) -> float | None:
        """Admit and enqueue one request, as the leader if there is
        none; returns the budget left for its result, or ``None`` if
        admission used it all (no permit is held, nothing is queued).

        Raises:
            RuntimeError: If the server is not running, or stops while
                the request waits for admission (its permit and
                residency are released first).
        """
        if self._stopped.is_set():
            raise RuntimeError("LabelServer is not running")
        # Admission control: non-blocking fast path, counted wait
        # otherwise — the streaming pipeline's residency-permit idiom.
        if not self._permits.acquire(blocking=False):
            self.metrics.counter("serving/backpressure_waits")
            if not self._permits.acquire(timeout=budget_ms / 1000.0):
                return None
            budget_ms -= pending.age_ms()
            if budget_ms <= 0:
                self._permits.release()
                return None
        self.resident.add(1)
        with self._queue_lock:
            # Re-checked under the lock ``stop`` sets it under: a request
            # queued after the last leader stepped down is never served.
            if self._stopped.is_set():
                self.resident.subtract(1)
                self._permits.release()
                raise RuntimeError("LabelServer is not running")
            self._queue.append(pending)
            if self._leading:
                pending.event = threading.Event()
            else:
                pending.leads = self._leading = True
        self.metrics.counter("serving/requests")
        return budget_ms

    def _lead(self, pending: _Pending) -> None:
        """Score micro-batches (all queued, up to ``max_batch``) until
        ``pending`` resolves; then hand leadership to the oldest caller
        still waiting, or drain the queue and step down. A batch whose
        oldest request was submitted ``poll_ms`` or more after the last
        check first refreshes the registry (deploys a newer manifest)."""
        while True:
            with self._queue_lock:
                if pending.outcome is not None:
                    successor = next((p for p in self._queue if p.waiting), None)
                    if successor is not None:
                        successor.leads = True
                        successor.event.set()
                        return
                    if not self._queue:
                        self._leading = False
                        self._queue_lock.notify_all()
                        return
                take = min(len(self._queue), self.config.max_batch)
                batch = [self._queue.popleft() for _ in range(take)]
            try:
                # The oldest submit stamp stands in for "now": no clock read.
                if batch[0].submitted >= self._next_refresh:
                    self._next_refresh = batch[0].submitted + self.config.poll_ms / 1e3
                    self._refresh()
                self._score_batch(batch)
            except Exception as error:  # fails this batch's callers alone
                self.metrics.counter("serving/batch_errors")
                for queued in batch:
                    # Not ``event.is_set()``: promotion sets it too.
                    if queued.outcome is None:
                        self._resolve(queued, error)

    def _score_batch(self, batch: list[_Pending]) -> None:
        """Label + score one micro-batch against one captured generation."""
        started = self.metrics.clock()
        # One generation snapshot per batch: every response in this
        # batch is scored by the same immutable object, even if a
        # registry refresh elsewhere swaps mid-batch.
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

    def _resolve(self, pending: _Pending, outcome: ServeResult | Exception) -> None:
        """Publish one outcome, wake its waiter, release its residency."""
        pending.outcome = outcome
        if pending.event is not None:
            pending.event.set()
        self.resident.subtract(1)
        self._permits.release()

    def _refresh(self) -> None:
        """Deploy the newest manifest, if it can be read."""
        try:
            self.registry.refresh()
        except (ValueError, RecordCorruption):
            # An unreadable newest manifest (foreign schema, torn or
            # malformed external copy) must not fail serving: keep the
            # active generation and surface the problem as a counter.
            self.metrics.counter("serving/refresh_errors")

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
