"""Common machinery for simulated organizational services.

Every service used as weak supervision in the paper is either an RPC
model server (NLP models), a batch-maintained store (aggregate statistics,
topic categorizations), or a graph service (Knowledge Graph). What they
share, and what the labeling-function templates depend on, is:

* a start/stop lifecycle — ``NLPLabelingFunction`` must launch the server
  on each compute node before mapping, and calling a stopped server is a
  bug we want to surface loudly;
* per-call accounting — the servable/non-servable distinction (Section 4)
  is fundamentally a *latency and cost* distinction, so each service
  declares a virtual per-call latency and the harness can report how
  expensive a labeling-function run would have been in production.

Virtual latency is tracked, not slept: simulations stay fast while the
cost model stays visible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["ServiceUnavailable", "ServiceStats", "ModelServer", "FlakyServer"]


class ServiceUnavailable(Exception):
    """Raised when calling a service that is not running."""


@dataclass
class ServiceStats:
    """Accumulated usage accounting for one service instance."""

    calls: int = 0
    virtual_latency_ms: float = 0.0
    starts: int = 0
    stops: int = 0
    failures: int = 0

    def record_call(self, latency_ms: float) -> None:
        self.calls += 1
        self.virtual_latency_ms += latency_ms


class ModelServer:
    """Base class for all simulated services.

    Subclasses implement their domain API and wrap each entry point in
    :meth:`_track`, which enforces the lifecycle and accumulates virtual
    latency. ``latency_ms`` is the per-call cost; non-servable services
    have large values (an NLP annotation is ~40ms, a crawl ~800ms) while
    servable signals are micro-second scale.
    """

    #: Virtual per-call latency in milliseconds; subclasses override.
    latency_ms: float = 1.0

    #: Whether this resource could be called in the serving path
    #: (Section 4). Non-servable services must never be reachable from
    #: the production server; ``repro.serving.server`` enforces this.
    servable: bool = False

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self.stats = ServiceStats()
        self._running = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the service up (idempotent). A start whose ``_on_start``
        raises leaves the service stopped, so the next call retries it."""
        with self._lock:
            if not self._running:
                self._on_start()
                self._running = True
                self.stats.starts += 1

    def stop(self) -> None:
        """Shut the service down (idempotent)."""
        with self._lock:
            if self._running:
                self._running = False
                self.stats.stops += 1
                self._on_stop()

    @property
    def running(self) -> bool:
        return self._running

    def _on_start(self) -> None:
        """Subclass hook: load models, open stores."""

    def _on_stop(self) -> None:
        """Subclass hook: release resources."""

    # ------------------------------------------------------------------
    # call accounting
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        """Count a failure and raise if the service is not running."""
        if not self._running:
            self.stats.failures += 1
            raise ServiceUnavailable(
                f"{self.name} called while stopped; NLP-style services must "
                f"be started on each compute node before use"
            )

    def _track(self) -> None:
        """Record one call; raise if the service is not running."""
        self._require_running()
        self.stats.record_call(self.latency_ms)

    def record_batch_calls(self, n: int) -> None:
        """Account ``n`` logical calls made through a batch integration.

        Fused batch kernels read service state directly (e.g. the topic
        model's inverted keyword index) instead of calling the scalar
        API once per document; this keeps the cost model honest by
        recording exactly what ``n`` sequential calls would have.
        """
        if n < 0:
            raise ValueError(f"call count must be non-negative, got {n}")
        self._require_running()
        self.stats.calls += n
        self.stats.virtual_latency_ms += n * self.latency_ms

    def __enter__(self) -> "ModelServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class FlakyServer(ModelServer):
    """Failure-injection wrapper: fails every ``fail_every``-th call.

    Used by tests to verify that MapReduce retries recover from transient
    model-server failures (a routine occurrence in the production setting
    the paper describes).
    """

    def __init__(self, inner: ModelServer, fail_every: int) -> None:
        super().__init__(name=f"flaky({inner.name})")
        if fail_every < 1:
            raise ValueError("fail_every must be >= 1")
        self._inner = inner
        self._fail_every = fail_every
        self._counter = 0
        self.latency_ms = inner.latency_ms
        self.servable = inner.servable

    def _on_start(self) -> None:
        self._inner.start()

    def _on_stop(self) -> None:
        self._inner.stop()

    def call(self, method: str, *args, **kwargs):
        """Proxy a method call to the wrapped service, injecting faults."""
        self._track()
        self._counter += 1
        if self._counter % self._fail_every == 0:
            self.stats.failures += 1
            raise ServiceUnavailable(f"{self.name}: injected transient failure")
        return getattr(self._inner, method)(*args, **kwargs)
