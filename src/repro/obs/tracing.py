"""Lightweight span tracing with durable DFS trace shards.

Counters and histograms say *how much* and *how slow*; traces say
*where the time went* for one specific batch or request.
:class:`Tracer` hands out :class:`Span` context managers with
deterministic ids, parent links (per-thread stacks — a span started on
the consumer thread nests under the consumer's open span, never a
producer's), and wall-clock durations. Finished spans are emitted as
JSON-safe dict records through a pluggable sink:

* :class:`ListTraceSink` — in-memory, for tests and ad-hoc inspection;
* :class:`DfsTraceSink` — rolling trace shards written through the
  existing :class:`repro.dfs.records.RecordWriter` (length-prefixed,
  CRC-checked, finalize-on-close), so traces get the same durability
  story as votes and checkpoints.

Tracing is **off by default**: a caller turns it on in code with
``Tracer(enabled=True)`` and thins it with ``sample=`` (fraction of root
spans kept, default 1.0). Sampling is a deterministic counter-based
accumulator, *not* an RNG draw — tracing must never perturb seeded
random state, or the byte-identity invariants would quietly depend on
whether telemetry was on.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import RecordWriter

__all__ = [
    "Span",
    "Tracer",
    "ListTraceSink",
    "DfsTraceSink",
]


@dataclass
class Span:
    """One timed operation inside a trace.

    ``duration_us`` is filled when the span's context exits; a span
    observed mid-flight reports ``None``.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_unix: float
    duration_us: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict:
        """The JSON-safe trace-shard payload for this span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": round(self.start_unix, 6),
            "duration_us": self.duration_us,
            "attrs": self.attrs,
        }


class ListTraceSink:
    """In-memory sink: finished span records in emission order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        """Append one finished span record."""
        with self._lock:
            self.records.append(record)

    def close(self) -> None:
        """No-op; the records list stays readable."""


class DfsTraceSink:
    """Durable sink: rolling trace shards via the DFS record writer.

    Spans append to ``<root>/trace-NNNNN.records``; a shard finalizes
    (becomes reader-visible) every ``shard_records`` spans and on
    :meth:`close`. Finalized shards are append-only history — exactly
    the vote-shard durability contract, reused for telemetry.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        root: str,
        shard_records: int = 512,
    ) -> None:
        if shard_records < 1:
            raise ValueError(
                f"shard_records must be >= 1, got {shard_records}"
            )
        self._dfs = dfs
        self.root = root.rstrip("/")
        self.shard_records = shard_records
        self._lock = threading.Lock()
        self._writer: RecordWriter | None = None
        self._shard_index = 0
        self._finalized: list[str] = []
        self.records_written = 0

    def write(self, record: dict) -> None:
        """Append one span record, rolling the shard when full."""
        with self._lock:
            if self._writer is None:
                self._writer = RecordWriter(
                    self._dfs,
                    f"{self.root}/trace-{self._shard_index:05d}.records",
                )
                self._shard_index += 1
            self._writer.write(record)
            self.records_written += 1
            if self._writer.records_written >= self.shard_records:
                self._writer.close()
                self._finalized.append(self._writer.final_path)
                self._writer = None

    def close(self) -> None:
        """Finalize the open shard so every span becomes readable."""
        with self._lock:
            if self._writer is not None:
                if self._writer.records_written:
                    self._writer.close()
                    self._finalized.append(self._writer.final_path)
                else:
                    self._writer.abandon()
                self._writer = None

    def paths(self) -> list[str]:
        """Finalized shard paths, in write order."""
        with self._lock:
            return list(self._finalized)


class Tracer:
    """Deterministic span factory with per-thread parent linking.

    Ids are monotonic counters (``t000001`` / ``s000001``), never
    random — two identically driven runs emit identical traces, and a
    tracer can run alongside seeded experiments without touching any
    RNG. Sampling keeps every ``1/sample``-th *root* span via an
    accumulator; child spans inherit their root's decision, so traces
    are always complete or absent, never torn.
    """

    def __init__(
        self,
        sink: ListTraceSink | DfsTraceSink | None = None,
        enabled: bool = False,
        sample: float = 1.0,
    ) -> None:
        """Configure the tracer.

        Args:
            sink: Where finished spans go; ``None`` keeps them in an
                internal :class:`ListTraceSink`.
            enabled: Off, the tracer records nothing.
            sample: Root-span keep fraction.

        Raises:
            ValueError: On a sample outside ``[0, 1]``.
        """
        self.enabled = enabled
        self.sample = float(sample)
        if not 0.0 <= self.sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {self.sample}")
        self.sink = sink if sink is not None else ListTraceSink()
        self._lock = threading.Lock()
        self._next_trace = 0
        self._next_span = 0
        self._accum = 0.0
        self._local = threading.local()
        self.spans_started = 0
        self.spans_written = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[Span, bool]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> tuple[Span, bool]:
        """Allocate a span under the current thread's stack top."""
        stack = self._stack()
        with self._lock:
            self._next_span += 1
            span_id = f"s{self._next_span:06d}"
            if stack:
                parent, sampled = stack[-1]
                trace_id = parent.trace_id
                parent_id = parent.span_id
            else:
                self._next_trace += 1
                trace_id = f"t{self._next_trace:06d}"
                parent_id = None
                # Deterministic sampling: keep whenever the accumulated
                # fraction crosses 1 — every 1/sample-th root, no RNG.
                self._accum += self.sample
                sampled = self._accum >= 1.0
                if sampled:
                    self._accum -= 1.0
            self.spans_started += 1
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            start_unix=time.time(),
            attrs=attrs,
        )
        return span, sampled

    def _emit(self, span: Span, sampled: bool) -> None:
        if sampled:
            self.sink.write(span.to_record())
            with self._lock:
                self.spans_written += 1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span | None]:
        """Time a block as one span; yields it (``None`` when disabled).

        Nesting is per-thread: a span opened while another is active on
        the same thread records it as its parent and shares its trace
        id (and its sampling decision).
        """
        if not self.enabled:
            yield None
            return
        span, sampled = self._open(name, attrs)
        stack = self._stack()
        stack.append((span, sampled))
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.duration_us = int((time.perf_counter() - started) * 1e6)
            stack.pop()
            self._emit(span, sampled)

    def emit(self, name: str, duration_us: int, **attrs: Any) -> None:
        """Record an already-measured operation as a completed span.

        The hot loops time work themselves (the measurement must not
        include tracer bookkeeping); this folds such a measurement into
        the trace stream, parented to the calling thread's open span
        like a ``with``-block span would be.
        """
        if not self.enabled:
            return
        span, sampled = self._open(name, attrs)
        span.duration_us = int(duration_us)
        self._emit(span, sampled)

    def close(self) -> None:
        """Flush and close the sink."""
        self.sink.close()
