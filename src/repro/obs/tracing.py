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

A tracer that exists is on: a caller turns tracing on by building a
:class:`repro.obs.MetricsRegistry` with ``tracer=Tracer(...)`` and
passing that registry as a layer's ``telemetry=``; off is no telemetry
at all. Ids are counters, never RNG draws — tracing must never perturb
seeded random state, or the byte-identity invariants would quietly
depend on whether telemetry was on.
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

#: Spans per DFS trace shard before it finalizes and the next opens.
SHARD_RECORDS = 512


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
    (becomes reader-visible) every :data:`SHARD_RECORDS` spans and on
    :meth:`close`. Finalized shards are append-only history — exactly
    the vote-shard durability contract, reused for telemetry.
    """

    def __init__(self, dfs: DistributedFileSystem, root: str) -> None:
        self._dfs = dfs
        self.root = root.rstrip("/")
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
            if self._writer.records_written >= SHARD_RECORDS:
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
    RNG. Every span it opens is written.
    """

    def __init__(self, sink: ListTraceSink | DfsTraceSink | None = None) -> None:
        """``sink`` is where finished spans go; ``None`` keeps them in
        an internal :class:`ListTraceSink`."""
        self.sink = sink if sink is not None else ListTraceSink()
        self._lock = threading.Lock()
        self._next_trace = 0
        self._next_span = 0
        self._local = threading.local()
        self.spans_written = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> Span:
        """Allocate a span under the current thread's stack top."""
        stack = self._stack()
        with self._lock:
            self._next_span += 1
            span_id = f"s{self._next_span:06d}"
            if stack:
                trace_id = stack[-1].trace_id
                parent_id = stack[-1].span_id
            else:
                self._next_trace += 1
                trace_id = f"t{self._next_trace:06d}"
                parent_id = None
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            start_unix=time.time(),
            attrs=attrs,
        )

    def _emit(self, span: Span) -> None:
        self.sink.write(span.to_record())
        with self._lock:
            self.spans_written += 1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time a block as one span; yields it.

        Nesting is per-thread: a span opened while another is active on
        the same thread records it as its parent and shares its trace
        id.
        """
        span = self._open(name, attrs)
        stack = self._stack()
        stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.duration_us = int((time.perf_counter() - started) * 1e6)
            stack.pop()
            self._emit(span)

    def emit(self, name: str, duration_us: int, **attrs: Any) -> None:
        """Record an already-measured operation as a completed span.

        The hot loops time work themselves (the measurement must not
        include tracer bookkeeping); this folds such a measurement into
        the trace stream, parented to the calling thread's open span
        like a ``with``-block span would be.
        """
        span = self._open(name, attrs)
        span.duration_us = int(duration_us)
        self._emit(span)

    def close(self) -> None:
        """Flush and close the sink."""
        self.sink.close()
