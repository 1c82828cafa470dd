"""One registry, one emission seam: counters, gauges, histograms, spans.

:class:`MetricsRegistry` holds the three instrument kinds —
:class:`~repro.obs.counters.CounterSet` (monotonic sums),
:class:`~repro.obs.counters.Gauge` (levels with high-water marks)
and :class:`~repro.obs.histogram.Histogram` (distributions) — under one
namespace with a single deterministic :meth:`~MetricsRegistry.snapshot`:
the dict the :class:`~repro.obs.exporter.TelemetryExporter` publishes,
the streaming report embeds, and ``scripts/metrics_dump.py`` prints.

It is also the only place an event is emitted. Every instrumented class
on the hot path owns one *scoped* registry (:meth:`MetricsRegistry.attach`)
built from its one ``telemetry=`` keyword and reports each stage event
with one :meth:`MetricsRegistry.stage` call, which feeds the keys and
span :data:`repro.obs.contract.STAGES` lists for it. A scoped registry
keeps counters and gauges locally (the per-run / per-instance view) and
forwards every event, as it happens, to the attached registry; spans go
to the tracer the root registry was built with (``tracer=``). "Off" is
its own behaviour, not a branch at the call site: unattached, a scoped
registry drops histograms and spans, and
:meth:`MetricsRegistry.clock` never reads the clock.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.obs.counters import CounterSet, Gauge
from repro.obs.contract import STAGES
from repro.obs.histogram import Histogram

__all__ = ["MetricsRegistry"]


class _ForwardingGauge(Gauge):
    """A scoped registry's gauge: every move also moves the parent's."""

    def __init__(self, parent: Gauge) -> None:
        super().__init__()
        self._parent = parent

    def add(self, amount: int) -> int:
        level = super().add(amount)
        self._parent.add(amount)
        return level

    def subtract(self, amount: int) -> int:
        level = super().subtract(amount)
        self._parent.subtract(amount)
        return level


class MetricsRegistry:
    """Counters + gauges + histograms under one namespace.

    Thread contract: every method may be called from any thread; the
    registry locks only its name→instrument maps, and each instrument
    carries its own lock — so hot-path ``record`` calls on different
    histograms never contend. :meth:`attach` is the exception: call it
    before the owning instance starts emitting.
    """

    def __init__(self, namespace: str = "repro", tracer=None) -> None:
        """``tracer`` (a :class:`repro.obs.Tracer`) receives a span for
        every stage event this registry, or any registry attached to it,
        emits."""
        self.namespace = namespace
        self.counters = CounterSet()
        self._lock = threading.Lock()
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Scoped registries (see :meth:`attach`) forward every event to
        #: ``_parent``; histograms are stored by ``_home`` — this
        #: registry, the one it is attached to, or nobody (``None``).
        self._parent: MetricsRegistry | None = None
        self._home: MetricsRegistry | None = self
        self._tracer = tracer

    def attach(self, parent: "MetricsRegistry | None"):
        """Scope this registry to one instrumented instance (or run).

        Counters and gauges are kept locally *and* forwarded to
        ``parent`` as they happen; histograms live only in ``parent``,
        and spans go to ``parent``'s tracer (both dropped without a
        parent). Returns ``self``.
        """
        with self._lock:
            self._parent = parent
            self._home = None if parent is None else parent._home
            self._tracer = None if parent is None else parent._tracer
        return self

    # ------------------------------------------------------------------
    # instruments (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, amount: int = 1) -> None:
        """Increment the named counter (non-negative amounts only)."""
        self.counters.increment(name, amount)
        if self._parent is not None:
            self._parent.counter(name, amount)

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = (
                    Gauge()
                    if self._parent is None
                    else _ForwardingGauge(self._parent.gauge(name))
                )
            return gauge

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            return hist

    def record(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        if self._home is not None:
            self._home.histogram(name).record(value)

    # ------------------------------------------------------------------
    # the emission seam
    # ------------------------------------------------------------------
    @property
    def observed(self) -> bool:
        """Whether anything consumes durations: a histogram home (a
        tracer only ever rides on a registry that has one)."""
        return self._home is not None

    def clock(self) -> float | None:
        """``perf_counter()`` when :attr:`observed`, else ``None`` — so
        a stage timed only for telemetry costs no clock read when off.
        Hand the reading to :meth:`stage` as ``since=``."""
        return time.perf_counter() if self.observed else None

    def stage(
        self, name: str, us: int = 0, since: float | None = None, **attrs: Any
    ) -> None:
        """Emit one stage event: feed every key
        :data:`repro.obs.contract.STAGES` lists for ``name`` — counters
        always, histograms where they have a home — and, when a tracer
        rides on the registry, a completed ``name`` span carrying ``attrs``.
        The duration is ``us``, or the time since a :meth:`clock`
        reading ``since``. A conditional row whose field the call does
        not pass is skipped: its condition did not occur."""
        if since is not None:
            us = int((time.perf_counter() - since) * 1e6)
        fields = {"us": us, "events": 1, **attrs}
        for row in STAGES[name]:
            if row.conditional and row.field not in fields:
                continue
            if row.kind == "histogram":
                self.record(row.key, fields[row.field])
            else:
                self.counter(row.key, fields[row.field])
        if self._tracer is not None:
            self._tracer.emit(name, us, **attrs)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def attached_snapshot(self) -> dict | None:
        """Snapshot of the registry a scoped registry forwards to
        (``None`` when none is attached)."""
        return None if self._parent is None else self._parent.snapshot()

    def snapshot(self) -> dict:
        """Deterministic dict of everything the registry holds.

        Keys are sorted at every level, so two registries that saw the
        same events — in any thread interleaving — produce
        byte-identical JSON.
        """
        with self._lock:
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "namespace": self.namespace,
            "counters": dict(sorted(self.counters.as_dict().items())),
            "gauges": {
                name: {
                    "current": gauges[name].current,
                    "peak": gauges[name].peak,
                }
                for name in sorted(gauges)
            },
            "histograms": {
                name: histograms[name].summary() for name in sorted(histograms)
            },
        }
