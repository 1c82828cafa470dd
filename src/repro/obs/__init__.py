"""Unified telemetry: histograms, a metrics registry, tracing, export.

``repro.obs`` is the observability layer the hot paths share:

* :class:`~repro.obs.counters.CounterSet` / :class:`~repro.obs.counters.Gauge`
  — thread-safe monotonic counters and level meters with a high-water
  mark, the registry's storage;
* :class:`~repro.obs.histogram.Histogram` — thread-safe log-bucketed
  latency/size distributions with p50/p90/p99;
* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges, and
  histograms under one namespace with a deterministic snapshot, and the
  one emission seam (``stage``) every instrumented layer reports through;
* :class:`~repro.obs.tracing.Tracer` / :class:`~repro.obs.tracing.Span`
  — deterministic span tracing emitted as durable DFS trace shards; a
  tracer rides on a registry (``MetricsRegistry(tracer=...)``), so a
  layer's one ``telemetry=`` keyword carries its spans too;
* :class:`~repro.obs.exporter.TelemetryExporter` — on-demand durable
  snapshot publication.

Everything here is opt-in and identity-preserving: a run with telemetry
attached produces byte-identical votes, sink shards, and posteriors to
a run without (gated by ``tests/test_obs.py``; the cost of tracing is
``trace_overhead_ratio`` in ``bench/run.py --traced``).

Every key the wired subsystems emit, and which keys and span each stage
event feeds, is pinned by the one table in :mod:`repro.obs.contract`;
the subsystems emit through their scoped :class:`MetricsRegistry`:
stage events through :meth:`MetricsRegistry.stage`, the keys no stage
feeds through its ``counter`` / ``gauge`` / ``record`` (see
:mod:`repro.obs.registry`).
"""

from repro.obs.contract import KEY_CONTRACT, STAGES, ContractKey
from repro.obs.counters import CounterSet, Gauge
from repro.obs.exporter import TelemetryExporter
from repro.obs.histogram import Histogram
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import DfsTraceSink, ListTraceSink, Span, Tracer

__all__ = [
    "CounterSet",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "ListTraceSink",
    "DfsTraceSink",
    "TelemetryExporter",
    "ContractKey",
    "KEY_CONTRACT",
    "STAGES",
]
