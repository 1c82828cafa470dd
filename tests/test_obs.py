"""Unit + integration tests for the unified telemetry layer.

Covers the :mod:`repro.obs` contracts the rest of the repo leans on:

* the log-bucketed :class:`Histogram` — thread safety under a
  multi-thread hammer, merge commutativity (quantiles identical across
  merge orders), bounded quantile error, and every serialization
  round-trip (pickle, ``as_dict``/``to_bytes``, the executor's
  ``encode_histograms``/``decode_histograms`` IPC framing);
* the :class:`MetricsRegistry` — get-or-create semantics, growth
  mismatch rejection, deterministic snapshots, registry-level merge and
  the worker-side ``merge_histograms`` path;
* the :class:`Tracer` — deterministic ids, per-thread parent nesting,
  accumulator sampling, disabled-mode no-ops, and all three sinks
  (list, JSONL file, rolling DFS trace shards);
* the :class:`TelemetryExporter` — durable snapshot records, JSONL
  lines, and the final-snapshot-on-stop guarantee;
* integration — ``StreamReport.telemetry`` from an instrumented
  pipeline, durable output byte-identical with and without telemetry,
  cross-process histogram merge totals equal to a single-process run,
  and the label server's per-request histograms.
"""

import json
import pickle
import threading

import pytest

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import iter_record_blobs
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.obs import (
    DfsTraceSink,
    Histogram,
    JsonlTraceSink,
    ListTraceSink,
    MetricsRegistry,
    TelemetryExporter,
    Tracer,
    decode_histograms,
    encode_histograms,
)
from repro.parallel import ParallelLabelExecutor
from repro.serving import LabelServer, ServeConfig
from repro.streaming import (
    CheckpointedStream,
    MemorySource,
    MicroBatchPipeline,
    RecordStreamSource,
)

from tests.conftest import contract_keys
from tests.test_checkpoint import (
    ONLINE_CONFIG,
    make_corpus,
    make_lfs,
    tree_bytes,
)
from tests.test_parallel import SPEC
from tests.test_serving import deploy, make_registry


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
class TestHistogram:
    def test_basic_aggregates(self):
        hist = Histogram()
        for value in (1.0, 10.0, 100.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(111.0)
        assert hist.mean == pytest.approx(37.0)
        assert hist.min == 1.0
        assert hist.max == 100.0

    def test_rejects_negative_and_nonfinite(self):
        hist = Histogram()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                hist.record(bad)
        assert hist.count == 0

    def test_zero_bucket(self):
        hist = Histogram()
        for _ in range(10):
            hist.record(0.0)
        hist.record(5.0)
        assert hist.count == 11
        assert hist.min == 0.0
        # Ten of eleven observations are exactly zero.
        assert hist.quantile(0.5) == 0.0
        # The zero pins min at 0, so the top quantile is bucketed (not
        # clamped exactly) — still inside the ~5% relative error bound.
        assert hist.quantile(1.0) == pytest.approx(5.0, rel=0.06)

    def test_quantile_error_bound(self):
        """Log bucketing bounds relative quantile error by ~sqrt(growth)-1."""
        hist = Histogram()
        for value in range(1, 10_001):
            hist.record(float(value))
        for q, true in ((0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)):
            assert hist.quantile(q) == pytest.approx(true, rel=0.06)

    def test_quantiles_clamped_to_observed_range(self):
        hist = Histogram()
        hist.record(42.0)
        assert hist.quantile(0.0) == 42.0
        assert hist.quantile(1.0) == 42.0

    def test_quantile_validates_q(self):
        hist = Histogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_thread_hammer(self):
        """Concurrent recording loses nothing: exact count and sum."""
        hist = Histogram()
        threads = 8
        per_thread = 5_000

        def worker(k):
            for i in range(per_thread):
                hist.record(float((i % 100) + k))

        pool = [
            threading.Thread(target=worker, args=(k,))
            for k in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert hist.count == threads * per_thread
        expected_sum = sum(
            float((i % 100) + k)
            for k in range(threads)
            for i in range(per_thread)
        )
        assert hist.sum == pytest.approx(expected_sum)

    def test_merge_order_does_not_change_quantiles(self):
        """Merging is commutative: any merge order yields byte-identical
        state, hence identical quantiles."""
        parts = []
        for k in range(4):
            part = Histogram()
            for i in range(500):
                part.record(float(1 + (i * (k + 3)) % 997))
            parts.append(part)

        def merged(order):
            total = Histogram()
            for idx in order:
                total.merge(parts[idx])
            return total

        forward = merged([0, 1, 2, 3])
        backward = merged([3, 2, 1, 0])
        shuffled = merged([2, 0, 3, 1])
        assert forward.as_dict() == backward.as_dict() == shuffled.as_dict()
        for q in (0.5, 0.9, 0.99):
            assert forward.quantile(q) == backward.quantile(q)
            assert forward.quantile(q) == shuffled.quantile(q)

    def test_merge_rejects_growth_mismatch(self):
        a = Histogram(growth=1.1)
        b = Histogram(growth=1.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_pickle_roundtrip(self):
        hist = Histogram()
        for value in (0.0, 1.0, 7.5, 1234.5):
            hist.record(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.as_dict() == hist.as_dict()
        # The clone is live, not a frozen snapshot.
        clone.record(2.0)
        assert clone.count == hist.count + 1

    def test_bytes_roundtrip(self):
        hist = Histogram()
        for value in (0.0, 3.0, 9000.0):
            hist.record(value)
        clone = Histogram.from_bytes(hist.to_bytes())
        assert clone.as_dict() == hist.as_dict()

    def test_encode_decode_histograms(self):
        """The executor's bytes-only IPC framing round-trips a mapping."""
        a, b = Histogram(), Histogram()
        for i in range(50):
            a.record(float(i))
            b.record(float(i * 10))
        blob = encode_histograms({"worker/label_us": a, "worker/decode_us": b})
        assert isinstance(blob, bytes)
        decoded = decode_histograms(blob)
        assert sorted(decoded) == ["worker/decode_us", "worker/label_us"]
        assert decoded["worker/label_us"].as_dict() == a.as_dict()
        assert decoded["worker/decode_us"].as_dict() == b.as_dict()


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.histogram("a") is registry.histogram("a")
        registry.record("a", 5.0)
        assert registry.histogram("a").count == 1
        registry.counter("hits", 3)
        registry.gauge("resident").add(2)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["resident"] == {"current": 2, "peak": 2}

    def test_growth_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("a", growth=1.1)
        with pytest.raises(ValueError):
            registry.histogram("a", growth=1.2)

    def test_snapshot_is_deterministic(self):
        """Same events, different insertion orders -> identical JSON."""

        def build(order):
            registry = MetricsRegistry()
            for name, value in order:
                registry.record(name, value)
                registry.counter(f"count/{name.split('/')[-1]}")
            return registry.snapshot(include_buckets=True)

        events = [("z/late", 5.0), ("a/early", 1.0), ("m/mid", 3.0)]
        forward = build(events)
        backward = build(list(reversed(events)))
        assert json.dumps(forward, sort_keys=True) == json.dumps(
            backward, sort_keys=True
        )
        assert list(forward["histograms"]) == sorted(forward["histograms"])

    def test_merge_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", 2)
        b.counter("n", 3)
        a.record("h", 1.0)
        b.record("h", 9.0)
        a.gauge("g").add(4)
        b.gauge("g").add(1)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["n"] == 5
        assert snap["histograms"]["h"]["count"] == 2
        # Gauge merge: currents add, peaks take the max.
        assert snap["gauges"]["g"] == {"current": 5, "peak": 4}

    def test_merge_histograms_from_worker_encoding(self):
        """The parent side of the IPC path: decoded name -> Histogram."""
        worker = Histogram()
        for i in range(10):
            worker.record(float(i + 1))
        registry = MetricsRegistry()
        registry.record("worker/label_us", 100.0)
        blob = encode_histograms({"worker/label_us": worker})
        registry.merge_histograms(decode_histograms(blob))
        assert registry.histogram("worker/label_us").count == 11


# ----------------------------------------------------------------------
# Tracer + sinks
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_deterministic_ids(self):
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=True, sample=1.0)
        with tracer.span("outer", seq=1) as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        tracer.close()
        assert outer.trace_id == "t000001"
        assert outer.span_id == "s000001"
        assert inner.span_id == "s000002"
        assert outer.parent_id is None
        # The inner span finishes (and is emitted) first.
        assert [r["name"] for r in sink.records] == ["inner", "outer"]
        assert all(r["duration_us"] >= 0 for r in sink.records)
        assert sink.records[1]["attrs"] == {"seq": 1}

    def test_two_runs_emit_identical_ids(self):
        def run():
            sink = ListTraceSink()
            tracer = Tracer(sink=sink, enabled=True, sample=1.0)
            for _ in range(3):
                with tracer.span("op"):
                    tracer.emit("sub", 5)
            tracer.close()
            return [
                (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
                for r in sink.records
            ]

        assert run() == run()

    def test_disabled_tracer_is_inert(self):
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=False)
        with tracer.span("op") as span:
            assert span is None
        tracer.emit("op", 10)
        tracer.close()
        assert tracer.spans_started == 0
        assert tracer.spans_written == 0
        assert sink.records == []

    def test_accumulator_sampling_keeps_exact_fraction(self):
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=True, sample=0.25)
        for _ in range(100):
            with tracer.span("root"):
                pass
        tracer.close()
        assert tracer.spans_started == 100
        assert tracer.spans_written == 25

    def test_children_inherit_sampling_decision(self):
        """Traces are complete or absent, never torn."""
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=True, sample=0.5)
        for _ in range(10):
            with tracer.span("root"):
                tracer.emit("child", 1)
        tracer.close()
        kept_roots = [r for r in sink.records if r["parent_id"] is None]
        kept_children = [
            r for r in sink.records if r["parent_id"] is not None
        ]
        assert len(kept_roots) == 5
        assert len(kept_children) == 5
        root_traces = {r["trace_id"] for r in kept_roots}
        assert {r["trace_id"] for r in kept_children} == root_traces

    def test_emit_parents_under_open_span(self):
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=True, sample=1.0)
        with tracer.span("outer") as outer:
            tracer.emit("measured", 123, records=7)
        tracer.close()
        measured = next(r for r in sink.records if r["name"] == "measured")
        assert measured["parent_id"] == outer.span_id
        assert measured["duration_us"] == 123
        assert measured["attrs"] == {"records": 7}

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            Tracer(enabled=True, sample=1.5)

    def test_env_knobs(self, monkeypatch):
        """There are none: a default ``Tracer`` is off and unsampled
        whatever the environment sets."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
        tracer = Tracer()
        assert not tracer.enabled and tracer.sample == 1.0


class TestTraceSinks:
    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(
            sink=JsonlTraceSink(str(path)), enabled=True, sample=1.0
        )
        with tracer.span("op", k=1):
            pass
        tracer.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        assert lines[0]["name"] == "op"
        assert lines[0]["attrs"] == {"k": 1}

    def test_dfs_sink_rolls_and_finalizes(self):
        dfs = DistributedFileSystem()
        sink = DfsTraceSink(dfs, "/obs/traces", shard_records=10)
        tracer = Tracer(sink=sink, enabled=True, sample=1.0)
        for i in range(25):
            tracer.emit("op", i)
        tracer.close()
        paths = sink.paths()
        # 25 spans at 10 per shard: two full shards + one partial,
        # finalized by close().
        assert len(paths) == 3
        records = list(iter_record_blobs(dfs, paths))
        assert len(records) == 25
        assert [r["duration_us"] for r in records] == list(range(25))
        assert sink.records_written == 25

    def test_dfs_sink_close_abandons_empty_shard(self):
        dfs = DistributedFileSystem()
        sink = DfsTraceSink(dfs, "/obs/empty", shard_records=5)
        sink.close()
        assert sink.paths() == []

    def test_dfs_sink_validates_shard_records(self):
        with pytest.raises(ValueError):
            DfsTraceSink(DistributedFileSystem(), "/obs/bad", shard_records=0)


# ----------------------------------------------------------------------
# TelemetryExporter
# ----------------------------------------------------------------------
class TestTelemetryExporter:
    def test_export_now_is_durable_and_sequenced(self, tmp_path):
        dfs = DistributedFileSystem()
        path = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry()
        registry.record("h", 5.0)
        exporter = TelemetryExporter(
            registry, interval_s=60.0, dfs=dfs, root="/obs/metrics",
            path=str(path),
        )
        first = exporter.export_now()
        registry.record("h", 6.0)
        second = exporter.export_now()
        assert (first["seq"], second["seq"]) == (0, 1)
        assert second["histograms"]["h"]["count"] == 2
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert [line["seq"] for line in lines] == [0, 1]
        records = list(
            iter_record_blobs(dfs, ["/obs/metrics/metrics-00000.records"])
        )
        assert records[0]["seq"] == 0

    def test_stop_takes_final_snapshot(self):
        registry = MetricsRegistry()
        exporter = TelemetryExporter(registry, interval_s=3600.0)
        with exporter:
            registry.counter("late", 7)
        # Nothing ticked (interval is an hour), but stop() snapshots.
        assert exporter.snapshots_written >= 1
        assert exporter.last_snapshot["counters"]["late"] == 7


# ----------------------------------------------------------------------
# Integration with the hot layers
# ----------------------------------------------------------------------
class TestHotPathIntegration:
    def test_stream_report_carries_telemetry(self):
        corpus = make_corpus(n=300, seed=7)
        registry = MetricsRegistry()
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=True, sample=1.0)
        pipe = MicroBatchPipeline(
            make_lfs(),
            batch_size=64,
            collect_votes=True,
            telemetry=registry,
            tracer=tracer,
        )
        report = pipe.run(MemorySource(corpus))
        tracer.close()
        snap = report.telemetry
        assert snap is not None
        for key in (
            "stream/decode_us",
            "stream/label_us",
            "stream/queue_wait_us",
            "stream/batch_latency_us",
        ):
            assert key in snap["histograms"], key
            assert snap["histograms"][key]["count"] == report.batches
        assert {r["name"] for r in sink.records} >= {
            "stream.ingest",
            "stream.label",
        }
        # Telemetry keys recorded by the hot layers stay inside the
        # documented contract (plus nothing undocumented).
        assert set(snap["histograms"]) <= set(contract_keys("histogram"))

    def test_bare_report_has_no_telemetry(self):
        corpus = make_corpus(n=120, seed=7)
        pipe = MicroBatchPipeline(make_lfs(), batch_size=64)
        report = pipe.run(MemorySource(corpus))
        assert report.telemetry is None

    def test_telemetry_changes_no_durable_byte(self):
        """A registry, an always-on tracer and a running exporter leave
        every byte under the stream root (vote shards, label shards,
        manifests) and the offline vote matrix as a bare run makes them."""
        corpus = make_corpus(n=300, seed=7)
        lfs = make_lfs()
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/id/examples", num_shards=2)

        def durable_bytes(root, **observers):
            CheckpointedStream(
                dfs, lfs, root, batch_size=64,
                online_config=ONLINE_CONFIG, checkpoint_every=2,
                **observers,
            ).run(RecordStreamSource(dfs, shards))
            return tree_bytes(dfs, root)

        registry = MetricsRegistry()
        tracer = Tracer(
            sink=DfsTraceSink(dfs, "/id/obs/traces"), enabled=True, sample=1.0
        )
        with TelemetryExporter(
            registry, interval_s=0.01, dfs=dfs, root="/id/obs/metrics"
        ) as exporter:
            observed = durable_bytes(
                "/id/on", telemetry=registry, tracer=tracer
            )
            votes = apply_lfs_in_memory(
                lfs, corpus, batch_size=64, telemetry=registry, tracer=tracer
            )
        tracer.close()
        # The observed arm really was observed.
        assert tracer.spans_written > 0
        assert exporter.snapshots_written >= 1
        assert registry.histogram("stream/checkpoint_us").count > 0

        assert observed == durable_bytes("/id/off")
        bare = apply_lfs_in_memory(lfs, corpus, batch_size=64)
        assert votes.example_ids == bare.example_ids
        assert (votes.matrix == bare.matrix).all()

    def test_cross_worker_merge_equals_single_worker_totals(self):
        """Worker-side histograms merged over IPC carry the same totals
        as one process doing all the work."""
        corpus = make_corpus(n=600, seed=23)
        multi = MetricsRegistry()
        with ParallelLabelExecutor(
            SPEC, workers=2, telemetry=multi
        ) as executor:
            apply_lfs_in_memory(
                make_lfs(), corpus, executor=executor, batch_size=100
            )
        single = MetricsRegistry()
        apply_lfs_in_memory(
            make_lfs(), corpus, batch_size=100, telemetry=single
        )
        blocks = 6  # 600 examples / block size 100
        for key in ("worker/decode_us", "worker/label_us"):
            assert multi.histogram(key).count == blocks
        assert single.histogram("offline/label_block_us").count == blocks
        assert multi.snapshot()["counters"]["parallel/blocks"] == blocks

    def test_label_server_records_latency_histograms(self, tmp_path):
        corpus = make_corpus(n=200, seed=5)
        lfs = make_lfs()
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/obs/examples", num_shards=2)
        stream = CheckpointedStream(
            dfs, lfs, "/obs/stream", batch_size=100,
            online_config=ONLINE_CONFIG, checkpoint_every=1,
            write_labels=False,
        )
        stream.run(RecordStreamSource(dfs, shards))
        registry = make_registry(dfs, "/obs/live")
        deploy(dfs, stream.manager.manifest_paths()[-1], "/obs/live")
        telemetry = MetricsRegistry()
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=True, sample=1.0)
        config = ServeConfig(poll_ms=2.0)
        with LabelServer(
            registry, lfs, config, telemetry=telemetry, tracer=tracer
        ) as server:
            for example in corpus[:40]:
                server.predict(example)
        # Read after stop(): a flush's stage event lands after its
        # requests resolve, so a live report can trail by one batch.
        report = server.report()
        tracer.close()
        snap = report["telemetry"]
        assert snap["histograms"]["serving/latency_us"]["count"] == 40
        batch_hist = snap["histograms"]["serving/batch_size"]
        assert batch_hist["count"] == report["counters"]["serving/batches"]
        assert any(r["name"] == "serving.flush" for r in sink.records)
        assert set(snap["histograms"]) <= set(contract_keys("histogram"))
        # The flush's split: labelling and scoring, once per batch, and
        # never more than the flush they are part of.
        flushes = [r for r in sink.records if r["name"] == "serving.flush"]
        assert len(flushes) == batch_hist["count"]
        for key in ("serving/lf_us", "serving/score_us"):
            assert snap["histograms"][key]["count"] == batch_hist["count"]
        for flush in flushes:
            attrs = flush["attrs"]
            assert 0 <= attrs["lf_us"] + attrs["score_us"] <= flush["duration_us"]
        # The deploy: one timed refresh per swap, naming its generation.
        assert report["counters"]["serving/swaps"] == 1
        assert snap["histograms"]["serving/refresh_us"]["count"] == 1
        (refresh,) = [r for r in sink.records if r["name"] == "serving.refresh"]
        assert refresh["attrs"]["generation"] == 1
        assert refresh["duration_us"] > 0

        # A degraded flush labels and scores nothing: no split recorded.
        degraded = MetricsRegistry()
        with LabelServer(
            make_registry(dfs, "/obs/empty"), lfs, config, telemetry=degraded
        ) as server:
            assert server.predict(corpus[0]).degraded
        histograms = degraded.snapshot()["histograms"]
        assert histograms["serving/batch_size"]["count"] == 1
        assert "serving/lf_us" not in histograms
        assert "serving/score_us" not in histograms
        assert "serving/refresh_us" not in histograms


# ----------------------------------------------------------------------
# Zero cost when off
# ----------------------------------------------------------------------
class _CountingTime:
    """Stand-in for the ``time`` module that counts clock reads."""

    def __init__(self) -> None:
        self.reads = 0

    def perf_counter(self) -> float:
        self.reads += 1
        return 0.0


class TestZeroCostWhenOff:
    def test_unobserved_offline_loop_reads_no_clock(self, monkeypatch):
        """No registry, no tracer: the batched in-memory loop makes zero
        ``perf_counter`` calls — in the applier or through the seam."""
        import repro.lf.applier as applier
        import repro.obs.registry as registry_module

        corpus = make_corpus(n=300, seed=3)
        clock = _CountingTime()
        monkeypatch.setattr(applier, "time", clock)
        monkeypatch.setattr(registry_module, "time", clock)
        off = apply_lfs_in_memory(make_lfs(), corpus, batch_size=64)
        assert clock.reads == 0
        # Observed, it is two reads per block and identical votes.
        on = apply_lfs_in_memory(
            make_lfs(), corpus, batch_size=64, telemetry=MetricsRegistry()
        )
        assert clock.reads == 2 * 5  # ceil(300 / 64) blocks
        assert (on.matrix == off.matrix).all()

    def test_disabled_tracer_opens_no_span_and_no_histogram(
        self, tmp_path, monkeypatch
    ):
        """A disabled ``Tracer`` (the default) and no registry: none of
        the five instrumented layers opens a span, creates a histogram,
        collects worker stats, or reads the seam's clock."""
        import repro.obs.registry as registry_module
        import repro.parallel.executor as executor_module
        from repro.lf.applier import stage_examples
        from repro.streaming import CheckpointedStream, RecordStreamSource

        from tests.test_checkpoint import ONLINE_CONFIG

        created: list[float] = []

        class SpiedHistogram(Histogram):
            def __init__(self, growth=registry_module.DEFAULT_GROWTH):
                created.append(growth)
                super().__init__(growth)

        def no_worker_stats(blob):
            raise AssertionError("workers collected histograms while off")

        clock = _CountingTime()
        monkeypatch.setattr(registry_module, "Histogram", SpiedHistogram)
        monkeypatch.setattr(registry_module, "time", clock)
        monkeypatch.setattr(
            executor_module, "decode_histograms", no_worker_stats
        )
        sink = ListTraceSink()
        tracer = Tracer(sink=sink, enabled=False)
        corpus = make_corpus(n=200, seed=5)
        lfs = make_lfs()
        dfs = DistributedFileSystem()

        # 1. offline applier, 2. process pool
        apply_lfs_in_memory(lfs, corpus, batch_size=64, tracer=tracer)
        with ParallelLabelExecutor(SPEC, workers=2) as executor:
            apply_lfs_in_memory(lfs, corpus, executor=executor, tracer=tracer)
            assert not executor.metrics.observed
        # 3. pipeline + 4. checkpointed stream
        shards = stage_examples(dfs, corpus, "/off/examples", num_shards=2)
        stream = CheckpointedStream(
            dfs, lfs, "/off/stream", batch_size=100,
            online_config=ONLINE_CONFIG, write_labels=False, tracer=tracer,
        )
        report = stream.run(RecordStreamSource(dfs, shards))
        assert report.checkpoints_written == 2
        assert report.stream.telemetry is None
        # 5. serving tier
        registry = make_registry(dfs, "/off/live")
        deploy(dfs, stream.manager.manifest_paths()[-1], "/off/live")
        config = ServeConfig(poll_ms=2.0)
        with LabelServer(registry, lfs, config, tracer=tracer) as server:
            for example in corpus[:20]:
                server.predict(example)
            served = server.report()
        assert served["counters"]["serving/batches"] >= 1
        assert served["telemetry"] is None

        assert tracer.spans_started == 0 and sink.records == []
        assert created == []
        assert clock.reads == 0
