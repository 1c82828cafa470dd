"""Unit + integration tests for the unified telemetry layer.

Covers the :mod:`repro.obs` contracts the rest of the repo leans on:

* the log-bucketed :class:`Histogram` — thread safety under a
  multi-thread hammer and bounded quantile error;
* the :class:`MetricsRegistry` — get-or-create semantics and
  deterministic snapshots;
* the :class:`Tracer` — deterministic ids, per-thread parent nesting,
  and both sinks (list, rolling DFS trace shards);
* the :class:`TelemetryExporter` — durable snapshot records, JSONL
  lines that ``scripts/metrics_dump.py`` reads back, numbering that
  resumes after a restart, and a failed publish that consumes no number;
* integration — ``StreamReport.telemetry`` from an instrumented
  pipeline, durable output byte-identical with and without telemetry,
  a failed run that leaves nothing resident on the registry, one
  ``worker/*`` sample per pool block recorded by the parent, and the
  label server's per-request histograms.
"""

import importlib.util
import inspect
import json
import threading
from pathlib import Path

import pytest

from repro.dfs.filesystem import DFSError, DistributedFileSystem
from repro.dfs.records import iter_record_blobs, write_records
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.obs import (
    DfsTraceSink,
    Histogram,
    ListTraceSink,
    MetricsRegistry,
    TelemetryExporter,
    Tracer,
)
from repro.obs.tracing import SHARD_RECORDS
from repro.parallel import ParallelLabelExecutor
from repro.serving import LabelServer, ServeConfig
from repro.streaming import (
    CheckpointedStream,
    MemorySource,
    MicroBatchPipeline,
    RecordStreamSource,
    SimulatedCrash,
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

REPO = Path(__file__).resolve().parent.parent


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

    def test_snapshot_is_deterministic(self):
        """Same events, different insertion orders -> identical JSON."""

        def build(order):
            registry = MetricsRegistry()
            for name, value in order:
                registry.record(name, value)
                registry.counter(f"count/{name.split('/')[-1]}")
            return registry.snapshot()

        events = [("z/late", 5.0), ("a/early", 1.0), ("m/mid", 3.0)]
        forward = build(events)
        backward = build(list(reversed(events)))
        assert json.dumps(forward, sort_keys=True) == json.dumps(
            backward, sort_keys=True
        )
        assert list(forward["histograms"]) == sorted(forward["histograms"])


# ----------------------------------------------------------------------
# Tracer + sinks
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_deterministic_ids(self):
        sink = ListTraceSink()
        tracer = Tracer(sink=sink)
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
            tracer = Tracer(sink=sink)
            for _ in range(3):
                with tracer.span("op"):
                    tracer.emit("sub", 5)
            tracer.close()
            return [
                (r["name"], r["trace_id"], r["span_id"], r["parent_id"])
                for r in sink.records
            ]

        assert run() == run()

    def test_emit_parents_under_open_span(self):
        sink = ListTraceSink()
        tracer = Tracer(sink=sink)
        with tracer.span("outer") as outer:
            tracer.emit("measured", 123, records=7)
        tracer.close()
        measured = next(r for r in sink.records if r["name"] == "measured")
        assert measured["parent_id"] == outer.span_id
        assert measured["duration_us"] == 123
        assert measured["attrs"] == {"records": 7}

    def test_env_knobs(self, monkeypatch):
        """There are none: a ``Tracer`` writes every span it opens
        whatever the environment sets."""
        monkeypatch.setenv("REPRO_TRACE", "0")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
        tracer = Tracer()
        for _ in range(10):
            with tracer.span("root"):
                tracer.emit("child", 1)
        assert tracer.spans_written == 20
        assert len(tracer.sink.records) == 20


class TestTraceSinks:
    def test_dfs_sink_rolls_and_finalizes(self):
        dfs = DistributedFileSystem()
        sink = DfsTraceSink(dfs, "/obs/traces")
        tracer = Tracer(sink=sink)
        n = 2 * SHARD_RECORDS + 25
        for i in range(n):
            tracer.emit("op", i)
        tracer.close()
        paths = sink.paths()
        # Two full shards + one partial, finalized by close().
        assert len(paths) == 3
        records = list(iter_record_blobs(dfs, paths))
        assert len(records) == n
        assert [r["duration_us"] for r in records] == list(range(n))
        assert sink.records_written == n

    def test_dfs_sink_close_abandons_empty_shard(self):
        dfs = DistributedFileSystem()
        sink = DfsTraceSink(dfs, "/obs/empty")
        sink.close()
        assert sink.paths() == []


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
            registry, dfs=dfs, root="/obs/metrics", path=str(path)
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

    def test_metrics_dump_renders_an_exporter_line(self, tmp_path):
        """``scripts/metrics_dump.py`` reads back what the exporter
        writes: counters, gauges and histogram digests all render."""
        spec = importlib.util.spec_from_file_location(
            "metrics_dump", REPO / "scripts" / "metrics_dump.py"
        )
        metrics_dump = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(metrics_dump)
        path = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry()
        exporter = TelemetryExporter(registry, path=str(path))
        exporter.export_now()
        registry.counter("demo/requests", 3)
        registry.gauge("demo/resident").add(7)
        for value in (10.0, 20.0, 30.0):
            registry.record("demo/latency_us", value)
        exporter.export_now()
        snapshot = metrics_dump.load_snapshot(path)
        assert snapshot["seq"] == 1
        lines = metrics_dump.format_snapshot(snapshot)
        assert lines[0].startswith("telemetry snapshot  namespace=repro  seq=1")
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:] if line}
        assert rows["demo/requests"] == ["3"]
        assert rows["demo/resident"] == ["7", "7"]
        count, mean, *_, high = rows["demo/latency_us"]
        assert (count, mean, high) == ("3", "20.0", "30.0")

    def test_restarted_exporter_resumes_after_the_highest_snapshot(self):
        """A second exporter on a root that already holds snapshots
        publishes after them, ordered by number, not by name: the
        names outgrow their 5-digit padding at 100000."""
        dfs = DistributedFileSystem()
        registry = MetricsRegistry()
        first = TelemetryExporter(registry, dfs=dfs, root="/obs/m")
        first.export_now()
        first.export_now()
        restarted = TelemetryExporter(registry, dfs=dfs, root="/obs/m")
        assert restarted.snapshots_written == 0
        assert restarted.export_now()["seq"] == 2
        assert restarted.snapshots_written == 1
        write_records(dfs, "/obs/m/metrics-99999.records", [{"seq": 99999}])
        write_records(dfs, "/obs/m/metrics-100000.records", [{"seq": 100000}])
        late = TelemetryExporter(registry, dfs=dfs, root="/obs/m")
        assert late.export_now()["seq"] == 100001
        assert dfs.exists("/obs/m/metrics-100001.records")

    def test_failed_publish_consumes_no_seq(self):
        """A publish that raises is not counted, and the next call
        retries its number."""
        dfs = DistributedFileSystem()
        registry = MetricsRegistry()
        exporter = TelemetryExporter(registry, dfs=dfs, root="/obs/f")
        write_records(dfs, "/obs/f/metrics-00000.records", [{"seq": 0}])
        with pytest.raises(DFSError):
            exporter.export_now()
        assert exporter.snapshots_written == 0
        assert exporter.last_snapshot is None
        dfs.delete("/obs/f/metrics-00000.records")
        assert exporter.export_now()["seq"] == 0
        assert exporter.snapshots_written == 1


# ----------------------------------------------------------------------
# Integration with the hot layers
# ----------------------------------------------------------------------
class TestHotPathIntegration:
    def test_stream_report_carries_telemetry(self):
        corpus = make_corpus(n=300, seed=7)
        sink = ListTraceSink()
        tracer = Tracer(sink=sink)
        registry = MetricsRegistry(tracer=tracer)
        pipe = MicroBatchPipeline(
            make_lfs(),
            batch_size=64,
            collect_votes=True,
            telemetry=registry,
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
        """A registry carrying a tracer and an exporter publishing
        between the observed runs leave every byte under the stream root
        (vote shards, label shards, manifests) and the offline vote
        matrix as a bare run makes them."""
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

        tracer = Tracer(sink=DfsTraceSink(dfs, "/id/obs/traces"))
        registry = MetricsRegistry(tracer=tracer)
        exporter = TelemetryExporter(registry, dfs=dfs, root="/id/obs/metrics")
        observed = durable_bytes("/id/on", telemetry=registry)
        exporter.export_now()
        votes = apply_lfs_in_memory(
            lfs, corpus, batch_size=64, telemetry=registry
        )
        exporter.export_now()
        tracer.close()
        # The observed arm really was observed.
        assert tracer.spans_written > 0
        assert exporter.snapshots_written == 2
        assert registry.histogram("stream/checkpoint_us").count > 0

        assert observed == durable_bytes("/id/off")
        bare = apply_lfs_in_memory(lfs, corpus, batch_size=64)
        assert votes.example_ids == bare.example_ids
        assert (votes.matrix == bare.matrix).all()

    def test_pool_records_one_worker_sample_per_block(self):
        """The parent records each block's two worker timings once: one
        ``worker/*`` sample per block, and the ``worker/label_us`` sum is
        the ``label_us`` that ``label_blocks`` hands back."""
        corpus = make_corpus(n=600, seed=23)
        registry = MetricsRegistry()
        blocks = [
            (seq, corpus[start:start + 100])
            for seq, start in enumerate(range(0, 600, 100))
        ]
        with ParallelLabelExecutor(
            SPEC, workers=2, telemetry=registry
        ) as executor:
            label_us = [b.label_us for b in executor.label_blocks(blocks)]
        assert len(label_us) == len(blocks)
        for key in ("worker/decode_us", "worker/label_us"):
            assert registry.histogram(key).count == len(blocks)
        assert registry.histogram("worker/label_us").sum == sum(label_us)
        assert registry.snapshot()["counters"]["parallel/blocks"] == len(blocks)

    def test_failed_run_leaves_no_record_resident(self):
        """A stream run that raises releases the records it still held,
        so a clean resume on the same registry ends at level 0 with the
        run's own peak."""
        corpus = make_corpus(n=500, seed=7)
        lfs = make_lfs()
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/res/examples", num_shards=2)
        registry = MetricsRegistry()

        def stream():
            return CheckpointedStream(
                dfs, lfs, "/res/stream", batch_size=100,
                online_config=ONLINE_CONFIG, checkpoint_every=1,
                telemetry=registry,
            )

        with pytest.raises(SimulatedCrash):
            stream().run(RecordStreamSource(dfs, shards), fail_after_batch=2)
        gauge = registry.snapshot()["gauges"]["stream/resident_records"]
        assert gauge["current"] == 0
        report = stream().run(RecordStreamSource(dfs, shards))
        gauge = registry.snapshot()["gauges"]["stream/resident_records"]
        assert gauge == {
            "current": 0, "peak": report.stream.peak_resident_records
        }

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
        sink = ListTraceSink()
        tracer = Tracer(sink=sink)
        telemetry = MetricsRegistry(tracer=tracer)
        config = ServeConfig(poll_ms=2.0)
        with LabelServer(registry, lfs, config, telemetry=telemetry) as server:
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
# One seam: ``telemetry=`` carries histograms and spans alike
# ----------------------------------------------------------------------
def traced_registry():
    """A registry whose stage events also land as spans in a list."""
    sink = ListTraceSink()
    return MetricsRegistry(tracer=Tracer(sink)), sink


class TestOneSeam:
    @pytest.mark.parametrize(
        "entry",
        [
            apply_lfs_in_memory,
            MicroBatchPipeline,
            CheckpointedStream,
            ParallelLabelExecutor,
            LabelServer,
        ],
        ids=lambda entry: entry.__name__,
    )
    def test_entry_point_takes_telemetry_and_no_tracer(self, entry):
        params = inspect.signature(entry).parameters
        assert "telemetry" in params
        assert "tracer" not in params

    def test_attach_inherits_the_parent_tracer(self):
        registry, sink = traced_registry()
        scoped = MetricsRegistry().attach(registry)
        assert scoped.observed
        scoped.stage("offline.label_block", 7, records=3)
        assert [(r["name"], r["duration_us"]) for r in sink.records] == [
            ("offline.label_block", 7)
        ]
        detached = MetricsRegistry().attach(None)
        assert not detached.observed
        detached.stage("offline.label_block", 7, records=3)
        assert len(sink.records) == 1

    def test_offline_and_pool_layers(self):
        corpus = make_corpus(n=200, seed=5)
        lfs = make_lfs()
        registry, sink = traced_registry()
        apply_lfs_in_memory(lfs, corpus, batch_size=64, telemetry=registry)
        names = [r["name"] for r in sink.records]
        assert names == ["offline.label_block"] * 4
        with ParallelLabelExecutor(
            SPEC, workers=2, telemetry=registry
        ) as executor:
            apply_lfs_in_memory(lfs, corpus, executor=executor)
            report = MicroBatchPipeline(
                lfs, batch_size=100, executor=executor
            ).run(MemorySource(corpus))
        # The pool reports through its own ``telemetry=`` alone; it has
        # no stage event, so it adds no span.
        assert registry.histogram("worker/label_us").count >= report.batches
        assert len(sink.records) == 4

    def test_stream_layers(self):
        corpus = make_corpus(n=200, seed=5)
        lfs = make_lfs()
        registry, sink = traced_registry()
        MicroBatchPipeline(
            lfs, batch_size=100, sinks=[lambda seq, examples, votes: None],
            telemetry=registry,
        ).run(MemorySource(corpus))
        assert {r["name"] for r in sink.records} == {
            "stream.ingest", "stream.label", "stream.sink"
        }
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/seam/examples", num_shards=2)
        stream_registry, stream_sink = traced_registry()
        CheckpointedStream(
            dfs, lfs, "/seam/stream", batch_size=100,
            online_config=ONLINE_CONFIG, telemetry=stream_registry,
        ).run(RecordStreamSource(dfs, shards))
        names = [r["name"] for r in stream_sink.records]
        assert set(names) == {
            "stream.ingest", "stream.label", "stream.sink", "stream.checkpoint"
        }
        assert names.count("stream.checkpoint") == 2

    def test_serving_layer(self):
        corpus = make_corpus(n=200, seed=5)
        lfs = make_lfs()
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/seam/examples", num_shards=2)
        stream = CheckpointedStream(
            dfs, lfs, "/seam/stream", batch_size=100,
            online_config=ONLINE_CONFIG, write_labels=False,
        )
        stream.run(RecordStreamSource(dfs, shards))
        deploy(dfs, stream.manager.manifest_paths()[-1], "/seam/live")
        registry, sink = traced_registry()
        with LabelServer(
            make_registry(dfs, "/seam/live"), lfs, ServeConfig(poll_ms=2.0),
            telemetry=registry,
        ) as server:
            for example in corpus[:10]:
                server.predict(example)
        assert {r["name"] for r in sink.records} == {
            "serving.flush", "serving.refresh"
        }


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
        """No registry: the batched in-memory loop makes zero
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

    def test_nothing_attached_opens_no_span_and_no_histogram(
        self, tmp_path, monkeypatch
    ):
        """No ``telemetry=`` (the default): none of the five
        instrumented layers opens a span, creates a histogram, or reads
        the seam's clock."""
        import repro.obs.registry as registry_module
        from repro.lf.applier import stage_examples
        from repro.streaming import CheckpointedStream, RecordStreamSource

        from tests.test_checkpoint import ONLINE_CONFIG

        created: list[Histogram] = []

        class SpiedHistogram(Histogram):
            def __init__(self):
                super().__init__()
                created.append(self)

        spans: list[str] = []
        clock = _CountingTime()
        monkeypatch.setattr(registry_module, "Histogram", SpiedHistogram)
        monkeypatch.setattr(registry_module, "time", clock)
        monkeypatch.setattr(
            Tracer, "_open", lambda self, name, attrs: spans.append(name)
        )
        corpus = make_corpus(n=200, seed=5)
        lfs = make_lfs()
        dfs = DistributedFileSystem()

        # 1. offline applier, 2. process pool
        apply_lfs_in_memory(lfs, corpus, batch_size=64)
        with ParallelLabelExecutor(SPEC, workers=2) as executor:
            apply_lfs_in_memory(lfs, corpus, executor=executor)
            assert not executor.metrics.observed
        # 3. pipeline + 4. checkpointed stream
        shards = stage_examples(dfs, corpus, "/off/examples", num_shards=2)
        stream = CheckpointedStream(
            dfs, lfs, "/off/stream", batch_size=100,
            online_config=ONLINE_CONFIG, write_labels=False,
        )
        report = stream.run(RecordStreamSource(dfs, shards))
        assert report.checkpoints_written == 2
        assert report.stream.telemetry is None
        # 5. serving tier
        registry = make_registry(dfs, "/off/live")
        deploy(dfs, stream.manager.manifest_paths()[-1], "/off/live")
        config = ServeConfig(poll_ms=2.0)
        with LabelServer(registry, lfs, config) as server:
            for example in corpus[:20]:
                server.predict(example)
            served = server.report()
        assert served["counters"]["serving/batches"] >= 1
        assert served["telemetry"] is None

        assert spans == []
        assert created == []
        assert clock.reads == 0
