"""Tests for the micro-batch streaming subsystem.

Covers the three layers independently — sources (bounded ingestion),
the MicroBatchPipeline scheduler (ordering, residency, error
propagation, counters), and the OnlineLabelModel (moments, lossless
pattern log, refit-exactness) — plus the gauge primitive they share.
The cross-cutting stream-vs-offline equivalence guarantees live in
``test_batch_equivalence.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.experiments.harness import get_content_experiment
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.lf.default import LabelingFunction
from repro.lf.registry import LFCategory, LFInfo
from repro.obs.counters import Gauge
from repro.obs import MetricsRegistry
from repro.parallel import LFSuiteSpec, ParallelLabelExecutor
from repro.streaming import (
    DriftMonitor,
    DriftPolicy,
    MemorySource,
    MicroBatchPipeline,
    RecordStreamSource,
    VoteSink,
    iter_example_batches,
)
from repro.types import Example

from tests.conftest import contract_keys, same_rows, synthetic_label_matrix


@pytest.fixture(scope="module")
def product_pipeline():
    exp = get_content_experiment("product", "tiny")
    return exp.lfs, exp.dataset.unlabeled[:300]


def build_product_suite():
    """Module-level factory: what the pool path's LFSuiteSpec points at."""
    return get_content_experiment("product", "tiny").lfs


def _sleepy_abstain(example):
    time.sleep(0.0002)
    return 0


def build_slow_product_suite():
    """The product suite plus one LF that abstains after a short sleep
    per example: a pool worker running it is slower than the stream
    that feeds it."""
    slow = LabelingFunction(
        LFInfo(
            name="sleepy_abstain",
            category=LFCategory.CONTENT_HEURISTIC,
            servable=True,
            description="always abstains, 0.2 ms per example",
        ),
        fn=_sleepy_abstain,
    )
    return [*build_product_suite(), slow]


@pytest.fixture(scope="module")
def warm_executor(product_pipeline):
    spec = LFSuiteSpec(factory="tests.test_streaming:build_product_suite")
    with ParallelLabelExecutor(spec, workers=2) as executor:
        yield executor


@pytest.fixture(scope="module")
def slow_executor(product_pipeline):
    spec = LFSuiteSpec(factory="tests.test_streaming:build_slow_product_suite")
    with ParallelLabelExecutor(spec, workers=1) as executor:
        yield executor


# ----------------------------------------------------------------------
# gauge
# ----------------------------------------------------------------------
class TestGauge:
    def test_tracks_level_and_peak(self):
        gauge = Gauge()
        gauge.add(5)
        gauge.add(3)
        gauge.subtract(6)
        gauge.add(1)
        assert gauge.current == 3
        assert gauge.peak == 8

    def test_rejects_negative_amounts_and_underflow(self):
        gauge = Gauge()
        with pytest.raises(ValueError):
            gauge.add(-1)
        with pytest.raises(ValueError):
            gauge.subtract(-1)
        with pytest.raises(ValueError):
            gauge.subtract(1)

    def test_concurrent_updates_never_lose_counts(self):
        """Concurrency regression test for the gauge's update race.

        A gauge may be raised on one thread and lowered on another; an
        unlocked read-modify-write would drop updates and report a bogus
        ``current``/``peak``. Hammer the gauge from both sides and check
        the invariants exactly.
        """
        gauge = Gauge()
        n, workers = 20_000, 4
        start = threading.Barrier(2 * workers)

        def add_side():
            start.wait()
            for _ in range(n):
                gauge.add(1)

        def subtract_side():
            start.wait()
            done = 0
            while done < n:
                try:
                    gauge.subtract(1)
                except ValueError:
                    continue  # momentarily empty; the adds catch up
                done += 1

        threads = [
            threading.Thread(target=target)
            for target in [add_side] * workers + [subtract_side] * workers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every add was matched by exactly one subtract: a lost update
        # on either side leaves current != 0 (or tripped underflow).
        assert gauge.current == 0
        assert 1 <= gauge.peak <= workers * n


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TestVoteSinkShape:
    @pytest.mark.parametrize(
        "shape", [(3, 2), (5, 2), (4, 1), (4, 3)], ids=str
    )
    def test_misshapen_votes_raise_before_anything_is_staged(self, dfs, shape):
        """Fewer or more rows than examples, or a width other than the
        sink's LF names, would publish a shard its meta record
        contradicts: the sink refuses the batch and stages nothing."""
        sink = VoteSink(dfs, "/run", ["a", "b"])
        examples = [Example(f"x{i}") for i in range(4)]
        with pytest.raises(ValueError, match="votes of shape"):
            sink(0, examples, np.zeros(shape, dtype=np.int8))
        assert dfs.list("/run/") == []
        assert dfs.staged_paths() == []
        assert (sink.shards_written, sink.records_written) == (0, 0)


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
class TestSources:
    def test_iter_example_batches_shapes(self):
        examples = [Example(f"x{i}") for i in range(10)]
        batches = list(iter_example_batches(iter(examples), 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [e.example_id for b in batches for e in b] == [
            f"x{i}" for i in range(10)
        ]

    def test_iter_example_batches_rejects_bad_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_example_batches(iter([]), 0))

    def test_record_stream_source_round_trips(self, dfs):
        examples = [Example(f"e{i}", fields={"k": i}) for i in range(25)]
        paths = stage_examples(dfs, examples, "/src/e", num_shards=3)
        streamed = list(RecordStreamSource(dfs, paths))
        # stage_examples round-robins across shards; same multiset of
        # examples, shard-major order.
        assert sorted(e.example_id for e in streamed) == sorted(
            e.example_id for e in examples
        )
        by_id = {e.example_id: e for e in examples}
        for got in streamed:
            assert got.to_record() == by_id[got.example_id].to_record()

    def test_record_stream_source_never_reads_blobs(self, dfs, monkeypatch):
        examples = [Example(f"e{i}") for i in range(10)]
        paths = stage_examples(dfs, examples, "/src/e", num_shards=1)

        def forbid(path):
            raise AssertionError("whole-shard blob read on the stream path")

        monkeypatch.setattr(dfs, "read_file", forbid)
        assert len(list(RecordStreamSource(dfs, paths))) == 10

    def test_cursor_resumes_at_every_position(self, dfs):
        """Resuming from the cursor after example k yields exactly the
        suffix — the whole stream is the degenerate k=0 case."""
        examples = [Example(f"e{i}", fields={"k": i}) for i in range(23)]
        paths = stage_examples(dfs, examples, "/src/e", num_shards=3)
        source = RecordStreamSource(dfs, paths)
        pairs = list(source.iter_with_cursor())
        full_ids = [e.example_id for e, _ in pairs]
        assert len(full_ids) == len(examples)
        for k, (_, cursor) in enumerate(pairs):
            suffix = [e.example_id for e in source.iter_from(cursor)]
            assert suffix == full_ids[k + 1:], f"bad suffix after {k}"

    def test_cursor_seek_decodes_only_the_suffix(self, dfs, monkeypatch):
        import repro.streaming.sources as sources_module

        examples = [Example(f"e{i}") for i in range(40)]
        paths = stage_examples(dfs, examples, "/src/e", num_shards=2)
        source = RecordStreamSource(dfs, paths)
        pairs = list(source.iter_with_cursor())
        _, cursor = pairs[29]  # resume after the 30th example

        decoded = []
        real = sources_module.stream_records_with_offsets

        def counting(handle, chunk_size):
            for record, end in real(handle, chunk_size):
                decoded.append(record["example_id"])
                yield record, end

        monkeypatch.setattr(
            sources_module, "stream_records_with_offsets", counting
        )
        suffix = list(source.iter_from(cursor))
        assert len(suffix) == 10
        # Nothing before the cursor was decoded: the seek skipped it.
        assert len(decoded) == 10

    def test_cursor_meta_round_trip(self):
        from repro.streaming import SourceCursor

        cursor = SourceCursor(shard=2, offset=4096)
        assert SourceCursor.from_meta(cursor.as_meta()) == cursor
        assert SourceCursor.from_meta({"batch_size": 64}) is None

    def test_cursor_validates_bounds(self, dfs):
        from repro.streaming import SourceCursor

        examples = [Example(f"e{i}") for i in range(5)]
        paths = stage_examples(dfs, examples, "/src/e", num_shards=1)
        source = RecordStreamSource(dfs, paths)
        with pytest.raises(ValueError, match="out of range"):
            list(source.iter_from(SourceCursor(shard=5, offset=0)))
        with pytest.raises(ValueError, match="beyond"):
            list(source.iter_from(SourceCursor(shard=0, offset=10 ** 9)))
        # Past the last shard only offset 0 exists; no offset is negative.
        assert list(source.iter_from(SourceCursor(shard=1, offset=0))) == []
        for bad in (SourceCursor(shard=1, offset=8), SourceCursor(shard=0, offset=-1)):
            with pytest.raises(ValueError, match="out of range"):
                list(source.iter_from(bad))
        # A stored cursor is two ints: no float truncated, no bool as 1.
        for shard, offset in ((0, 12.7), (0, True), (0.0, 0), (False, 0), ("0", 0)):
            with pytest.raises(ValueError, match="two ints"):
                SourceCursor.from_meta({"cursor_shard": shard, "cursor_offset": offset})

    def test_cursor_at_shard_eof_rolls_to_next_shard(self, dfs):
        examples = [Example(f"e{i}") for i in range(12)]
        paths = stage_examples(dfs, examples, "/src/e", num_shards=2)
        source = RecordStreamSource(dfs, paths)
        pairs = list(source.iter_with_cursor())
        shard0_records = sum(1 for _, c in pairs if c.shard == 0)
        eof_cursor = pairs[shard0_records - 1][1]
        assert eof_cursor.shard == 0
        rest = [e.example_id for e in source.iter_from(eof_cursor)]
        assert rest == [e.example_id for e, _ in pairs[shard0_records:]]


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
class TestMicroBatchPipeline:
    """Every case runs on the inline label path here and again on the
    pool path in :class:`TestMicroBatchPipelineOnPool`."""

    @pytest.fixture
    def stage(self):
        """Pipeline kwargs selecting the label path."""
        return {}

    @pytest.fixture
    def slow_stage(self):
        """Label-path kwargs for :func:`build_slow_product_suite`."""
        return {}

    def test_matches_offline_applier_in_order(self, product_pipeline, stage):
        lfs, examples = product_pipeline
        offline = apply_lfs_in_memory(lfs, examples)
        pipe = MicroBatchPipeline(
            lfs, batch_size=64, collect_votes=True, **stage
        )
        report = pipe.run(MemorySource(examples))
        assert report.examples == len(examples)
        assert report.label_matrix.example_ids == offline.example_ids
        assert np.array_equal(report.label_matrix.matrix, offline.matrix)
        assert report.votes_emitted == int(
            np.count_nonzero(offline.matrix)
        )
        assert report.peak_resident_records <= report.max_resident_records

    def test_sink_sees_batches_in_order(self, product_pipeline, stage):
        lfs, examples = product_pipeline
        seen: list[tuple[int, int]] = []
        pipe = MicroBatchPipeline(
            lfs,
            batch_size=77,
            on_batch=lambda seq, batch, votes: seen.append(
                (seq, len(batch))
            ),
            **stage,
        )
        report = pipe.run(MemorySource(examples))
        assert [seq for seq, _ in seen] == list(range(report.batches))
        assert sum(size for _, size in seen) == len(examples)

    def test_resident_records_bounded_under_slow_sink(
        self, product_pipeline, stage
    ):
        """Inline, one batch is resident at a time; on the pool, at most
        ``max_resident_batches`` — however slow the sink."""
        lfs, examples = product_pipeline
        pipe = MicroBatchPipeline(
            lfs,
            batch_size=32,
            max_resident_batches=2,
            on_batch=lambda *_: time.sleep(0.002),
            **stage,
        )
        report = pipe.run(MemorySource(examples))
        resident_batches = 2 if "executor" in stage else 1
        assert report.peak_resident_records <= resident_batches * 32
        assert report.counters["ingest/records"] == len(examples)

    def test_source_never_runs_ahead_of_the_sinks(
        self, product_pipeline, stage
    ):
        """When batch ``k``'s sink runs, the source has yielded at most
        the batches up to ``k`` inline, and at most
        ``max_resident_batches - 1`` more on the pool."""
        lfs, examples = product_pipeline
        yielded = [0]
        ahead = []

        def counted():
            for example in examples:
                yielded[0] += 1
                yield example

        def sink(seq, batch, votes):
            time.sleep(0.005)  # room for any reader running ahead
            ahead.append(yielded[0] - (seq + 1) * 32)

        MicroBatchPipeline(
            lfs, batch_size=32, max_resident_batches=2, sinks=[sink], **stage
        ).run(counted())
        limit = 32 if "executor" in stage else 0
        assert len(ahead) == -(-len(examples) // 32)
        assert max(ahead) <= limit

    def test_starts_no_thread(self, product_pipeline, stage):
        lfs, examples = product_pipeline
        during = []
        before = threading.active_count()
        MicroBatchPipeline(
            lfs,
            batch_size=32,
            sinks=[lambda *_: during.append(threading.active_count())],
            **stage,
        ).run(MemorySource(examples))
        assert during and set(during) == {before}

    def test_stage_counters_populated(self, product_pipeline, stage):
        lfs, examples = product_pipeline
        pipe = MicroBatchPipeline(
            lfs, batch_size=50, on_batch=lambda *_: None, **stage
        )
        report = pipe.run(MemorySource(examples))
        stages = report.stages()
        assert stages["label"].batches == report.batches
        assert stages["sink"].batches == report.batches
        assert stages["ingest"].records == len(examples)
        assert report.mean_batch_latency_seconds > 0
        assert (
            report.max_batch_latency_seconds
            >= report.mean_batch_latency_seconds
        )

    def test_stage_accounting_is_per_stage(self, product_pipeline, stage):
        """Regression: every stage once read ``ingest/records``, so a
        sink-less run reported ingest volume for the sink stage and an
        infinite records/sec (records > 0 over 0 recorded time)."""
        lfs, examples = product_pipeline
        report = MicroBatchPipeline(lfs, batch_size=50, **stage).run(
            MemorySource(examples)
        )
        sink = report.stage("sink")
        assert sink.records == 0
        assert sink.batches == 0
        assert sink.records_per_second == 0.0  # not inf
        label = report.stage("label")
        assert label.records == len(examples)
        assert label.batches == report.batches
        ingest = report.stage("ingest")
        assert ingest.records == len(examples)

    def test_sink_stage_counts_its_own_records(self, product_pipeline, stage):
        lfs, examples = product_pipeline
        report = MicroBatchPipeline(
            lfs, batch_size=50, on_batch=lambda *_: None, **stage
        ).run(MemorySource(examples))
        sink = report.stage("sink")
        assert sink.records == len(examples)
        assert sink.batches == report.batches

    def test_counter_contract_keys_all_appear(
        self, product_pipeline, slow_stage
    ):
        """Every documented counter key must show up in a real run.

        Regression for the docstring drift that advertised
        ``queue/wait_us`` as the backpressure timing: the contract now
        names ``ingest/wait_us`` for backpressure and this test pins
        every key — a renamed or dropped counter fails here, not in a
        dashboard."""
        _, examples = product_pipeline
        # A hair-trigger monitor makes every drift/* key appear: with
        # one-batch windows and a ~zero threshold, every check alarms
        # and fires the counted reaction.
        monitor = DriftMonitor(
            DriftPolicy(
                reference_batches=1,
                recent_batches=1,
                threshold=1e-9,
                reactions=("log", "reset_reference"),
            ),
        )
        # On the pool, a worker slower than the stream fills the
        # one-batch window, so ingest waits on it before every read.
        pooled = "executor" in slow_stage
        report = MicroBatchPipeline(
            build_slow_product_suite(),
            batch_size=32,
            max_resident_batches=1,
            on_batch=lambda *_: None,
            drift_monitor=monitor,
            **slow_stage,
        ).run(MemorySource(examples))
        for key in contract_keys("counter", "stream", conditional=False):
            assert key in report.counters, f"missing documented key {key}"
        # This run configured a sink and monitored drift, so every
        # conditional key must appear too — except the pool's hand-off
        # and backpressure keys, which appear on the pool and only there.
        pool_only = {
            "ingest/encode_us",
            "ingest/backpressure_waits",
            "ingest/wait_us",
        }
        for key in contract_keys("counter", "stream", conditional=True):
            if key in pool_only:
                assert (key in report.counters) == pooled, key
                continue
            assert key in report.counters, f"missing conditional key {key}"
        if pooled:
            # Backpressure time lands in ingest/wait_us, never
            # queue/wait_us.
            assert report.backpressure_waits == report.batches
            assert report.counters["ingest/wait_us"] > 0
        # The drift counters mirror the monitor's own tallies.
        assert report.counters["drift/batches"] == report.batches
        assert report.counters["drift/alarms"] == monitor.alarms
        assert (
            report.counters["drift/reference_resets"]
            == monitor.reference_resets
        )

    def test_empty_source(self, product_pipeline, stage):
        lfs, _ = product_pipeline
        report = MicroBatchPipeline(lfs, collect_votes=True, **stage).run(
            MemorySource([])
        )
        assert report.examples == 0
        assert report.batches == 0
        assert report.label_matrix.matrix.shape == (0, len(lfs))
        assert report.stage("label").records_per_second == 0.0

    def test_sink_error_propagates(self, product_pipeline, stage):
        lfs, examples = product_pipeline

        def explode(seq, batch, votes):
            raise RuntimeError("sink crashed")

        pipe = MicroBatchPipeline(
            lfs, batch_size=16, on_batch=explode, **stage
        )
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sink crashed"):
            pipe.run(MemorySource(examples))
        # Nothing the run touched is left running.
        deadline = time.time() + 5.0
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_failed_run_still_folds_counters_into_registry(
        self, product_pipeline, stage
    ):
        """Regression: the report was the only fold point, so a run that
        raised left the attached registry with stage histograms but no
        counters and no residency gauge — latencies without volumes."""
        lfs, examples = product_pipeline

        def explode(seq, batch, votes):
            if seq == 2:
                raise RuntimeError("sink crashed")

        registry = MetricsRegistry()
        pipe = MicroBatchPipeline(
            lfs, batch_size=16, on_batch=explode, telemetry=registry, **stage
        )
        with pytest.raises(RuntimeError, match="sink crashed"):
            pipe.run(MemorySource(examples))
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["stream/label_us"]["count"] == 3
        assert snapshot["counters"]["label/batches"] == 3
        assert snapshot["counters"]["sink/batches"] == 2
        assert snapshot["counters"]["ingest/records"] >= 3 * 16
        assert snapshot["gauges"]["stream/resident_records"]["peak"] >= 16

    def test_attached_registry_is_consistent_mid_run(
        self, product_pipeline, stage
    ):
        """Regression: stage histograms reached an attached registry
        live but the run's counters and gauge only at the end-of-run
        fold, so a mid-stream export showed ``stream/label_us.count ==
        k`` beside ``label/batches == 0``. Every event now forwards as
        it happens."""
        lfs, examples = product_pipeline
        registry = MetricsRegistry()
        seen: list[dict] = []

        def snapshotting_sink(seq, batch, votes):
            if seq == 2:
                seen.append(registry.snapshot())

        report = MicroBatchPipeline(
            lfs,
            batch_size=16,
            sinks=[snapshotting_sink],
            telemetry=registry,
            **stage,
        ).run(MemorySource(examples))
        [mid] = seen
        assert mid["histograms"]["stream/label_us"]["count"] == 3
        assert (
            mid["counters"]["label/batches"]
            == mid["histograms"]["stream/label_us"]["count"]
        )
        assert mid["counters"]["sink/batches"] == 2
        assert mid["gauges"]["stream/resident_records"]["current"] >= 16
        # The per-run view stays per-run and agrees with what arrived.
        final = registry.snapshot()
        for key, value in report.counters.items():
            assert final["counters"][key] == value
        assert final["gauges"]["stream/resident_records"] == {
            "current": 0,
            "peak": report.peak_resident_records,
        }

    def test_source_error_propagates(
        self, product_pipeline, stage, monkeypatch
    ):
        lfs, examples = product_pipeline
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread,
            "start",
            lambda thread: started.append(thread) or real_start(thread),
        )

        def broken_source():
            yield from examples[:40]
            raise OSError("shard vanished")

        pipe = MicroBatchPipeline(lfs, batch_size=16, **stage)
        with pytest.raises(OSError, match="shard vanished"):
            pipe.run(broken_source())
        # The original exception surfaced and no thread was started (on
        # the pool, the ``stage`` fixture then asserts the shared
        # executor was handed back with ``pending() == 0``).
        assert started == []

    def test_rejects_bad_parameters(self, product_pipeline):
        lfs, _ = product_pipeline
        with pytest.raises(ValueError, match="batch_size"):
            MicroBatchPipeline(lfs, batch_size=0)
        with pytest.raises(ValueError, match="max_resident_batches"):
            MicroBatchPipeline(lfs, max_resident_batches=0)


class TestMicroBatchPipelineOnPool(TestMicroBatchPipeline):
    """The same cases over the pool label path: a warm, shared 2-worker
    ``executor=`` that every run must hand back drained."""

    @pytest.fixture
    def stage(self, warm_executor):
        yield {"executor": warm_executor}
        assert warm_executor.pending() == 0

    @pytest.fixture
    def slow_stage(self, slow_executor):
        yield {"executor": slow_executor}
        assert slow_executor.pending() == 0


# ----------------------------------------------------------------------
# online label model
# ----------------------------------------------------------------------
class TestOnlineLabelModel:
    def _stream(self, model, L, batch=128):
        for start in range(0, len(L), batch):
            model.observe(L[start:start + batch])

    def test_moments_match_full_matrix(self):
        L, _ = synthetic_label_matrix(m=1000, seed=5)
        model = OnlineLabelModel()
        self._stream(model, L, batch=64)
        dense = L.astype(np.float64)
        assert model.n_observed == len(L)
        # Integer sums are exact in float64: the views read off the
        # pattern table equal the dense reference bit for bit, and so
        # do those of a model restored from its snapshot.
        restored = OnlineLabelModel().load_state(model.state_dict())
        for online in (model, restored):
            assert online.effective_examples == len(L)
            assert np.array_equal(online.mean_votes(), dense.sum(axis=0) / len(L))
            assert np.array_equal(
                online.fire_rates(), np.abs(dense).sum(axis=0) / len(L)
            )
            assert np.array_equal(
                online.agreement_matrix(), dense.T @ dense / len(L)
            )

    def test_pattern_log_is_lossless(self):
        L, _ = synthetic_label_matrix(m=700, seed=7)
        model = OnlineLabelModel()
        self._stream(model, L, batch=97)
        assert same_rows(model.compressed_votes(), L)
        assert model.n_patterns == len(np.unique(L, axis=0))

    def test_refit_is_exactly_the_offline_fit(self):
        L, _ = synthetic_label_matrix(m=1500, seed=3)
        config = LabelModelConfig(seed=9)
        offline = SamplingFreeLabelModel(config).fit(L)
        online = OnlineLabelModel(OnlineLabelModelConfig(base=config))
        self._stream(online, L, batch=256)
        refit = online.refit()
        np.testing.assert_array_equal(refit.alpha, offline.alpha)
        np.testing.assert_array_equal(refit.beta, offline.beta)
        np.testing.assert_allclose(
            refit.predict_proba(L), offline.predict_proba(L), atol=1e-6
        )

    def test_incremental_updates_track_offline_accuracies(self):
        """Solved after every batch, the online model's accuracies are
        the offline fit's of the stream so far, to the bit, at every
        batch."""
        L, _ = synthetic_label_matrix(m=1000, seed=1)
        config = LabelModelConfig(seed=0)
        online = OnlineLabelModel(OnlineLabelModelConfig(base=config))
        for end in range(200, len(L) + 1, 200):
            online.observe(L[end - 200 : end])
            offline = SamplingFreeLabelModel(config).fit(L[:end])
            assert np.array_equal(online.accuracies(), offline.accuracies())
        assert online.refits_done == 5

    def test_refit_cadence(self):
        """The cadence is every batch: each observed batch is one solve,
        whatever ``refit_every`` says."""
        L, _ = synthetic_label_matrix(m=600, seed=2)
        online = OnlineLabelModel(
            OnlineLabelModelConfig(
                base=LabelModelConfig(), refit_every=2
            )
        )
        self._stream(online, L, batch=100)
        assert online.refits_done == online.batches_observed == 6

    @pytest.mark.parametrize("cadence", [2.5, 2.0, True, 0, -2])
    def test_refit_every_is_unread(self, cadence):
        """``refit_every`` is accepted, as configs built with it stay
        valid, and read nowhere: the model solves every batch."""
        L, _ = synthetic_label_matrix(m=300, seed=4)
        plain = OnlineLabelModel()
        online = OnlineLabelModel(OnlineLabelModelConfig(refit_every=cadence))
        for model in (plain, online):
            self._stream(model, L, batch=100)
        assert online.state_dict() == plain.state_dict()

    def test_validation(self):
        model = OnlineLabelModel()
        with pytest.raises(RuntimeError, match="refit"):
            model.refit()
        with pytest.raises(RuntimeError, match="observed"):
            model.mean_votes()
        model.observe(np.array([[1, -1, 0]]))
        with pytest.raises(ValueError, match="columns"):
            model.observe(np.array([[1, -1]]))
        with pytest.raises(ValueError, match="votes"):
            model.observe(np.array([[2, 0, 0]]))
        with pytest.raises(ValueError, match="2-D"):
            model.observe(np.array([1, 0, -1]))

    def test_empty_batch_is_a_noop(self):
        model = OnlineLabelModel()
        model.observe(np.zeros((0, 4), dtype=np.int8))
        assert model.n_observed == 0
        assert model.batches_observed == 0
