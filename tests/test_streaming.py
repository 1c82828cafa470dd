"""Tests for the micro-batch streaming subsystem.

Covers the three layers independently — sources (bounded ingestion),
the MicroBatchPipeline scheduler (ordering, backpressure, error
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
from repro.mapreduce.counters import Gauge
from repro.obs import MetricsRegistry
from repro.parallel import LFSuiteSpec, ParallelLabelExecutor
from repro.streaming import (
    DriftMonitor,
    DriftPolicy,
    MemorySource,
    MicroBatchPipeline,
    RecordStreamSource,
    iter_example_batches,
)
from repro.types import Example

from tests.conftest import contract_keys, same_rows, synthetic_label_matrix


@pytest.fixture(scope="module")
def product_pipeline():
    exp = get_content_experiment("product", "tiny")
    return exp.lfs, exp.dataset.unlabeled[:300]


def build_product_suite():
    """Module-level factory: what the pool stage's LFSuiteSpec points at."""
    return get_content_experiment("product", "tiny").lfs


@pytest.fixture(scope="module")
def warm_executor(product_pipeline):
    spec = LFSuiteSpec(factory="tests.test_streaming:build_product_suite")
    with ParallelLabelExecutor(spec, workers=2) as executor:
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
        """Concurrency regression test for the ingest/consumer race.

        The pipeline raises the gauge from the ingest thread and lowers
        it from the consumer thread; an unlocked read-modify-write would
        drop updates and report a bogus ``current``/``peak``. Hammer the
        gauge from both sides and check the invariants exactly.
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
    """Every case runs on the inline label stage here and again on the
    pool stage in :class:`TestMicroBatchPipelineOnPool`."""

    @pytest.fixture
    def stage(self):
        """Pipeline kwargs selecting the label stage."""
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
        lfs, examples = product_pipeline
        pipe = MicroBatchPipeline(
            lfs,
            batch_size=32,
            max_resident_batches=2,
            on_batch=lambda *_: time.sleep(0.002),
            **stage,
        )
        report = pipe.run(MemorySource(examples))
        assert report.peak_resident_records <= 2 * 32
        assert report.backpressure_waits > 0
        assert report.counters["ingest/records"] == len(examples)

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

    def test_counter_contract_keys_all_appear(self, product_pipeline, stage):
        """Every documented counter key must show up in a real run.

        Regression for the docstring drift that advertised
        ``queue/wait_us`` as the backpressure timing: the contract now
        names ``ingest/wait_us`` for backpressure and this test pins
        every key — a renamed or dropped counter fails here, not in a
        dashboard."""
        lfs, examples = product_pipeline
        # A hair-trigger monitor makes every drift/* key appear: with
        # one-batch windows and a ~zero threshold, every check alarms
        # and fires both counted reactions.
        monitor = DriftMonitor(
            DriftPolicy(
                reference_batches=1,
                recent_batches=1,
                threshold=1e-9,
                reactions=("log", "refit", "reset_reference"),
            ),
            refit_callback=lambda: None,
        )
        report = MicroBatchPipeline(
            lfs,
            batch_size=32,
            max_resident_batches=1,
            on_batch=lambda *_: time.sleep(0.002),  # force backpressure
            drift_monitor=monitor,
            **stage,
        ).run(MemorySource(examples))
        for key in contract_keys("counter", "stream", conditional=False):
            assert key in report.counters, f"missing documented key {key}"
        # This run configured a sink, stalled ingest, and monitored
        # drift, so every conditional key must appear too — except that
        # ``ingest/encode_us`` appears on the pool stage and only there.
        for key in contract_keys("counter", "stream", conditional=True):
            if key == "ingest/encode_us":
                assert (key in report.counters) == ("executor" in stage)
                continue
            assert key in report.counters, f"missing conditional key {key}"
        # Backpressure time lands in ingest/wait_us, never queue/wait_us.
        assert report.counters["ingest/wait_us"] > 0
        # The drift counters mirror the monitor's own tallies.
        assert report.counters["drift/batches"] == report.batches
        assert report.counters["drift/alarms"] == monitor.alarms
        assert report.counters["drift/forced_refits"] == monitor.forced_refits
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
        # The ingest thread exits rather than leaking.
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

    def test_source_error_propagates(self, product_pipeline, stage):
        lfs, examples = product_pipeline

        def broken_source():
            yield from examples[:40]
            raise OSError("shard vanished")

        pipe = MicroBatchPipeline(lfs, batch_size=16, **stage)
        with pytest.raises(OSError, match="shard vanished"):
            pipe.run(broken_source())
        # The original exception surfaced and the ingest thread was
        # joined (on the pool, the ``stage`` fixture then asserts the
        # shared executor was handed back with ``pending() == 0``).
        assert not any(
            t.name == "microbatch-ingest" for t in threading.enumerate()
        )

    def test_rejects_bad_parameters(self, product_pipeline):
        lfs, _ = product_pipeline
        with pytest.raises(ValueError, match="batch_size"):
            MicroBatchPipeline(lfs, batch_size=0)
        with pytest.raises(ValueError, match="max_resident_batches"):
            MicroBatchPipeline(lfs, max_resident_batches=0)


class TestMicroBatchPipelineOnPool(TestMicroBatchPipeline):
    """The same cases over the pool label stage: a warm, shared 2-worker
    ``executor=`` that every run must hand back drained."""

    @pytest.fixture
    def stage(self, warm_executor):
        yield {"executor": warm_executor}
        assert warm_executor.pending() == 0


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
        np.testing.assert_allclose(model.mean_votes(), dense.mean(axis=0))
        np.testing.assert_allclose(
            model.fire_rates(), np.abs(dense).mean(axis=0)
        )
        np.testing.assert_allclose(
            model.agreement_matrix(), dense.T @ dense / len(L)
        )

    def test_pattern_log_is_lossless(self):
        L, _ = synthetic_label_matrix(m=700, seed=7)
        model = OnlineLabelModel()
        self._stream(model, L, batch=97)
        assert same_rows(model.compressed_votes(), L)
        assert model.n_patterns == len(np.unique(L, axis=0))

    def test_refit_is_exactly_the_offline_fit(self):
        L, _ = synthetic_label_matrix(m=1500, seed=3)
        config = LabelModelConfig(n_steps=500, seed=9)
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
        L, _ = synthetic_label_matrix(m=4000, seed=1)
        config = LabelModelConfig(n_steps=2000, seed=0)
        offline = SamplingFreeLabelModel(config).fit(L)
        online = OnlineLabelModel(
            OnlineLabelModelConfig(base=config, steps_per_batch=40)
        )
        self._stream(online, L, batch=200)
        # No refit: purely incremental estimates should already be close.
        assert online.refits_done == 0
        np.testing.assert_allclose(
            online.accuracies(), offline.accuracies(), atol=0.1
        )

    def test_incremental_steps_are_partial_steps_validated_once(self, monkeypatch):
        """``observe`` steps the kernel on one ``(steps, batch)`` draw of
        rows it has already validated: bitwise what the public
        ``partial_step`` does on a draw per step, with the generator left
        where those draws leave it — and no second pass over the votes
        (short batches, learned prior and all)."""
        import repro.core.label_model as label_model

        L, _ = synthetic_label_matrix(m=700, seed=6)
        base = LabelModelConfig(learn_class_prior=True, seed=3)
        config = OnlineLabelModelConfig(base=base, steps_per_batch=5, seed=11)
        batches = [L[:300], L[300:340], L[340:]]  # 40 rows < batch_size 64

        expected = SamplingFreeLabelModel(base)
        rng = np.random.default_rng(config.seed)
        for k, votes in enumerate(batches):
            if k == 0:
                expected.init_params(votes.shape[1])
                rate = np.clip(np.abs(votes).mean(axis=0), 1e-3, 1 - 1e-3)
                expected.beta = np.log(rate / (1 - rate)) / 2.0
            for _ in range(config.steps_per_batch):
                rows = rng.integers(0, len(votes), size=min(64, len(votes)))
                expected.partial_step(votes[rows])

        validations = []
        validate = label_model._validate_label_matrix
        monkeypatch.setattr(
            label_model,
            "_validate_label_matrix",
            lambda votes: validations.append(1) or validate(votes),
        )
        online = OnlineLabelModel(config)
        for votes in batches:
            online.observe(votes)
        assert validations == []
        np.testing.assert_array_equal(online.model.alpha, expected.alpha)
        np.testing.assert_array_equal(online.model.beta, expected.beta)
        assert online.model.prior_logit == expected.prior_logit
        assert online.model.steps_taken == expected.steps_taken == 15
        assert online._rng.bit_generator.state == rng.bit_generator.state

    def test_refit_cadence(self):
        L, _ = synthetic_label_matrix(m=600, seed=2)
        online = OnlineLabelModel(
            OnlineLabelModelConfig(
                base=LabelModelConfig(n_steps=50), refit_every=2
            )
        )
        self._stream(online, L, batch=100)  # 6 batches -> 3 refits
        assert online.refits_done == 3

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
