"""Tests for the streaming sink + checkpoint layer.

Covers the durable path bottom-up: record-shard sinks (atomic publish,
orphan truncation), checkpoint manifests (write-then-rename, schema,
latest-wins), bit-exact model snapshots (including the step counters the
learning-rate schedules depend on), the pipeline's sink stage, and the
headline guarantee — a stream killed after ANY finalized micro-batch
resumes from the manifest to byte-identical shards and posteriors.
"""

import base64
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.drift import DriftMonitor, DriftPolicy
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.discriminative.ftrl import FTRLProximal
from repro.discriminative.logistic import (
    LogisticConfig,
    NoiseAwareLogisticRegression,
)
from repro.dfs.records import (
    decode_ndarray,
    encode_ndarray,
    iter_record_blobs,
    read_records,
)
from repro.features.extractors import HashedTextFeaturizer
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.lf.templates import keyword_lf, url_domain_lf
from repro.streaming import (
    CheckpointedStream,
    CheckpointManager,
    LabelSink,
    MemorySource,
    MicroBatchPipeline,
    RecordStreamSource,
    SimulatedCrash,
    VoteSink,
)
from repro.types import Example

from tests.conftest import decode_records, same_rows, synthetic_label_matrix


def make_corpus(n=400, seed=11):
    """Toy sports-vs-cooking docs, deterministic per (n, seed)."""
    rng = np.random.default_rng(seed)
    sports = ["match", "league", "goal", "coach", "stadium"]
    cooking = ["recipe", "oven", "flavor", "chef", "saucepan"]
    filler = ["the", "a", "today", "report", "new", "about"]
    examples = []
    for i in range(n):
        positive = rng.random() < 0.5
        pool = sports if positive else cooking
        words = [
            *(pool[k] for k in rng.integers(0, len(pool), size=3)),
            *(filler[k] for k in rng.integers(0, len(filler), size=5)),
        ]
        rng.shuffle(words)
        domain = (
            "pitchside.example"
            if positive and rng.random() < 0.6
            else "tablefare.example"
        )
        examples.append(
            Example(
                example_id=f"doc-{i}",
                fields={
                    "title": " ".join(words[:3]),
                    "body": " ".join(words),
                    "url": f"https://{domain}/{i}",
                },
            )
        )
    return examples


def make_lfs():
    return [
        keyword_lf("kw_sports", ["match", "league", "goal"], vote=1),
        keyword_lf("kw_cooking", ["recipe", "oven", "chef"], vote=-1),
        url_domain_lf("url_sports", ["pitchside.example"], vote=1),
    ]


ONLINE_CONFIG = OnlineLabelModelConfig(
    base=LabelModelConfig(n_steps=200, seed=0), seed=0
)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.fixture(scope="module")
def lfs():
    return make_lfs()


def retained_rows(online):
    """The rows ``online``'s next refit trains on, in canonical order —
    equal arrays iff equal multisets (stream order is not retained)."""
    return online.compressed_votes().expand()


def stream_matrix(dfs, shards, lfs):
    """The vote matrix of the staged corpus, in stream order."""
    decoded = [
        Example.from_record(record)
        for record in iter_record_blobs(dfs, shards)
    ]
    return apply_lfs_in_memory(lfs, decoded).matrix


def tree_bytes(dfs, root):
    """Every finalized byte under ``root``, keyed by relative path."""
    return {p[len(root):]: dfs.read_file(p) for p in dfs.list(root)}


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_vote_sink_shard_layout(self, dfs, corpus, lfs):
        votes = apply_lfs_in_memory(lfs, corpus[:10]).matrix
        sink = VoteSink(dfs, "/run", [lf.name for lf in lfs])
        sink(3, corpus[:10], votes)
        records = read_records(dfs, "/run/votes/batch-000003")
        assert records[0] == {
            "kind": "meta",
            "batch": 3,
            "lf_names": [lf.name for lf in lfs],
            "n": 10,
        }
        assert len(records) == 11
        assert records[1]["example_id"] == corpus[0].example_id
        assert records[1]["votes"] == [int(v) for v in votes[0]]
        assert sink.shards_written == 1
        assert sink.records_written == 11

    def test_label_sink_writes_probas(self, dfs, corpus, lfs):
        votes = apply_lfs_in_memory(lfs, corpus[:4]).matrix
        sink = LabelSink(
            dfs, "/run", lambda v: np.full(v.shape[0], 0.25)
        )
        sink(0, corpus[:4], votes)
        records = read_records(dfs, "/run/labels/batch-000000")
        assert records[0] == {"kind": "meta", "batch": 0, "n": 4}
        assert all(r["proba"] == 0.25 for r in records[1:])

    def test_label_sink_rejects_misshapen_probas(self, dfs, corpus, lfs):
        votes = apply_lfs_in_memory(lfs, corpus[:4]).matrix
        sink = LabelSink(dfs, "/run", lambda v: np.zeros(2))
        with pytest.raises(ValueError, match="proba_fn"):
            sink(0, corpus[:4], votes)
        # The half-written shard never became visible.
        assert not dfs.exists("/run/labels/batch-000000")

    def test_delete_after_truncates_orphans(self, dfs, corpus, lfs):
        votes = apply_lfs_in_memory(lfs, corpus[:4]).matrix
        sink = VoteSink(dfs, "/run", [lf.name for lf in lfs])
        for seq in range(4):
            sink(seq, corpus[:4], votes)
        deleted = sink.delete_after(1)
        assert deleted == [
            "/run/votes/batch-000002",
            "/run/votes/batch-000003",
        ]
        assert sink.existing_shards() == [
            "/run/votes/batch-000000",
            "/run/votes/batch-000001",
        ]


# ----------------------------------------------------------------------
# checkpoint manifests
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_round_trip(self, dfs):
        manager = CheckpointManager(dfs, "/run")
        model = OnlineLabelModel(ONLINE_CONFIG)
        model.observe(np.array([[1, -1, 0], [0, 1, 1]], dtype=np.int8))
        path = manager.write(
            4, 128, model.state_dict(), meta={"batch_size": 64}
        )
        checkpoint = manager.load(path)
        assert checkpoint.batch == 4
        assert checkpoint.cursor == 128
        assert checkpoint.meta["batch_size"] == 64
        restored = OnlineLabelModel(ONLINE_CONFIG)
        restored.load_state(checkpoint.label_model_state)
        assert restored.n_observed == model.n_observed
        assert np.array_equal(retained_rows(restored), retained_rows(model))

    def test_latest_picks_newest(self, dfs):
        manager = CheckpointManager(dfs, "/run")
        state = OnlineLabelModel(ONLINE_CONFIG).state_dict()
        for batch in (1, 3, 7):
            manager.write(batch, batch * 10, state)
        assert manager.latest().batch == 7

    def test_fresh_root_has_no_checkpoint(self, dfs):
        assert CheckpointManager(dfs, "/run").latest() is None

    def test_latest_orders_numerically_past_six_digits(self, dfs):
        """Names outgrow their zero padding at batch 1,000,000;
        string order would rank ckpt-1000000 before ckpt-999999."""
        manager = CheckpointManager(dfs, "/run")
        state = OnlineLabelModel(ONLINE_CONFIG).state_dict()
        for batch in (999_999, 1_000_000):
            manager.write(batch, batch, state)
        assert manager.latest().batch == 1_000_000

    def test_manifest_is_atomic(self, dfs):
        """A crash mid-write leaves no visible manifest."""
        manager = CheckpointManager(dfs, "/run")
        staged = "/run/checkpoints/.staged-ckpt-000000"
        dfs.create(staged)
        dfs.append(staged, b"partial manifest bytes")
        # Writer died before the rename: nothing visible, and the next
        # writer reclaims the staged name.
        assert manager.latest() is None
        manager.write(0, 10, OnlineLabelModel(ONLINE_CONFIG).state_dict())
        assert manager.latest().batch == 0

    def test_rejects_non_manifest_files(self, dfs):
        manager = CheckpointManager(dfs, "/run")
        dfs.write_file("/run/checkpoints/ckpt-000001", b"")
        with pytest.raises(ValueError, match="manifest"):
            manager.load("/run/checkpoints/ckpt-000001")


# ----------------------------------------------------------------------
# bit-exact model snapshots (incl. step counters — the lr schedules)
# ----------------------------------------------------------------------
class TestStateSnapshots:
    def test_ndarray_codec_is_bit_exact(self):
        for array in (
            np.array([0.1, -0.0, 1e-300, np.pi]),
            np.arange(12, dtype=np.int8).reshape(3, 4),
            np.zeros((0, 5)),
            np.array([True, False]),
        ):
            restored = decode_ndarray(encode_ndarray(array))
            assert restored.dtype == array.dtype
            assert restored.shape == array.shape
            assert array.tobytes() == restored.tobytes()

    def test_label_model_snapshot_keeps_step_counter(self):
        L, _ = synthetic_label_matrix(m=200, seed=4)
        config = LabelModelConfig(n_steps=50, track_loss_every=10)
        model = SamplingFreeLabelModel(config)
        model.fit(L)
        before = model.steps_taken
        clone = SamplingFreeLabelModel(config)
        clone.load_state(model.state_dict())
        assert clone.steps_taken == before
        assert np.array_equal(clone.alpha, model.alpha)
        assert np.array_equal(clone.beta, model.beta)
        # The snapshot carries the fit's final loss, not its whole trace.
        assert len(model.loss_history) > 1
        assert clone.loss_history == model.loss_history[-1:]
        assert clone.state_dict() == model.state_dict()
        # Continued training advances from the restored counter.
        clone.partial_step(L[:32])
        assert clone.steps_taken == before + 1

    def test_online_model_resume_is_bitwise(self):
        """Snapshot mid-stream; replaying the suffix must be exact."""
        L, _ = synthetic_label_matrix(m=600, seed=8)
        batches = [L[i:i + 100] for i in range(0, 600, 100)]

        straight = OnlineLabelModel(ONLINE_CONFIG)
        for batch in batches:
            straight.observe(batch)

        prefix = OnlineLabelModel(ONLINE_CONFIG)
        for batch in batches[:3]:
            prefix.observe(batch)
        resumed = OnlineLabelModel(ONLINE_CONFIG)
        resumed.load_state(prefix.state_dict())
        assert resumed.batches_observed == 3
        assert resumed.model.steps_taken == prefix.model.steps_taken
        for batch in batches[3:]:
            resumed.observe(batch)

        assert np.array_equal(straight.model.alpha, resumed.model.alpha)
        assert np.array_equal(straight.model.beta, resumed.model.beta)
        assert same_rows(resumed.compressed_votes(), L)
        np.testing.assert_array_equal(
            straight._agreement, resumed._agreement
        )
        # RNG stream continued, not restarted: a fresh model fed the
        # same suffix diverges, the restored one does not.
        assert straight.refit().predict_proba(L).tobytes() == (
            resumed.refit().predict_proba(L).tobytes()
        )

    @pytest.mark.parametrize("schema", [4, 0, None, "3"])
    def test_load_state_refuses_unknown_schema(self, schema):
        """A snapshot from a newer (or foreign) writer is refused whole,
        not half-read under this reader's layout."""
        L, _ = synthetic_label_matrix(m=100, seed=8)
        source = OnlineLabelModel(ONLINE_CONFIG)
        source.observe(L)
        state = source.state_dict()
        assert state["schema"] == 3
        state["schema"] = schema
        target = OnlineLabelModel(ONLINE_CONFIG)
        with pytest.raises(ValueError, match="schema"):
            target.load_state(state)
        assert target.n_observed == 0 and target.n_patterns == 0

    def test_ftrl_snapshot_keeps_learning_rate_schedule(self):
        ftrl = FTRLProximal(8, alpha=0.2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx = rng.integers(0, 8, size=4)
            ftrl.update(idx, rng.normal(size=4))
        clone = FTRLProximal(8, alpha=0.2)
        clone.load_state(ftrl.state_dict())
        # n is the per-coordinate schedule; z the proximal accumulator.
        assert np.array_equal(clone.n, ftrl.n)
        assert np.array_equal(clone.z, ftrl.z)
        assert np.array_equal(clone.dense_weights(), ftrl.dense_weights())
        with pytest.raises(ValueError, match="dimension"):
            FTRLProximal(4).load_state(ftrl.state_dict())

    def test_logistic_resume_matches_uninterrupted_training(self, corpus):
        featurizer = HashedTextFeaturizer(num_buckets=2 ** 10)
        X = featurizer.transform(corpus[:200])
        soft = np.linspace(0.05, 0.95, 200)
        config = LogisticConfig(seed=0)

        straight = NoiseAwareLogisticRegression(
            featurizer.spec.dimension, config
        )
        for start in range(0, 200, 50):
            straight.partial_fit(X[start:start + 50], soft[start:start + 50])

        prefix = NoiseAwareLogisticRegression(
            featurizer.spec.dimension, config
        )
        for start in range(0, 100, 50):
            prefix.partial_fit(X[start:start + 50], soft[start:start + 50])
        resumed = NoiseAwareLogisticRegression(
            featurizer.spec.dimension, config
        )
        resumed.load_state(prefix.state_dict())
        assert resumed.iterations_run == prefix.iterations_run
        for start in range(100, 200, 50):
            resumed.partial_fit(X[start:start + 50], soft[start:start + 50])

        assert resumed.iterations_run == straight.iterations_run
        assert np.array_equal(
            resumed._ftrl.dense_weights(), straight._ftrl.dense_weights()
        )


# ----------------------------------------------------------------------
# pipeline sink stage
# ----------------------------------------------------------------------
class TestPipelineSinkStage:
    def test_named_sinks_get_their_own_counters(self, corpus, lfs):
        calls = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def __call__(self, seq, examples, votes):
                calls.append((self.name, seq, len(examples)))

        pipe = MicroBatchPipeline(
            lfs,
            batch_size=64,
            sinks=[Recorder("first"), Recorder("second")],
        )
        report = pipe.run(MemorySource(corpus))
        assert report.counters["sink/first/batches"] == report.batches
        assert report.counters["sink/second/batches"] == report.batches
        assert report.counters["sink/first/records"] == len(corpus)
        assert report.counters["sink/batches"] == report.batches
        # Order: all sinks see batch 0 before any sees batch 1.
        assert calls[0][0] == "first" and calls[1][0] == "second"
        assert [c[1] for c in calls[:2]] == [0, 0]

    def test_first_batch_seq_offsets_numbering(self, corpus, lfs):
        seen = []
        pipe = MicroBatchPipeline(
            lfs,
            batch_size=64,
            on_batch=lambda seq, *_: seen.append(seq),
            first_batch_seq=5,
        )
        report = pipe.run(MemorySource(corpus[:130]))
        assert seen == list(range(5, 5 + report.batches))
        with pytest.raises(ValueError, match="first_batch_seq"):
            MicroBatchPipeline(lfs, first_batch_seq=-1)


# ----------------------------------------------------------------------
# crash-mid-batch resume (the headline guarantee)
# ----------------------------------------------------------------------
class TestCrashResume:
    BATCH = 64

    def _make_runner(self, dfs, lfs, root, **kwargs):
        kwargs.setdefault("checkpoint_every", 2)
        return CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=self.BATCH,
            online_config=ONLINE_CONFIG,
            **kwargs,
        )

    @pytest.fixture(scope="class")
    def staged(self, corpus, lfs):
        from repro.dfs.filesystem import DistributedFileSystem

        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/examples/e", num_shards=3)
        baseline = self._make_runner(dfs, lfs, "/baseline")
        report = baseline.run(RecordStreamSource(dfs, shards))
        return dfs, shards, baseline, report

    def test_kill_after_any_batch_resumes_byte_identical(
        self, staged, lfs
    ):
        dfs, shards, baseline, base_report = staged
        reference = tree_bytes(dfs, "/baseline")
        L = retained_rows(baseline.online)
        total = base_report.batches_finalized
        assert total >= 5

        n_examples = sum(1 for _ in RecordStreamSource(dfs, shards))
        for kill_after in range(total - 1):
            root = f"/killed-{kill_after}"
            with pytest.raises(SimulatedCrash):
                self._make_runner(dfs, lfs, root).run(
                    RecordStreamSource(dfs, shards),
                    fail_after_batch=kill_after,
                )
            resumed = self._make_runner(dfs, lfs, root)
            report = resumed.run(RecordStreamSource(dfs, shards))
            assert tree_bytes(dfs, root) == reference, (
                f"divergent bytes after kill at batch {kill_after}"
            )
            assert report.last_batch_seq == base_report.last_batch_seq
            assert np.array_equal(retained_rows(resumed.online), L)
            # Source-side cursor: the resume seeks, it does not replay —
            # zero consumed examples are re-decoded, and ingest touches
            # only what remains past the manifest's cursor.
            assert report.replayed_examples == 0, (
                f"replayed {report.replayed_examples} examples after "
                f"kill at batch {kill_after}"
            )
            assert report.stream.counters.get("ingest/records", 0) == (
                n_examples - report.skipped_examples
            )

    def test_manifest_size_is_flat_in_stream_length(self, dfs, corpus, lfs):
        """Manifests hold O(patterns) state, not a per-example log: the
        last one has seen 6x the first's examples and is barely larger."""
        shards = stage_examples(dfs, corpus, "/flat/examples", num_shards=3)
        runner = self._make_runner(dfs, lfs, "/flat", checkpoint_every=1)
        runner.run(RecordStreamSource(dfs, shards))
        paths = runner.manager.manifest_paths()
        first, last = (runner.manager.load(p) for p in (paths[0], paths[-1]))
        assert last.cursor >= 5 * first.cursor
        assert dfs.size(last.path) <= 1.25 * dfs.size(first.path), (
            f"manifest grew {dfs.size(first.path):,} -> "
            f"{dfs.size(last.path):,} bytes over {last.cursor} examples"
        )

    def test_resume_restores_posteriors_to_tolerance(self, staged, lfs):
        dfs, shards, baseline, _ = staged
        root = "/posterior-check"
        with pytest.raises(SimulatedCrash):
            self._make_runner(dfs, lfs, root).run(
                RecordStreamSource(dfs, shards), fail_after_batch=3
            )
        resumed = self._make_runner(dfs, lfs, root)
        resumed.run(RecordStreamSource(dfs, shards))
        L = retained_rows(baseline.online)
        gap = np.max(
            np.abs(
                baseline.online.refit().predict_proba(L)
                - resumed.online.refit().predict_proba(L)
            )
        )
        assert gap <= 1e-6
        # Step counters continued across the resume (satellite: lr
        # schedules must not reset).
        assert (
            resumed.online.model.steps_taken
            == baseline.online.model.steps_taken
        )

    def test_legacy_manifest_without_cursor_replays(self, staged, lfs):
        """Manifests written before source cursors existed (or by plain
        iterable sources) resume through the replay fallback — slower,
        but the durable vote/label bytes still converge exactly."""

        class PlainSource:
            """Hides iter_with_cursor: what a pre-cursor source was."""

            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return iter(self._inner)

        dfs, shards, baseline, _ = staged
        reference = tree_bytes(dfs, "/baseline")
        root = "/legacy-cursor"
        with pytest.raises(SimulatedCrash):
            self._make_runner(dfs, lfs, root).run(
                PlainSource(RecordStreamSource(dfs, shards)),
                fail_after_batch=2,
            )
        resumed = self._make_runner(dfs, lfs, root)
        report = resumed.run(RecordStreamSource(dfs, shards))
        assert report.replayed_examples == report.skipped_examples > 0

        def shards_only(tree):
            return {
                k: v
                for k, v in tree.items()
                if k.startswith("/votes/") or k.startswith("/labels/")
            }

        # Vote/label shards converge; only the pre-crash manifests keep
        # their cursor-less legacy meta.
        assert shards_only(tree_bytes(dfs, root)) == shards_only(reference)
        L = retained_rows(baseline.online)
        assert np.array_equal(retained_rows(resumed.online), L)

    def test_completed_root_is_idempotent(self, staged, lfs):
        dfs, shards, baseline, _ = staged
        before = tree_bytes(dfs, "/baseline")
        rerun = self._make_runner(dfs, lfs, "/baseline")
        report = rerun.run(RecordStreamSource(dfs, shards))
        assert report.batches_finalized == 0
        assert report.skipped_examples == sum(
            1 for _ in RecordStreamSource(dfs, shards)
        )
        assert tree_bytes(dfs, "/baseline") == before


    def test_resume_rejects_changed_batch_size(self, staged, lfs):
        dfs, shards, _, _ = staged
        runner = CheckpointedStream(
            dfs,
            lfs,
            "/baseline",
            batch_size=self.BATCH * 2,
            online_config=ONLINE_CONFIG,
        )
        with pytest.raises(ValueError, match="batch_size"):
            runner.run(RecordStreamSource(dfs, shards))

    def test_resume_rejects_changed_lf_suite(self, staged):
        """New shards must stay column-compatible with durable ones."""
        dfs, shards, _, _ = staged
        changed = make_lfs()[:2]  # one LF dropped
        runner = self._make_runner(dfs, changed, "/baseline")
        with pytest.raises(ValueError, match="LF suite"):
            runner.run(RecordStreamSource(dfs, shards))

    def test_end_model_resumes_with_stream(self, dfs, corpus, lfs):
        shards = stage_examples(dfs, corpus, "/examples/e", num_shards=2)
        featurizer = HashedTextFeaturizer(num_buckets=2 ** 10)

        def runner(root):
            return self._make_runner(
                dfs,
                lfs,
                root,
                end_model=NoiseAwareLogisticRegression(
                    featurizer.spec.dimension, LogisticConfig(seed=0)
                ),
                featurizer=featurizer,
            )

        straight = runner("/end-full")
        straight.run(RecordStreamSource(dfs, shards))

        interrupted = runner("/end-resumed")
        with pytest.raises(SimulatedCrash):
            interrupted.run(
                RecordStreamSource(dfs, shards), fail_after_batch=2
            )
        resumed = runner("/end-resumed")
        resumed.run(RecordStreamSource(dfs, shards))

        assert tree_bytes(dfs, "/end-resumed") == tree_bytes(
            dfs, "/end-full"
        )
        assert (
            resumed.end_model.iterations_run
            == straight.end_model.iterations_run
        )
        assert np.array_equal(
            resumed.end_model._ftrl.dense_weights(),
            straight.end_model._ftrl.dense_weights(),
        )

    def test_validates_construction(self, dfs, lfs):
        with pytest.raises(ValueError, match="checkpoint_every"):
            CheckpointedStream(dfs, lfs, "/r", checkpoint_every=0)
        with pytest.raises(ValueError, match="together"):
            CheckpointedStream(
                dfs,
                lfs,
                "/r",
                end_model=NoiseAwareLogisticRegression(16),
            )


# ----------------------------------------------------------------------
# drift state in manifests
# ----------------------------------------------------------------------
class TestDriftCheckpointing:
    BATCH = 64

    #: Hair-trigger policy: tiny windows and a low threshold so alarms,
    #: forced refits, and reference resets all fire *mid-stream* — the
    #: crash matrix below then proves they replay deterministically.
    POLICY = DriftPolicy(
        reference_batches=1,
        recent_batches=1,
        threshold=1.0,
        reactions=("log", "refit", "reset_reference"),
    )

    def _make_runner(self, dfs, lfs, root):
        return CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=self.BATCH,
            online_config=ONLINE_CONFIG,
            checkpoint_every=2,
            drift=self.POLICY,
        )

    def test_manifest_round_trips_drift_record(self, dfs):
        monitor = DriftMonitor(DriftPolicy())
        for votes in (
            np.array([[1, -1, 0]] * 8, dtype=np.int8),
            np.array([[0, 1, 1]] * 8, dtype=np.int8),
        ):
            monitor.observe_batch(votes)
        model = OnlineLabelModel(ONLINE_CONFIG)
        model.observe(np.array([[1, 0, -1]] * 8, dtype=np.int8))
        manager = CheckpointManager(dfs, "/run")
        manager.write(
            0, 8, model.state_dict(), drift_state=monitor.state_dict()
        )
        loaded = manager.latest()
        assert loaded.drift_state is not None
        restored = DriftMonitor(DriftPolicy()).load_state(loaded.drift_state)
        assert restored.state_dict() == monitor.state_dict()
        # Manifests written without a policy simply omit the record.
        manager.write(1, 16, model.state_dict())
        assert manager.latest().drift_state is None

    def test_drift_kill_matrix_resumes_byte_identical(self, corpus, lfs):
        """The crash-resume guarantee must survive active drift
        reactions: forced refits and reference resets triggered by the
        monitor are part of the replayed state, so a stream killed after
        ANY batch still converges to byte-identical manifests/shards and
        the same alarm history."""
        from repro.dfs.filesystem import DistributedFileSystem

        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/examples/e", num_shards=3)
        baseline = self._make_runner(dfs, lfs, "/drift-baseline")
        base_report = baseline.run(RecordStreamSource(dfs, shards))
        reference = tree_bytes(dfs, "/drift-baseline")
        # The hair-trigger policy must actually exercise the reactions.
        assert baseline.drift_monitor.alarms > 0
        assert baseline.drift_monitor.forced_refits > 0
        assert (
            base_report.stream.counters["drift/alarms"]
            == baseline.drift_monitor.alarms
        )

        for kill_after in range(base_report.batches_finalized - 1):
            root = f"/drift-killed-{kill_after}"
            with pytest.raises(SimulatedCrash):
                self._make_runner(dfs, lfs, root).run(
                    RecordStreamSource(dfs, shards),
                    fail_after_batch=kill_after,
                )
            resumed = self._make_runner(dfs, lfs, root)
            resumed.run(RecordStreamSource(dfs, shards))
            assert tree_bytes(dfs, root) == reference, (
                f"divergent bytes after kill at batch {kill_after}"
            )
            assert (
                resumed.drift_monitor.state_dict()
                == baseline.drift_monitor.state_dict()
            ), f"divergent monitor state after kill at batch {kill_after}"

    def test_resume_without_policy_ignores_drift_record(self, corpus, lfs):
        """Dropping the policy on resume is allowed: the manifest's
        drift record is ignored and the stream continues undrifted
        (the monitor-less configuration the pre-drift code ran)."""
        from repro.dfs.filesystem import DistributedFileSystem

        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/examples/e", num_shards=3)
        root = "/drop-policy"
        with pytest.raises(SimulatedCrash):
            self._make_runner(dfs, lfs, root).run(
                RecordStreamSource(dfs, shards), fail_after_batch=2
            )
        resumed = CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=self.BATCH,
            online_config=ONLINE_CONFIG,
            checkpoint_every=2,
        )
        report = resumed.run(RecordStreamSource(dfs, shards))
        assert resumed.drift_monitor is None
        assert report.batches_finalized > 0
        assert "drift/batches" not in report.stream.counters


# ----------------------------------------------------------------------
# manifests from earlier writers (label-model state schemas 1 and 2)
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).parent / "fixtures"


def stage_captured_root(corpus, payload, captured):
    """A fresh DFS holding the re-staged corpus (deterministic shard
    bytes) and the captured durable root; returns it and the shards."""
    from repro.dfs.filesystem import DistributedFileSystem

    dfs = DistributedFileSystem()
    shards = stage_examples(
        dfs, corpus, payload["examples_root"], num_shards=payload["num_shards"]
    )
    for path, blob in captured["files"].items():
        dfs.write_file(path, base64.b64decode(blob))
    return dfs, shards


def resume_captured_root(corpus, lfs, payload, captured, online_config):
    """Transplant a captured durable root, resume it, and require the
    same bytes a fresh run over the same stream writes.

    Everything must match except the captured manifests themselves
    (which legitimately keep their era's schema). Returns the resumed
    stream, the fresh one, the resume report, and the stream's vote
    matrix.
    """
    dfs, shards = stage_captured_root(corpus, payload, captured)

    def runner(root):
        return CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=payload["batch_size"],
            online_config=online_config,
            checkpoint_every=payload["checkpoint_every"],
        )

    resumed = runner(captured["root"])
    report = resumed.run(RecordStreamSource(dfs, shards))
    fresh = runner("/fresh")
    fresh.run(RecordStreamSource(dfs, shards))
    fresh_tree = tree_bytes(dfs, "/fresh")
    resumed_tree = tree_bytes(dfs, captured["root"])
    assert set(resumed_tree) == set(fresh_tree)
    era_manifests = {
        path[len(captured["root"]):]
        for path in captured["files"]
        if "/checkpoints/" in path
    }
    for rel, blob in fresh_tree.items():
        if rel not in era_manifests:
            assert resumed_tree[rel] == blob, f"divergent bytes at {rel}"
    return resumed, fresh, report, stream_matrix(dfs, shards, lfs)


class TestPreDriftManifestCompat:
    """A PR 3/4-era durable root must restore into the drift-aware code.

    ``tests/fixtures/pre_drift_root.json`` was captured from the
    pre-drift ``CheckpointedStream`` (before ``moment_weight``, pattern
    weights, window segments, or drift records existed in manifests):
    this module's ``make_corpus()``/``make_lfs()`` corpus staged into 3
    shards, batch_size 64, checkpoint_every 2, killed by a
    ``SimulatedCrash`` after batch 2 — so the root holds shards for
    batches 0-2 and a schema-era manifest at batch 1, with batch 2's
    shards orphaned.
    """

    FIXTURE = FIXTURES / "pre_drift_root.json"

    @pytest.fixture()
    def fixture_payload(self):
        with open(self.FIXTURE) as handle:
            return json.load(handle)

    def test_pre_drift_root_resumes_with_cumulative_behavior(
        self, corpus, lfs, fixture_payload
    ):
        resumed, fresh, report, L = resume_captured_root(
            corpus, lfs, fixture_payload, fixture_payload, ONLINE_CONFIG
        )
        assert report.resumed_from_batch == 1
        # Orphan truncation applied to the era shards too.
        assert len(report.orphan_shards_deleted) == 2

        # The restored model runs in cumulative mode with the implicit
        # pre-drift accounting: effective mass == observed count.
        assert resumed.online.mode == "cumulative"
        assert resumed.online.effective_examples == resumed.online.n_observed

        # And the final models agree to the bit.
        assert same_rows(resumed.online.compressed_votes(), L)
        assert fresh.online.refit().predict_proba(L).tobytes() == (
            resumed.online.refit().predict_proba(L).tobytes()
        )


class TestSchema2ManifestCompat:
    """The last row-id-logging writer's roots must resume unchanged.

    ``tests/fixtures/schema2_roots.json`` was captured at the parent of
    the commit that replaced the per-example ``row_ids`` log with
    pattern counts: same corpus and shape as the pre-drift fixture, one
    root per exact retention mode, with ``refit_every`` set so the first
    scheduled refit falls *after* the resume point — the resumed stream
    refits from counted row ids, the fresh one from native counts, and
    every later label shard and manifest must still match byte for byte.
    """

    @pytest.fixture(scope="class")
    def payload(self):
        with open(FIXTURES / "schema2_roots.json") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("mode", ["cumulative", "window"])
    def test_schema2_root_resumes_byte_identical(
        self, corpus, lfs, payload, mode
    ):
        captured = payload["roots"][mode]
        era_state = next(
            record["state"]
            for path, blob in captured["files"].items()
            if "/checkpoints/" in path
            for record in decode_records(base64.b64decode(blob))
            if record["kind"] == "label_model"
        )
        assert era_state["schema"] == 2 and era_state["row_ids"] is not None

        config = replace(
            ONLINE_CONFIG,
            refit_every=payload["refit_every"],
            window_batches=captured["window_batches"],
        )
        resumed, fresh, report, L = resume_captured_root(
            corpus, lfs, payload, captured, config
        )
        assert report.resumed_from_batch == 1
        assert resumed.online.mode == mode
        assert resumed.online.refits_done > 0
        assert resumed.online.state_dict() == fresh.online.state_dict()

        # The retained rows are the stream's (its tail, in window mode),
        # and a refit is their offline fit in any order.
        if mode == "window":
            n_batches = -(-len(L) // payload["batch_size"])
            first_kept = n_batches - captured["window_batches"]
            L = L[first_kept * payload["batch_size"]:]
        assert same_rows(resumed.online.compressed_votes(), L)
        shuffled = L[np.random.default_rng(0).permutation(len(L))]
        offline = SamplingFreeLabelModel(config.base).fit(shuffled)
        assert np.array_equal(
            resumed.online.refit().predict_proba(L), offline.predict_proba(L)
        )


# ----------------------------------------------------------------------
# scheduled refits under the durability contracts
# ----------------------------------------------------------------------
class TestCompressedRefitCheckpointing:
    """Mid-run refits must not move a byte of the durable contract.

    Streams here schedule refits *mid-run* (``refit_every=2``), so
    refitted parameters feed the label shards of every later batch —
    a refit that depended on anything but the retained multiset of rows
    (batching, kill point, restore path) would surface as shard bytes,
    not just as a final-posterior gap.
    """

    BATCH = 64

    def _runner(self, dfs, lfs, root):
        return CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=self.BATCH,
            online_config=replace(ONLINE_CONFIG, refit_every=2),
            checkpoint_every=2,
        )

    def test_kill_matrix_with_compressed_refits(self, corpus, lfs):
        """Killed after ANY batch with refits scheduled, the resumed
        stream converges to byte-identical shards/manifests, and the
        final refit is bitwise the offline fit of the shuffled stream.
        """
        from repro.dfs.filesystem import DistributedFileSystem

        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/examples/e", num_shards=3)
        baseline = self._runner(dfs, lfs, "/refit-baseline")
        base_report = baseline.run(RecordStreamSource(dfs, shards))
        assert baseline.online.refits_done > 0
        reference = tree_bytes(dfs, "/refit-baseline")

        L = stream_matrix(dfs, shards, lfs)
        shuffled = L[np.random.default_rng(0).permutation(len(L))]
        offline = SamplingFreeLabelModel(ONLINE_CONFIG.base).fit(shuffled)
        assert np.array_equal(
            baseline.online.refit().predict_proba(L), offline.predict_proba(L)
        )

        for kill_after in range(base_report.batches_finalized - 1):
            root = f"/refit-killed-{kill_after}"
            with pytest.raises(SimulatedCrash):
                self._runner(dfs, lfs, root).run(
                    RecordStreamSource(dfs, shards),
                    fail_after_batch=kill_after,
                )
            resumed = self._runner(dfs, lfs, root)
            resumed.run(RecordStreamSource(dfs, shards))
            assert tree_bytes(dfs, root) == reference, (
                f"divergent bytes after kill at batch {kill_after} "
                "with refits scheduled"
            )

    def test_pre_drift_manifest_refits_identically_compressed(self, corpus, lfs):
        """A manifest written before pattern counts existed must restore
        and refit to the offline fit of its stream prefix: the row-id
        log it carries counts into exactly the table the fit consumes."""
        with open(TestPreDriftManifestCompat.FIXTURE) as handle:
            fixture = json.load(handle)
        dfs, shards = stage_captured_root(corpus, fixture, fixture)
        checkpoint = CheckpointManager(dfs, fixture["root"]).latest()
        online = OnlineLabelModel(ONLINE_CONFIG)
        online.load_state(checkpoint.label_model_state)

        L = stream_matrix(dfs, shards, lfs)[: checkpoint.cursor]
        assert same_rows(online.compressed_votes(), L)
        shuffled = L[np.random.default_rng(0).permutation(len(L))]
        offline = SamplingFreeLabelModel(ONLINE_CONFIG.base).fit(shuffled)
        restored = online.refit()
        assert np.array_equal(offline.alpha, restored.alpha)
        assert np.array_equal(offline.beta, restored.beta)
        assert np.array_equal(offline.predict_proba(L), restored.predict_proba(L))
