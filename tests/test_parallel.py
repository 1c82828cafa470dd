"""Tests for the process-pool parallel labeling subsystem.

The contract under test is *byte identity*: at any worker count, on both
hot paths (offline in-memory applier and multi-consumer streaming),
parallel votes / sink shards / posteriors must be bit-exact with a
serial run — including under artificially skewed per-block latency and
across worker crashes that exhaust into retries.
"""

import queue
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.dfs.filesystem import DistributedFileSystem
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.lf.default import LabelingFunction
from repro.lf.registry import LFCategory, LFInfo
from repro.mapreduce.runner import WorkerFailure
from repro.parallel import (
    LFSuiteSpec,
    ParallelLabelExecutor,
    parallel_block_size,
)
from repro.parallel.executor import _pack_block, _unpack_block
from repro.dfs.records import read_records
from repro.streaming import (
    CheckpointedStream,
    MicroBatchPipeline,
    RecordStreamSource,
    SimulatedCrash,
    read_labels,
)
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModelConfig
from repro.types import Example

from tests.test_checkpoint import assert_labels_are_fits, make_corpus, make_lfs

WORKER_COUNTS = (1, 2, 4)


def build_suite():
    """Module-level factory: what an LFSuiteSpec points at."""
    return make_lfs()


def build_other_suite():
    """A narrower suite, for the spec-mismatch guard tests."""
    return make_lfs()[:2]


def _typed_field_vote(example):
    """Reads an int dict key and a tuple — both of which JSON rewrites."""
    hist, span = example.fields["hist"], example.fields["span"]
    return 1 if 3 in hist and isinstance(span, tuple) else -1


def build_typed_field_suite():
    """The normal suite plus one LF over fields JSON is not invariant on."""
    typed = LabelingFunction(
        LFInfo(
            name="typed_fields",
            category=LFCategory.CONTENT_HEURISTIC,
            servable=True,
            description="votes on an int-keyed dict and a tuple field",
        ),
        fn=_typed_field_vote,
    )
    return [*make_lfs(), typed]


SPEC = LFSuiteSpec(factory="tests.test_parallel:build_suite")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(n=600, seed=23)


@pytest.fixture(scope="module")
def serial_matrix(corpus):
    return apply_lfs_in_memory(make_lfs(), corpus).matrix


@pytest.fixture(scope="module")
def pool():
    """One warm two-worker pool for every case that kills no worker."""
    with ParallelLabelExecutor(SPEC, workers=2) as executor:
        yield executor


@pytest.fixture(scope="module", params=WORKER_COUNTS)
def sized_pool(request):
    with ParallelLabelExecutor(SPEC, workers=request.param) as executor:
        yield executor


@pytest.fixture(scope="module")
def narrow_pool():
    """A worker that rebuilds the wrong (narrower) suite."""
    wrong = LFSuiteSpec(factory="tests.test_parallel:build_other_suite")
    with ParallelLabelExecutor(wrong, workers=1) as executor:
        yield executor


# ----------------------------------------------------------------------
# spec + block sizing
# ----------------------------------------------------------------------
class TestSuiteSpec:
    def test_build_reconstructs_the_suite(self):
        lfs = SPEC.build()
        assert [lf.name for lf in lfs] == [lf.name for lf in make_lfs()]

    def test_rejects_malformed_factory(self):
        with pytest.raises(ValueError, match="module:callable"):
            LFSuiteSpec(factory="not-a-path")

    def test_block_size_is_deterministic_and_bounded(self):
        assert parallel_block_size(20_000, 4, 8192) == parallel_block_size(
            20_000, 4, 8192
        )
        assert 1 <= parallel_block_size(10, 4, 8192) <= 8192
        for n in (1, 100, 5000, 100_000):
            assert parallel_block_size(n, 4, 2048) <= 2048


# ----------------------------------------------------------------------
# offline path: serial vs parallel byte identity
# ----------------------------------------------------------------------
class TestOfflineParallel:
    def test_matrix_identical_at_every_worker_count(
        self, corpus, serial_matrix, sized_pool
    ):
        L = apply_lfs_in_memory(make_lfs(), corpus, executor=sized_pool)
        assert np.array_equal(L.matrix, serial_matrix)
        assert L.example_ids == [e.example_id for e in corpus]

    def test_small_block_sizes_do_not_change_votes(
        self, corpus, serial_matrix, pool
    ):
        L = apply_lfs_in_memory(
            make_lfs(), corpus, executor=pool, batch_size=37
        )
        assert np.array_equal(L.matrix, serial_matrix)

    def test_executor_reuse_across_calls(self, corpus, serial_matrix, pool):
        for _ in range(2):
            L = apply_lfs_in_memory(make_lfs(), corpus, executor=pool)
            assert np.array_equal(L.matrix, serial_matrix)

    def test_rejects_unbatched_parallel(self, corpus, pool):
        # The check does not depend on the input: an empty one is
        # rejected too.
        for examples in (corpus, []):
            with pytest.raises(ValueError, match="batched"):
                apply_lfs_in_memory(
                    make_lfs(), examples, batched=False, executor=pool
                )

    def test_rejects_mismatched_suite_spec(self, corpus, narrow_pool):
        with pytest.raises(ValueError, match="suite_spec"):
            apply_lfs_in_memory(make_lfs(), corpus, executor=narrow_pool)

    def test_workers_see_field_values_not_their_json_image(self):
        """A worker labels the values a serial run reads: ``{3: .9}``
        must not arrive as ``{"3": .9}`` nor ``(1, 2)`` as ``[1, 2]``."""
        corpus = [
            Example(
                e.example_id,
                fields={**e.fields, "hist": {3: 0.9}, "span": (1, 2)},
            )
            for e in make_corpus(n=60, seed=3)
        ]
        spec = LFSuiteSpec(factory="tests.test_parallel:build_typed_field_suite")
        serial = apply_lfs_in_memory(build_typed_field_suite(), corpus).matrix
        assert (serial[:, -1] == 1).all()
        with ParallelLabelExecutor(spec, workers=1) as executor:
            pooled = apply_lfs_in_memory(
                build_typed_field_suite(), corpus, executor=executor
            ).matrix
        assert np.array_equal(pooled, serial)

    def test_worker_rebuilds_what_from_record_builds(self):
        """A block crosses as tuples; the worker's examples equal
        ``Example.from_record(e.to_record())``, tuple values and int
        keys intact and ``None`` views normalised to ``{}``."""
        corpus = [
            Example(
                e.example_id,
                fields={**e.fields, "hist": {3: 0.9}, "span": (1, 2)},
                servable={"s": i},
                non_servable={7: ("a", "b")},
                label=i % 2,
            )
            for i, e in enumerate(make_corpus(n=12, seed=5))
        ]
        corpus.append(Example("bare", fields=None, servable=None, non_servable=None))
        rebuilt = _unpack_block(_pack_block(corpus))
        assert rebuilt == [Example.from_record(e.to_record()) for e in corpus]
        assert rebuilt[0].fields["span"] == (1, 2)
        assert rebuilt[0].fields["hist"] == {3: 0.9}
        assert rebuilt[0].non_servable == {7: ("a", "b")}
        assert (rebuilt[-1].fields, rebuilt[-1].servable) == ({}, {})


# ----------------------------------------------------------------------
# order-restoring reassembly under skewed per-block latency
# ----------------------------------------------------------------------
def _skew_vote(example):
    """Latency depends on the doc id; the vote never does."""
    if int(example.example_id.split("-")[1]) < 120:
        time.sleep(0.002)
    return 0


def build_skewed_suite():
    """The normal suite plus one LF whose latency depends on the doc id.

    Blocks containing low-numbered documents take visibly longer than
    later ones, so later blocks overtake earlier ones inside the pool —
    exactly the completion-order scramble reassembly must undo. The slow
    LF has no batch kernel and no fused spec, so its sleeps run on every
    execution path.
    """
    slow = LabelingFunction(
        LFInfo(
            name="slow_noop",
            category=LFCategory.CONTENT_HEURISTIC,
            servable=True,
            description="deterministic votes, skewed latency",
        ),
        fn=_skew_vote,
    )
    return [*make_lfs(), slow]


class TestReassemblyOrder:
    def test_skewed_latency_preserves_order(self):
        corpus = make_corpus(n=400, seed=5)
        spec = LFSuiteSpec(factory="tests.test_parallel:build_skewed_suite")
        serial = apply_lfs_in_memory(build_skewed_suite(), corpus)
        with ParallelLabelExecutor(spec, workers=4) as executor:
            seen = []
            blocks = (
                (seq, corpus[start:start + 40])
                for seq, start in enumerate(range(0, len(corpus), 40))
            )
            rows = []
            for block in executor.label_blocks(blocks):
                seen.append(block.seq)
                rows.append(block.votes)
            # The policy itself, without the driver: the slow head
            # blocks are overtaken inside the pool, yet N submits then N
            # takes come back in submission order.
            order = list(range(len(corpus) // 40))
            for seq in order:
                executor.submit(seq, corpus[seq * 40:(seq + 1) * 40])
            taken = [executor.next_completed(timeout=60) for _ in order]
            # A head block whose worker dies is retried in place: it is
            # still delivered first, ahead of blocks that finished long
            # before its second attempt.
            executor.kill_worker_on(100, attempts=1)
            for seq in (100, 101, 102, 103):
                executor.submit(seq, corpus[(seq - 100) * 40:(seq - 99) * 40])
            retried = [executor.next_completed(timeout=60) for _ in range(4)]
            assert executor.pool_restarts >= 1
            assert executor.pending() == 0
        assert seen == sorted(seen), "blocks were emitted out of order"
        assert np.array_equal(np.vstack(rows), serial.matrix)
        assert [seq for seq, *_ in taken] == order
        assert np.array_equal(
            np.vstack([votes for _, _, votes, _ in taken]), serial.matrix
        )
        assert [seq for seq, *_ in retried] == [100, 101, 102, 103]
        assert np.array_equal(
            np.vstack([votes for _, _, votes, _ in retried]),
            serial.matrix[:160],
        )

    def test_streaming_sinks_see_batches_in_order(self):
        corpus = make_corpus(n=500, seed=9)
        spec = LFSuiteSpec(factory="tests.test_parallel:build_skewed_suite")
        lfs = build_skewed_suite()
        seqs = []
        with ParallelLabelExecutor(spec, workers=4) as executor:
            report = MicroBatchPipeline(
                lfs,
                batch_size=50,
                max_resident_batches=6,
                executor=executor,
                on_batch=lambda seq, *_: seqs.append(seq),
                collect_votes=True,
            ).run(iter(corpus))
        assert seqs == list(range(report.batches))
        serial = apply_lfs_in_memory(build_skewed_suite(), corpus)
        assert np.array_equal(report.label_matrix.matrix, serial.matrix)


# ----------------------------------------------------------------------
# streaming path: multi-consumer equivalence + bounds
# ----------------------------------------------------------------------
class TestStreamingParallel:
    @pytest.fixture(scope="class")
    def staged(self):
        corpus = make_corpus(n=700, seed=31)
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/par/examples", num_shards=3)
        serial = MicroBatchPipeline(
            make_lfs(), batch_size=64, collect_votes=True
        ).run(RecordStreamSource(dfs, shards))
        return dfs, shards, serial

    def test_votes_identical_at_every_worker_count(self, staged, sized_pool):
        dfs, shards, serial = staged
        report = MicroBatchPipeline(
            make_lfs(),
            batch_size=64,
            max_resident_batches=sized_pool.workers + 2,
            executor=sized_pool,
            collect_votes=True,
        ).run(RecordStreamSource(dfs, shards))
        assert report.label_matrix.example_ids == (
            serial.label_matrix.example_ids
        )
        assert np.array_equal(
            report.label_matrix.matrix, serial.label_matrix.matrix
        )
        assert report.workers == sized_pool.workers

    def test_residency_permits_bound_inflight_batches(self, staged, pool):
        dfs, shards, _ = staged
        report = MicroBatchPipeline(
            make_lfs(),
            batch_size=64,
            max_resident_batches=3,
            executor=pool,
        ).run(RecordStreamSource(dfs, shards))
        assert report.peak_resident_records <= report.max_resident_records
        assert report.max_resident_records == 3 * 64

    def test_posteriors_match_serial(self, staged, pool):
        dfs, shards, serial = staged
        report = MicroBatchPipeline(
            make_lfs(),
            batch_size=64,
            max_resident_batches=4,
            executor=pool,
            collect_votes=True,
        ).run(RecordStreamSource(dfs, shards))
        config = LabelModelConfig(seed=0)
        reference = SamplingFreeLabelModel(config).fit(
            serial.label_matrix.matrix
        )
        parallel = SamplingFreeLabelModel(config).fit(
            report.label_matrix.matrix
        )
        assert (
            reference.predict_proba(serial.label_matrix.matrix).tobytes()
            == parallel.predict_proba(report.label_matrix.matrix).tobytes()
        )

    def test_label_shards_identical_across_serial_pool_and_resumed(
        self, staged, pool
    ):
        """With a solve per batch (so batches carry different posterior
        tables), a serial run, a pooled run and a pooled run resumed
        after a crash write the same label blocks, byte for byte, and
        each is the offline fit of the stream through its batch."""
        dfs, shards, serial = staged
        config = OnlineLabelModelConfig(base=LabelModelConfig(seed=0))

        def stream(root, executor=None):
            return CheckpointedStream(
                dfs, make_lfs(), root, batch_size=64, online_config=config,
                checkpoint_every=2, executor=executor,
            )

        stream("/lab/serial").run(RecordStreamSource(dfs, shards))
        stream("/lab/pool", pool).run(RecordStreamSource(dfs, shards))
        with pytest.raises(SimulatedCrash):
            stream("/lab/resumed").run(
                RecordStreamSource(dfs, shards), fail_after_batch=4
            )
        stream("/lab/resumed", pool).run(RecordStreamSource(dfs, shards))

        def labels(root):
            return {
                p[len(root):]: dfs.read_file(p)
                for p in dfs.list(f"{root}/labels/")
            }

        reference = labels("/lab/serial")
        assert len(reference) == -(-len(serial.label_matrix.example_ids) // 64)
        assert labels("/lab/pool") == reference
        assert labels("/lab/resumed") == reference
        paths = dfs.list("/lab/serial/labels/")
        assert all(
            [record["kind"] for record in read_records(dfs, p)] == ["labels"]
            for p in paths
        )
        assert [
            eid for p in paths for eid in read_labels(dfs, p)[0]
        ] == serial.label_matrix.example_ids
        assert_labels_are_fits(
            dfs, "/lab/serial", serial.label_matrix.matrix, 64, None, range(len(paths))
        )

    def test_mismatched_worker_suite_is_rejected(self, staged, narrow_pool):
        dfs, shards, _ = staged
        pipe = MicroBatchPipeline(
            make_lfs(), batch_size=64, executor=narrow_pool
        )
        with pytest.raises(ValueError, match="vote columns"):
            pipe.run(RecordStreamSource(dfs, shards))


# ----------------------------------------------------------------------
# worker crashes: bounded retry, WorkerFailure, byte identity
# ----------------------------------------------------------------------
class TestWorkerCrashes:
    def test_killed_worker_retries_to_identical_votes(
        self, corpus, serial_matrix
    ):
        with ParallelLabelExecutor(SPEC, workers=2) as executor:
            executor.kill_worker_on(1, attempts=1)
            votes = executor.label_examples(corpus, block_size=64)
            assert executor.pool_restarts >= 1
        assert np.array_equal(votes, serial_matrix)

    def test_exhausted_retries_surface_worker_failure(self, corpus):
        with ParallelLabelExecutor(SPEC, workers=2, max_retries=1) as executor:
            executor.kill_worker_on(0, attempts=10)
            with pytest.raises(WorkerFailure, match="block 0"):
                executor.label_examples(corpus, block_size=64)

    def test_streaming_survives_worker_kill_with_identical_shards(self):
        corpus = make_corpus(n=400, seed=41)
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/kill/examples", num_shards=2)
        lfs = make_lfs()
        config = OnlineLabelModelConfig(base=LabelModelConfig(seed=0))

        serial = CheckpointedStream(
            dfs, lfs, "/kill/serial", batch_size=64, online_config=config
        )
        serial.run(RecordStreamSource(dfs, shards))

        executor = ParallelLabelExecutor(SPEC, workers=2)
        executor.kill_worker_on(2, attempts=1)
        try:
            parallel = CheckpointedStream(
                dfs,
                lfs,
                "/kill/parallel",
                batch_size=64,
                online_config=config,
                executor=executor,
            )
            parallel.run(RecordStreamSource(dfs, shards))
        finally:
            executor.close()
        assert executor.pool_restarts >= 1

        def tree(root):
            return {
                p[len(root):]: dfs.read_file(p) for p in dfs.list(root)
            }

        assert tree("/kill/parallel") == tree("/kill/serial")

    def test_warm_executor_is_reusable_after_a_failed_run(
        self, corpus, serial_matrix
    ):
        """A failed run must not poison a shared pool: in-flight state
        is reset, so the same executor serves the next run cleanly."""
        with ParallelLabelExecutor(SPEC, workers=2, max_retries=0) as executor:
            executor.kill_worker_on(0, attempts=10)
            with pytest.raises(WorkerFailure):
                executor.label_examples(corpus, block_size=64)
            assert executor.pending() == 0  # label_blocks reset on error
            executor._kill_plan.clear()
            votes = executor.label_examples(corpus, block_size=64)
            assert np.array_equal(votes, serial_matrix)

    @pytest.mark.parametrize(
        "ending", ["clean", "sink_raises", "worker_failure"]
    )
    def test_run_never_closes_the_callers_executor(self, ending):
        """The pool is the caller's: however a run ends, the pipeline
        leaves it open with nothing in flight, and the next run on it is
        byte-identical to serial."""
        corpus = make_corpus(n=300, seed=13)
        lfs = make_lfs()
        serial = apply_lfs_in_memory(lfs, corpus).matrix

        def explode(seq, examples, votes):
            if seq == 2:
                raise RuntimeError("sink crashed")

        def run(executor, on_batch=None):
            return MicroBatchPipeline(
                lfs, batch_size=32, max_resident_batches=4,
                executor=executor, on_batch=on_batch, collect_votes=True,
            ).run(iter(corpus))

        with ParallelLabelExecutor(SPEC, workers=2, max_retries=0) as executor:
            if ending == "clean":
                run(executor)
            elif ending == "sink_raises":
                with pytest.raises(RuntimeError, match="sink crashed"):
                    run(executor, on_batch=explode)
            else:
                executor.kill_worker_on(1, attempts=10)
                with pytest.raises(WorkerFailure):
                    run(executor)
                executor._kill_plan.clear()
            assert executor.pending() == 0
            # A closed executor refuses to start, so this run is also
            # the proof that the one before it closed nothing.
            report = run(executor)
        assert np.array_equal(report.label_matrix.matrix, serial)

    def test_next_completed_times_out_with_nothing_in_flight(self, pool):
        assert pool.pending() == 0
        start = time.monotonic()
        with pytest.raises(queue.Empty):
            pool.next_completed(timeout=0.2)
        assert 0.2 <= time.monotonic() - start < 10

    def test_kill_charges_every_inflight_block_once_and_keeps_order(self):
        """Three slow blocks are running when a fourth kills its worker:
        the broken pool fails all four futures, each block is charged
        one attempt, and they still come back in submission order."""
        corpus = make_corpus(n=160, seed=5)
        spec = LFSuiteSpec(factory="tests.test_parallel:build_skewed_suite")
        serial = apply_lfs_in_memory(build_skewed_suite(), corpus).matrix
        with ParallelLabelExecutor(spec, workers=4) as executor:
            executor.kill_worker_on(3, attempts=1)
            for seq in range(4):
                executor.submit(seq, corpus[seq * 40:(seq + 1) * 40])
            taken = [executor.next_completed(timeout=60) for _ in range(4)]
            assert executor.pending() == 0
            retries = executor.metrics.counters.value("parallel/retries")
            assert executor.pool_restarts == 1
        assert [seq for seq, *_ in taken] == [0, 1, 2, 3]
        assert retries == 4
        assert np.array_equal(
            np.vstack([votes for _, _, votes, _ in taken]), serial
        )

    def test_late_result_of_a_dropped_block_is_never_handed_out(self):
        """``reset()`` forgets a block that is still running; the same
        seq is then reused and only the new block ever comes back."""
        corpus = make_corpus(n=160, seed=5)
        spec = LFSuiteSpec(factory="tests.test_parallel:build_skewed_suite")
        serial = apply_lfs_in_memory(build_skewed_suite(), corpus).matrix
        with ParallelLabelExecutor(spec, workers=2) as executor:
            executor.submit(0, corpus[:40])  # slow: ~80 ms of sleeps
            assert executor.reset() == 1
            assert executor.pending() == 0
            executor.submit(0, corpus[120:160])
            seq, examples, votes, _ = executor.next_completed(timeout=60)
            assert seq == 0 and examples == corpus[120:160]
            assert np.array_equal(votes, serial[120:160])
            # Long enough for the dropped block to finish in its worker.
            with pytest.raises(queue.Empty):
                executor.next_completed(timeout=0.5)
            assert executor.pending() == 0

    def test_lost_future_of_a_replaced_pool_fails_its_attempt(
        self, corpus, serial_matrix
    ):
        """A submit that races a worker death can get back a future no
        one will ever resolve. Once that pool has been replaced, the
        attempt is charged and retried instead of waited on forever."""
        with ParallelLabelExecutor(SPEC, workers=1) as executor:
            executor.submit(0, corpus[:64])
            lost = executor._inflight[0]
            lost.future.result(timeout=60)
            lost.future = Future()  # what the racing submit got back
            executor._restart_pool(executor._pool_generation)
            seq, examples, votes, _ = executor.next_completed(timeout=10)
            retries = executor.metrics.counters.value("parallel/retries")
            assert executor.pending() == 0
        assert seq == 0 and examples == corpus[:64]
        assert np.array_equal(votes, serial_matrix[:64])
        assert retries == 1

    def test_validates_construction(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelLabelExecutor(SPEC, workers=0)
        with pytest.raises(ValueError, match="max_retries"):
            ParallelLabelExecutor(SPEC, workers=1, max_retries=-1)
        executor = ParallelLabelExecutor(SPEC, workers=1)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(0, [])
        # close() is terminal: restarting would leak a pool nothing
        # can submit to or shut down.
        with pytest.raises(RuntimeError, match="closed"):
            executor.start()
