"""Tests for the streaming sink + checkpoint layer.

Covers the durable path bottom-up: record-shard sinks (atomic publish,
orphan truncation), checkpoint manifests (write-then-rename, schema,
latest-wins), bit-exact model snapshots (including the step counters the
learning-rate schedules depend on), the pipeline's sink stage, and the
headline guarantee — a stream killed after ANY finalized micro-batch
resumes from the manifest to byte-identical shards and posteriors.
"""

import base64
import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.drift import DriftMonitor, DriftPolicy
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import (
    PATTERN_WEIGHT_FLOOR,
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.dfs.records import (
    decode_ndarray,
    encode_ndarray,
    iter_record_blobs,
    read_records,
    write_records,
)
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
    read_labels,
)
from repro.streaming.sinks import batch_shard_seq
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


ONLINE_CONFIG = OnlineLabelModelConfig(base=LabelModelConfig(seed=0))


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


def retained_reference(L, batch, n_batches, decay):
    """The rows a solve after the first ``n_batches`` ``batch``-row
    batches of the stream ``L`` fits, counted here from the rows: the
    whole prefix (cumulative), or every pattern repeated round(weight)
    times (half-up), its weight decaying by ``decay`` per batch and the
    pattern evicted once below ``PATTERN_WEIGHT_FLOOR`` (decay)."""
    if decay is None:
        return L[: n_batches * batch]
    table: dict[tuple, float] = {}
    for b in range(n_batches):
        table = {row: weight * decay for row, weight in table.items()}
        rows, counts = np.unique(L[b * batch : (b + 1) * batch], axis=0, return_counts=True)
        for row, count in zip(map(tuple, rows.tolist()), counts):
            table[row] = table.get(row, 0.0) + float(count)
        table = {r: w for r, w in table.items() if w >= PATTERN_WEIGHT_FLOOR}
    return np.vstack(
        [np.repeat([row], int(np.floor(w + 0.5)), axis=0) for row, w in table.items()]
    ).astype(L.dtype)


def assert_labels_are_fits(dfs, root, L, batch, decay, batches):
    """Batch ``t``'s label shard under ``root`` holds, bit for bit, the
    offline fit of the rows retained through batch ``t`` (inclusive)
    scoring batch ``t``'s votes, for every ``t`` in ``batches``."""
    for t in batches:
        rows = retained_reference(L, batch, t + 1, decay)
        fit = SamplingFreeLabelModel(ONLINE_CONFIG.base).fit(rows)
        _, served = read_labels(dfs, f"{root}/labels/batch-{t:06d}")
        expected = fit.predict_proba(L[t * batch : (t + 1) * batch])
        assert np.array_equal(served, expected), f"label shard of batch {t}"


def without_refit_count(records):
    """Manifest records with the label-model state's ``refits_done``
    dropped."""
    out = []
    for record in records:
        if record.get("kind") == "label_model":
            record = {**record, "state": dict(record["state"])}
            record["state"].pop("refits_done")
        out.append(record)
    return out


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
        (block,) = read_records(dfs, "/run/labels/batch-000000")
        assert {key: block[key] for key in ("kind", "batch", "n")} == {
            "kind": "labels", "batch": 0, "n": 4,
        }
        # One distinct posterior: a one-entry table and four zero indices.
        assert decode_ndarray(block["posteriors"]).tolist() == [0.25]
        assert decode_ndarray(block["index"]).tolist() == [0, 0, 0, 0]
        ids, proba = read_labels(dfs, "/run/labels/batch-000000")
        assert ids == [example.example_id for example in corpus[:4]]
        assert np.array_equal(proba, np.full(4, 0.25))
        assert sink.shards_written == 1 and sink.records_written == 1

    def test_label_sink_rejects_misshapen_probas(self, dfs, corpus, lfs):
        votes = apply_lfs_in_memory(lfs, corpus[:4]).matrix
        sink = LabelSink(dfs, "/run", lambda v: np.zeros(2))
        with pytest.raises(ValueError, match="proba_fn"):
            sink(0, corpus[:4], votes)
        # The half-written shard never became visible.
        assert not dfs.exists("/run/labels/batch-000000")

    @pytest.mark.parametrize(
        "distinct, width",
        [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65537, np.uint32)],
    )
    def test_label_index_is_the_narrowest_that_fits(self, dfs, distinct, width):
        """Past 256 distinct posteriors a batch takes a uint16 index, past
        65,536 a uint32 one; every label reads back bitwise."""
        rng = np.random.default_rng(distinct)
        table = np.sort(rng.random(distinct))
        proba = table[np.arange(distinct + 40) % distinct][::-1].copy()
        examples = [Example(f"e{i}") for i in range(len(proba))]
        sink = LabelSink(dfs, "/run", lambda v: proba)
        sink(7, examples, np.zeros((len(proba), 0), np.int8))
        (block,) = read_records(dfs, sink.shard_path(7))
        assert decode_ndarray(block["index"]).dtype == width
        assert np.array_equal(decode_ndarray(block["posteriors"]), table)
        ids, read = read_labels(dfs, sink.shard_path(7))
        assert ids == [example.example_id for example in examples]
        assert read.tobytes() == proba.tobytes()

    def test_empty_batch_writes_a_readable_block(self, dfs):
        sink = LabelSink(dfs, "/run", lambda v: np.zeros(0))
        sink(0, [], np.zeros((0, 3), np.int8))
        (block,) = read_records(dfs, sink.shard_path(0))
        assert block["kind"] == "labels" and block["n"] == 0
        ids, proba = read_labels(dfs, sink.shard_path(0))
        assert ids == [] and proba.dtype == np.float64 and proba.shape == (0,)

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


def label_block():
    """A well-formed label block record of 3 examples."""
    return {
        "kind": "labels",
        "batch": 0,
        "n": 3,
        "ids": ["e0", "e1", "e2"],
        "posteriors": encode_ndarray(np.array([0.25, 0.75])),
        "index": encode_ndarray(np.array([0, 1, 0], np.uint8)),
    }


def legacy_label_rows():
    """A 3-example label shard in the per-example row layout earlier
    writers used."""
    return [
        {"kind": "meta", "batch": 0, "n": 3},
        *({"example_id": f"e{i}", "proba": 0.25 * i} for i in range(3)),
    ]


#: Label shards ``read_labels`` must refuse, as ``ValueError``.
MALFORMED_LABEL_SHARDS = {
    "empty": [],
    "record_a_list": [[1, 2]],
    "no_kind": [{"batch": 0}],
    "other_kind": [{**label_block(), "kind": "votes"}],
    **{
        f"no_{field}": [{k: v for k, v in label_block().items() if k != field}]
        for field in ("batch", "n", "ids", "posteriors", "index")
    },
    "fractional_n": [{**label_block(), "n": 3.0}],
    "ids_a_dict": [{**label_block(), "ids": {"e0": 0}}],
    "ids_short": [{**label_block(), "ids": ["e0"]}],
    "posteriors_not_an_array": [{**label_block(), "posteriors": 5}],
    "posteriors_float32": [
        {**label_block(), "posteriors": encode_ndarray(np.zeros(2, np.float32))}
    ],
    "posteriors_2d": [
        {**label_block(), "posteriors": encode_ndarray(np.zeros((1, 2)))}
    ],
    "index_signed": [
        {**label_block(), "index": encode_ndarray(np.zeros(3, np.int8))}
    ],
    "index_short": [
        {**label_block(), "index": encode_ndarray(np.zeros(2, np.uint8))}
    ],
    "index_past_table": [
        {**label_block(), "index": encode_ndarray(np.array([0, 1, 2], np.uint8))}
    ],
    "record_after_block": [label_block(), label_block()],
    "rows_fewer_than_n": legacy_label_rows()[:-1],
    "row_without_proba": [*legacy_label_rows()[:-1], {"example_id": "e2"}],
    "row_proba_a_string": [*legacy_label_rows()[:-1], {"example_id": "e2", "proba": "x"}],
    "row_a_list": [*legacy_label_rows()[:-1], [0.5]],
    "meta_without_n": [{"kind": "meta", "batch": 0}],
}


class TestReadLabels:
    def test_the_malformed_cases_edit_readable_shards(self, dfs):
        """The control for the cases below: unedited, both layouts read."""
        write_records(dfs, "/l/block", [label_block()])
        write_records(dfs, "/l/rows", legacy_label_rows())
        assert read_labels(dfs, "/l/block")[1].tolist() == [0.25, 0.75, 0.25]
        assert read_labels(dfs, "/l/rows")[1].tolist() == [0.0, 0.25, 0.5]
        assert read_labels(dfs, "/l/block")[0] == read_labels(dfs, "/l/rows")[0]

    @pytest.mark.parametrize("case", sorted(MALFORMED_LABEL_SHARDS))
    def test_malformed_shards_are_value_errors(self, dfs, case):
        write_records(dfs, "/l/bad", MALFORMED_LABEL_SHARDS[case])
        with pytest.raises(ValueError):
            read_labels(dfs, "/l/bad")


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

    @pytest.mark.parametrize("field", ["batch", "cursor"])
    @pytest.mark.parametrize("value", [4.5, 4.0, True])
    def test_rejects_non_int_batch_or_cursor(self, dfs, field, value):
        """``int()`` would resume a ``4.5`` cursor at 4 and a ``true``
        one at 1; the manifest is refused instead."""
        manager = CheckpointManager(dfs, "/run")
        state = OnlineLabelModel(ONLINE_CONFIG).state_dict()
        batch, cursor = (value, 128) if field == "batch" else (4, value)
        path = manager.write(4, cursor, state, meta={"batch": batch})
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            manager.load(path)


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
        config = LabelModelConfig()
        model = SamplingFreeLabelModel(config)
        model.fit(L)
        before = model.steps_taken
        clone = SamplingFreeLabelModel(config)
        clone.load_state(model.state_dict())
        assert clone.steps_taken == before > 0
        assert np.array_equal(clone.alpha, model.alpha)
        assert np.array_equal(clone.beta, model.beta)
        # The snapshot carries the fit's (iterations, final loss) pair.
        assert clone.loss_history == model.loss_history == [
            (before, model.loss_history[0][1])
        ]
        assert clone.state_dict() == model.state_dict()
        # A later fit advances from the restored counter.
        clone.fit(L)
        assert clone.steps_taken == 2 * before

    def test_malformed_state_is_rejected_before_restoring(self):
        """A state whose parts disagree in shape, or whose prior or loss
        history is not numbers, is a ``ValueError`` — which a serving
        refresh survives — and restores nothing: not an ``IndexError``
        at the next refit, not a silent refit with pattern rows wider
        than ``n_lfs``, and not a ``TypeError``."""
        L, _ = synthetic_label_matrix(m=300, seed=5)
        source = OnlineLabelModel(ONLINE_CONFIG)
        source.observe(L[:150])
        state = source.state_dict()
        m = L.shape[1]
        rows = decode_ndarray(state["pattern_rows"])
        weights = decode_ndarray(state["pattern_weights"])
        malformed = {
            "short_weights": {"pattern_weights": encode_ndarray(weights[:-1])},
            "wide_rows": {
                "pattern_rows": encode_ndarray(
                    np.hstack([rows, np.zeros((len(rows), 1), rows.dtype)])
                )
            },
            "alpha": {
                "model": {**state["model"], "alpha": encode_ndarray(np.zeros(m + 1))}
            },
            "beta": {
                "model": {**state["model"], "beta": encode_ndarray(np.zeros(m - 1))}
            },
            "prior": {"model": {**state["model"], "prior_logit": [0.0]}},
            "loss": {"model": {**state["model"], "loss_history": 5}},
        }
        target = OnlineLabelModel(ONLINE_CONFIG)
        target.observe(L[150:200])
        before = target.state_dict()
        for name, patch in malformed.items():
            with pytest.raises(ValueError, match="malformed"):
                target.load_state({**state, **patch})
            assert target.state_dict() == before, name
        target.load_state(state)
        assert target.state_dict() == state

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
            straight.agreement_matrix(), resumed.agreement_matrix()
        )
        assert resumed.state_dict() == straight.state_dict()
        assert straight.refit().predict_proba(L).tobytes() == (
            resumed.refit().predict_proba(L).tobytes()
        )

    @pytest.mark.parametrize(
        "path",
        [
            ("n_observed",),
            ("batches_observed",),
            ("refits_done",),
            ("model", "steps_taken"),
        ],
        ids=".".join,
    )
    @pytest.mark.parametrize("value", [4.5, 4.0, True])
    def test_load_state_refuses_non_int_counters(self, path, value):
        """A counter ``int()`` would truncate (or read ``true`` as 1) is
        a ``ValueError`` — which a serving refresh survives — and
        restores nothing."""
        L, _ = synthetic_label_matrix(m=100, seed=8)
        source = OnlineLabelModel(ONLINE_CONFIG)
        source.observe(L)
        state = copy.deepcopy(source.state_dict())
        *parents, key = path
        holder = state
        for parent in parents:
            holder = holder[parent]
        holder[key] = value
        target = OnlineLabelModel(ONLINE_CONFIG)
        target.observe(L[:50])
        before = target.state_dict()
        with pytest.raises(ValueError, match=f"{key} must be an int"):
            target.load_state(state)
        assert target.state_dict() == before

    def test_load_state_refuses_non_int_loss_history_step(self):
        L, _ = synthetic_label_matrix(m=100, seed=8)
        source = OnlineLabelModel(ONLINE_CONFIG)
        source.observe(L)
        source.refit()
        model_state = source.model.state_dict()
        (step, loss), = model_state["loss_history"]
        model_state["loss_history"] = [[step + 0.5, loss]]
        target = SamplingFreeLabelModel(ONLINE_CONFIG.base)
        with pytest.raises(ValueError, match="loss_history step"):
            target.load_state(model_state)
        assert target.alpha is None and target.steps_taken == 0

    @pytest.mark.parametrize("schema", [7, 0, None, "3"])
    def test_load_state_refuses_unknown_schema(self, schema):
        """A snapshot from a newer (or foreign) writer is refused whole,
        not half-read under this reader's layout."""
        L, _ = synthetic_label_matrix(m=100, seed=8)
        source = OnlineLabelModel(ONLINE_CONFIG)
        source.observe(L)
        state = source.state_dict()
        assert state["schema"] == 6 and "rng_state" not in state
        state["schema"] = schema
        target = OnlineLabelModel(ONLINE_CONFIG)
        with pytest.raises(ValueError, match="schema"):
            target.load_state(state)
        assert target.n_observed == 0 and target.n_patterns == 0

    @pytest.mark.parametrize("value", [3.0, 2.5, True, 0, "3"])
    @pytest.mark.parametrize("empty", [False, True], ids=["observed", "empty"])
    def test_load_state_refuses_non_int_n_lfs(self, value, empty):
        """``n_lfs: 3.0`` used to restore and be written back as
        ``3.0`` (the next manifest's bytes then differ from a fresh
        run's), and an empty state took ``n_lfs: 2.5``. Both models'
        ``load_state`` require an ``int`` >= 1 and restore nothing
        otherwise."""
        L, _ = synthetic_label_matrix(m=100, seed=8)
        source = OnlineLabelModel(ONLINE_CONFIG)
        if not empty:
            source.observe(L[:, :3])
        state = copy.deepcopy(source.state_dict())
        state["n_lfs"] = value
        target = OnlineLabelModel(ONLINE_CONFIG)
        with pytest.raises(ValueError, match="n_lfs must be an int >= 1"):
            target.load_state(state)
        assert target.n_lfs is None and target.n_observed == 0
        if empty:
            return
        model_state = {**source.model.state_dict(), "n_lfs": value}
        model = SamplingFreeLabelModel(ONLINE_CONFIG.base)
        with pytest.raises(ValueError, match="n_lfs must be an int >= 1"):
            model.load_state(model_state)
        assert model.alpha is None and model.n_lfs is None

    def test_n_lfs_may_be_none_only_without_parameters(self):
        model_state = SamplingFreeLabelModel(ONLINE_CONFIG.base).state_dict()
        assert model_state["n_lfs"] is None
        SamplingFreeLabelModel(ONLINE_CONFIG.base).load_state(model_state)
        fitted = SamplingFreeLabelModel(ONLINE_CONFIG.base).fit(np.eye(3, dtype=np.int8))
        with pytest.raises(ValueError, match="n_lfs"):
            SamplingFreeLabelModel(ONLINE_CONFIG.base).load_state(
                {**fitted.state_dict(), "n_lfs": None}
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

    def test_validates_construction(self, dfs, lfs):
        with pytest.raises(ValueError, match="checkpoint_every"):
            CheckpointedStream(dfs, lfs, "/r", checkpoint_every=0)


# ----------------------------------------------------------------------
# drift state in manifests
# ----------------------------------------------------------------------
class TestDriftCheckpointing:
    BATCH = 64

    #: Hair-trigger policy: tiny windows and a low threshold so alarms
    #: and reference resets fire *mid-stream* — the crash matrix below
    #: then proves they replay deterministically.
    POLICY = DriftPolicy(
        reference_batches=1,
        recent_batches=1,
        threshold=1.0,
        reactions=("log", "reset_reference"),
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
        reactions: reference resets triggered by the monitor are part of
        the replayed state, so a stream killed after ANY batch still
        converges to byte-identical manifests/shards and the same alarm
        history."""
        from repro.dfs.filesystem import DistributedFileSystem

        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/examples/e", num_shards=3)
        baseline = self._make_runner(dfs, lfs, "/drift-baseline")
        base_report = baseline.run(RecordStreamSource(dfs, shards))
        reference = tree_bytes(dfs, "/drift-baseline")
        # The hair-trigger policy must actually exercise the reactions.
        assert baseline.drift_monitor.alarms > 0
        assert baseline.drift_monitor.reference_resets > 0
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
# manifests from earlier writers (label-model state schemas 1 to 3)
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
    """Transplant a captured durable root, resume it, and run a fresh
    stream over the same corpus beside it.

    The captured manifests come from writers that solved on a cadence
    (and, before schema 6, moved the parameters by SGD in between);
    ``load_state`` solves the restored table whatever the schema, and
    the resumed stream solves every batch. So after the resume point it
    matches a fresh run:

    * every vote shard is byte-identical;
    * each label shard after the resume point is the offline fit of the
      prefix through its own batch, and the fresh run's bytes;
    * each manifest after the resume point is the fresh run's records,
      with ``refits_done`` (which counts the captured writer's solves)
      the only key allowed to differ;
    * both retain the same rows, and their refits are bitwise equal.

    Returns the resumed stream, the fresh one, the resume report, and
    the stream's vote matrix.
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
    L = stream_matrix(dfs, shards, lfs)
    fresh_tree = tree_bytes(dfs, "/fresh")
    resumed_tree = tree_bytes(dfs, captured["root"])
    assert set(resumed_tree) == set(fresh_tree)

    start = report.resumed_from_batch + 1
    assert_labels_are_fits(
        dfs,
        captured["root"],
        L,
        payload["batch_size"],
        online_config.decay,
        range(start, report.last_batch_seq + 1),
    )
    for rel, blob in fresh_tree.items():
        seq = batch_shard_seq(rel)
        if rel.startswith("/votes/") or (rel.startswith("/labels/") and seq >= start):
            assert resumed_tree[rel] == blob, f"divergent bytes at {rel}"
        elif rel.startswith("/checkpoints/") and manifest_seq(rel) >= start:
            assert without_refit_count(decode_records(resumed_tree[rel])) == (
                without_refit_count(decode_records(blob))
            ), f"divergent manifest at {rel}"
    assert np.array_equal(retained_rows(resumed.online), retained_rows(fresh.online))
    assert fresh.online.refit().predict_proba(L).tobytes() == (
        resumed.online.refit().predict_proba(L).tobytes()
    )
    return resumed, fresh, report, L


def manifest_seq(rel):
    """The batch number in a manifest path (``.../ckpt-000003``)."""
    return int(rel.rsplit("-", 1)[1])


def state_without_refit_count(online):
    state = online.state_dict()
    state.pop("refits_done")
    return state


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
        assert same_rows(resumed.online.compressed_votes(), L)


def era_label_model_state(captured):
    """The label-model state a captured root's manifest carries."""
    return next(
        record["state"]
        for path, blob in captured["files"].items()
        if "/checkpoints/" in path
        for record in decode_records(base64.b64decode(blob))
        if record["kind"] == "label_model"
    )


class TestSchema2ManifestCompat:
    """The last row-id-logging writer's roots must resume unchanged.

    ``tests/fixtures/schema2_roots.json`` was captured at the parent of
    the commit that replaced the per-example ``row_ids`` log with
    pattern counts: same corpus and shape as the pre-drift fixture
    (written with ``refit_every=4``, a cadence the reader no longer
    has) — the resumed stream solves from counted row ids, the fresh
    one from native counts, and every later label shard and manifest
    must still match (see :func:`resume_captured_root`). (Its
    ``window`` root was written by a retention mode this reader no
    longer has.)
    """

    @pytest.fixture(scope="class")
    def payload(self):
        with open(FIXTURES / "schema2_roots.json") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("mode", ["cumulative"])
    def test_schema2_root_resumes_byte_identical(
        self, corpus, lfs, payload, mode
    ):
        captured = payload["roots"][mode]
        era_state = era_label_model_state(captured)
        assert era_state["schema"] == 2 and era_state["row_ids"] is not None

        config = ONLINE_CONFIG
        resumed, fresh, report, L = resume_captured_root(
            corpus, lfs, payload, captured, config
        )
        assert report.resumed_from_batch == 1
        assert resumed.online.mode == mode
        assert resumed.online.refits_done > 0
        assert state_without_refit_count(resumed.online) == (
            state_without_refit_count(fresh.online)
        )

        # The retained rows are the stream's, and a refit is their
        # offline fit in any order.
        assert same_rows(resumed.online.compressed_votes(), L)
        shuffled = L[np.random.default_rng(0).permutation(len(L))]
        offline = SamplingFreeLabelModel(config.base).fit(shuffled)
        assert np.array_equal(
            resumed.online.refit().predict_proba(L), offline.predict_proba(L)
        )


class TestSchema3ManifestCompat:
    """The last writer with sliding-window keys must resume unchanged.

    ``tests/fixtures/schema3_roots.json`` was captured at the parent of
    the commit that dropped the seven (null outside window mode)
    window keys from the label-model state: same corpus and shape as
    the schema-2 fixture, one cumulative root and one ``decay=0.9``
    root. The reader ignores the window keys; the resumed stream must
    match a fresh run as :func:`resume_captured_root` sets out.
    """

    @pytest.fixture(scope="class")
    def payload(self):
        with open(FIXTURES / "schema3_roots.json") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_schema3_root_resumes_byte_identical(
        self, corpus, lfs, payload, mode
    ):
        captured = payload["roots"][mode]
        era_state = era_label_model_state(captured)
        assert era_state["schema"] == 3
        assert era_state["window_pattern_lengths"] == []

        config = replace(
            ONLINE_CONFIG,
            decay=captured["decay"],
        )
        resumed, fresh, report, L = resume_captured_root(
            corpus, lfs, payload, captured, config
        )
        assert report.resumed_from_batch == 1
        assert resumed.online.mode == mode
        assert resumed.online.refits_done > 0
        assert state_without_refit_count(resumed.online) == (
            state_without_refit_count(fresh.online)
        )
        if mode == "cumulative":
            assert same_rows(resumed.online.compressed_votes(), L)


class TestSchema4ManifestCompat:
    """The last writer that stored vote moments must resume unchanged.

    ``tests/fixtures/schema4_roots.json`` was captured at the parent of
    the commit that dropped ``vote_sum`` / ``fire_sum`` / ``agreement``
    / ``moment_weight`` from the label-model state: same corpus and
    shape as the schema-3 fixture, one cumulative root and one
    ``decay=0.9`` root. The reader ignores the stored moments (the table
    holds the same information); the resumed stream must match a fresh
    run as :func:`resume_captured_root` sets out.
    """

    @pytest.fixture(scope="class")
    def payload(self):
        with open(FIXTURES / "schema4_roots.json") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_schema4_root_resumes_byte_identical(
        self, corpus, lfs, payload, mode
    ):
        captured = payload["roots"][mode]
        era_state = era_label_model_state(captured)
        assert era_state["schema"] == 4 and "moment_weight" in era_state

        config = replace(
            ONLINE_CONFIG,
            decay=captured["decay"],
        )
        resumed, fresh, report, L = resume_captured_root(
            corpus, lfs, payload, captured, config
        )
        assert report.resumed_from_batch == 1
        assert resumed.online.mode == mode
        assert resumed.online.refits_done > 0
        assert state_without_refit_count(resumed.online) == (
            state_without_refit_count(fresh.online)
        )
        if mode == "cumulative":
            assert same_rows(resumed.online.compressed_votes(), L)

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_stored_moments_match_the_tables(self, payload, mode):
        """What the schema-4 writer stored beside the table is what the
        views now read off it: bitwise in cumulative mode, and up to
        rounding in decay mode (two batches at 0.9 evict nothing)."""
        captured = payload["roots"][mode]
        state = era_label_model_state(captured)
        config = replace(ONLINE_CONFIG, decay=captured["decay"])
        online = OnlineLabelModel(config).load_state(state)
        weight = state["moment_weight"]
        views = {
            "vote_sum": online.mean_votes(),
            "fire_sum": online.fire_rates(),
            "agreement": online.agreement_matrix(),
        }
        check = (
            np.testing.assert_array_equal
            if mode == "cumulative"
            else np.testing.assert_allclose
        )
        check(online.effective_examples, weight)
        for key, view in views.items():
            check(view, decode_ndarray(state[key]) / weight)


class TestSchema5ManifestCompat:
    """The last writer that took SGD steps between solves must resume.

    ``tests/fixtures/schema5_roots.json`` was captured at the parent of
    the commit that removed the online model's SGD steps, its sampler
    and ``rng_state`` from the label-model state: same corpus and shape
    as the schema-4 fixture, one cumulative root and one ``decay=0.9``
    root. Its manifest's alpha / beta are SGD estimates; the reader
    replaces them with a solve of the restored table.
    """

    @pytest.fixture(scope="class")
    def payload(self):
        with open(FIXTURES / "schema5_roots.json") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_schema5_root_resumes(self, corpus, lfs, payload, mode):
        captured = payload["roots"][mode]
        era_state = era_label_model_state(captured)
        assert era_state["schema"] == 5 and "rng_state" in era_state

        config = replace(
            ONLINE_CONFIG,
            decay=captured["decay"],
        )
        resumed, fresh, report, L = resume_captured_root(
            corpus, lfs, payload, captured, config
        )
        assert report.resumed_from_batch == 1
        assert resumed.online.mode == mode
        assert resumed.online.refits_done > 0
        assert state_without_refit_count(resumed.online) == (
            state_without_refit_count(fresh.online)
        )
        assert "rng_state" not in resumed.online.state_dict()

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_stored_sgd_estimates_are_replaced_by_a_solve(self, lfs, payload, mode):
        """A schema-5 state restores as the offline fit of its retained
        rows (its stored alpha is not that fit), without counting a
        refit; so does a schema-6 state: the parameters are a function
        of the table, whatever the state stored."""
        captured = payload["roots"][mode]
        era_state = era_label_model_state(captured)
        config = replace(ONLINE_CONFIG, decay=captured["decay"])
        online = OnlineLabelModel(config).load_state(era_state)
        dfs, shards = stage_captured_root(make_corpus(), payload, captured)
        rows = retained_reference(
            stream_matrix(dfs, shards, lfs),
            payload["batch_size"],
            era_state["batches_observed"],
            captured["decay"],
        )
        offline = SamplingFreeLabelModel(config.base).fit(rows)
        assert np.array_equal(online.model.alpha, offline.alpha)
        assert np.array_equal(online.model.beta, offline.beta)
        assert not np.array_equal(
            decode_ndarray(era_state["model"]["alpha"]), offline.alpha
        )
        assert online.refits_done == era_state["refits_done"] == 0

        current = online.state_dict()
        current["model"]["alpha"] = encode_ndarray(offline.alpha + 0.125)
        restored = OnlineLabelModel(config).load_state(current)
        assert np.array_equal(restored.model.alpha, offline.alpha)
        assert restored.state_dict() == online.state_dict()


#: Every committed fixture root, as ``(fixture, mode)``; ``None`` is the
#: pre-drift fixture's one root.
CAPTURED_ROOTS = [
    ("pre_drift_root", None),
    ("schema2_roots", "cumulative"),
    ("schema2_roots", "window"),
    *((f"schema{k}_roots", mode) for k in (3, 4, 5) for mode in ("cumulative", "decay")),
]


def load_captured_root(fixture, mode):
    """A fixture's payload and the captured root ``mode`` names."""
    with open(FIXTURES / f"{fixture}.json") as handle:
        payload = json.load(handle)
    return payload, payload if mode is None else payload["roots"][mode]


class TestLabelShardFormats:
    """Label shards written before the block layout (one ``{example_id,
    proba}`` row per example after a ``meta`` record) read back through
    the same reader, including in a root resumed across the change."""

    @pytest.mark.parametrize("fixture, mode", CAPTURED_ROOTS)
    def test_row_format_shards_read_as_their_records(self, fixture, mode):
        payload, captured = load_captured_root(fixture, mode)
        dfs, _ = stage_captured_root(make_corpus(), payload, captured)
        paths = dfs.list(f"{captured['root']}/labels/")
        assert len(paths) == payload["fail_after_batch"] + 1
        for path in paths:
            meta, *rows = read_records(dfs, path)
            assert meta["kind"] == "meta" and meta["n"] == len(rows) > 0
            ids, proba = read_labels(dfs, path)
            assert ids == [row["example_id"] for row in rows]
            assert np.array_equal(proba, np.array([row["proba"] for row in rows]))

    @pytest.mark.parametrize(
        "fixture, mode", [root for root in CAPTURED_ROOTS if root[1] != "window"]
    )
    def test_root_resumed_across_the_change_reads_back_whole(
        self, corpus, lfs, fixture, mode
    ):
        """Rows through the resume point, blocks after it, and every
        example of the stream once, in order."""
        payload, captured = load_captured_root(fixture, mode)
        dfs, shards = stage_captured_root(corpus, payload, captured)
        config = replace(
            ONLINE_CONFIG,
            decay=captured.get("decay"),
        )
        root = captured["root"]
        before = {path: read_labels(dfs, path) for path in dfs.list(f"{root}/labels/")}
        report = CheckpointedStream(
            dfs, lfs, root, batch_size=payload["batch_size"],
            online_config=config, checkpoint_every=payload["checkpoint_every"],
        ).run(RecordStreamSource(dfs, shards))
        ids, kinds = [], []
        for path in dfs.list(f"{root}/labels/"):
            shard_ids, proba = read_labels(dfs, path)
            kinds.append(read_records(dfs, path)[0]["kind"])
            if batch_shard_seq(path) <= report.resumed_from_batch:
                assert shard_ids == before[path][0]
                assert proba.tobytes() == before[path][1].tobytes()
            assert len(proba) == len(shard_ids)
            ids += shard_ids
        resumed_from = report.resumed_from_batch
        assert kinds == ["meta"] * (resumed_from + 1) + ["labels"] * (
            report.last_batch_seq - resumed_from
        )
        assert ids == [
            example.example_id for example in RecordStreamSource(dfs, shards)
        ]


# ----------------------------------------------------------------------
# per-batch solves under the durability contracts
# ----------------------------------------------------------------------
class TestCompressedRefitCheckpointing:
    """Per-batch solves must not move a byte of the durable contract.

    Every batch's parameters feed its label shard, so a solve that
    depended on anything but the retained multiset of rows (batching,
    kill point, restore path) would surface as shard bytes, not just as
    a final-posterior gap.
    """

    BATCH = 64

    def _runner(self, dfs, lfs, root):
        return CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=self.BATCH,
            online_config=ONLINE_CONFIG,
            checkpoint_every=2,
        )

    def test_kill_matrix_with_compressed_refits(self, corpus, lfs):
        """Killed after ANY batch, the resumed stream converges to
        byte-identical shards/manifests, and the final refit is bitwise
        the offline fit of the shuffled stream.
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
                f"divergent bytes after kill at batch {kill_after}"
            )

    @pytest.mark.parametrize("decay", [None, 0.9], ids=["cumulative", "decay"])
    def test_every_label_is_the_offline_fit_at_its_last_solve(
        self, corpus, lfs, decay
    ):
        """The stream solves its table on every batch, so its last solve
        is its own: each label shard is, bitwise, the offline fit of the
        rows retained through its batch."""
        from repro.dfs.filesystem import DistributedFileSystem

        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/examples/e", num_shards=3)
        stream = CheckpointedStream(
            dfs,
            lfs,
            "/solves",
            batch_size=self.BATCH,
            online_config=replace(ONLINE_CONFIG, decay=decay),
        )
        report = stream.run(RecordStreamSource(dfs, shards))
        batches = report.batches_finalized
        assert batches > 6
        L = stream_matrix(dfs, shards, lfs)
        assert_labels_are_fits(dfs, "/solves", L, self.BATCH, decay, range(batches))
        assert stream.online.refits_done == batches

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
