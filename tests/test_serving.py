"""Tests for the low-latency label-serving tier.

Covers the checkpoint-backed registry (empty-root degradation, first
deploy, idempotent refresh, unreadable manifests, legacy pre-drift
manifests), the micro-batching server (batches formed from load with
the clock frozen, leadership handed from caller to caller, admission
control and its deadline, a raising batch failing alone, timeouts,
lifecycle), and the headline guarantees: a
manifest appearing mid-request hot-swaps in without dropping traffic, a
swap under concurrent load never produces a torn read, and every served
posterior is bitwise equal to an offline fit of the served snapshot's
stream prefix — including for a stream that was killed mid-run.
"""

import copy
import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import (
    RecordCorruption,
    decode_ndarray,
    encode_ndarray,
    encode_record,
    iter_record_blobs,
    read_records,
)
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.serving import (
    CheckpointModelRegistry,
    LabelServer,
    ServeConfig,
    ServeTimeout,
)
from repro.streaming import (
    CheckpointedStream,
    RecordStreamSource,
    SimulatedCrash,
)
from repro.types import Example

from tests.conftest import same_rows
from tests.test_batch_equivalence import count_surface_resolutions
from tests.test_checkpoint import (
    ONLINE_CONFIG,
    era_label_model_state,
    make_corpus,
    make_lfs,
    stage_captured_root,
    stream_matrix,
)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.fixture(scope="module")
def lfs():
    return make_lfs()


@pytest.fixture(scope="module")
def checkpointed(corpus, lfs):
    """A checkpoint-per-batch stream over the corpus, plus its offline
    reference: the vote matrix in *stream* order and an id -> row map."""
    dfs = DistributedFileSystem()
    shards = stage_examples(dfs, corpus, "/t/examples", num_shards=3)
    stream = CheckpointedStream(
        dfs,
        lfs,
        "/t/stream",
        batch_size=50,
        online_config=ONLINE_CONFIG,
        checkpoint_every=1,
        write_labels=False,
    )
    stream.run(RecordStreamSource(dfs, shards))
    decoded = [
        Example.from_record(record)
        for record in iter_record_blobs(dfs, shards)
    ]
    L = apply_lfs_in_memory(lfs, decoded)
    return {
        "dfs": dfs,
        "stream": stream,
        "manifests": stream.manager.manifest_paths(),
        "decoded": decoded,
        "matrix": L.matrix,
        "row_of": {ex.example_id: i for i, ex in enumerate(decoded)},
    }


def offline_posteriors(ctx, manifest_path):
    """Offline fit of the snapshot's stream prefix, scoring all rows."""
    checkpoint = ctx["stream"].manager.load(manifest_path)
    model = SamplingFreeLabelModel(
        LabelModelConfig(seed=0)
    )
    model.fit(ctx["matrix"][: checkpoint.cursor])
    return model.predict_proba(ctx["matrix"])


def table_split(matrix, cursor):
    """Stream rows whose vote pattern the first ``cursor`` rows contain
    (hits in that prefix's pattern table) and the rest (misses)."""
    known = {row.tobytes() for row in matrix[:cursor]}
    hits = [i for i, row in enumerate(matrix) if row.tobytes() in known]
    return hits, sorted(set(range(len(matrix))) - set(hits))


def deploy(dfs, manifest_path, live_root):
    """Copy a manifest into a serving root (a release)."""
    name = manifest_path.rsplit("/", 1)[1]
    dfs.write_file(
        f"{live_root}/checkpoints/{name}", dfs.read_file(manifest_path)
    )


def make_registry(dfs, root):
    return CheckpointModelRegistry(dfs, root, online_config=ONLINE_CONFIG)


def unreadable_manifests(dfs, good_path):
    """Manifest blobs no reader can deploy: torn framing, a meta record
    without its cursor, a label-model record without its state, two
    label-model states whose parts disagree in shape (one pattern weight
    too few; pattern rows one column wider than ``n_lfs``), and
    well-framed records of the wrong shape — a state that is a list or
    a string, one without its model or its pattern rows, a model that
    is a list, pattern rows that are an int, pattern weights that are
    not an encoded array or name an unknown dtype or hold a weight that
    is negative, NaN or infinite, a negative counter, a model whose
    ``steps_taken`` is negative or whose prior is NaN, a record whose
    kind is a list, and ``lf_names`` that are an int."""
    meta, label_model, *rest = read_records(dfs, good_path)
    no_cursor = {k: v for k, v in meta.items() if k != "cursor"}
    stateless = {"kind": label_model["kind"]}
    state = label_model["state"]
    weights = decode_ndarray(state["pattern_weights"])
    rows = decode_ndarray(state["pattern_rows"])
    encoded = state["pattern_weights"]

    def without(key, record=state):
        return {k: v for k, v in record.items() if k != key}

    bad_states = [
        {**state, "pattern_weights": encode_ndarray(weights[:-1])},
        {
            **state,
            "pattern_rows": encode_ndarray(
                np.hstack([rows, np.zeros((len(rows), 1), rows.dtype)])
            ),
        },
        [1],
        "state",
        without("model"),
        {**state, "model": [1]},
        without("pattern_rows"),
        {**state, "pattern_rows": 5},
        {**state, "pattern_weights": without("__ndarray__", encoded)},
        {**state, "pattern_weights": {**encoded, "dtype": "no-such-dtype"}},
        *(
            {
                **state,
                "pattern_weights": encode_ndarray(
                    np.concatenate([weights[:-1], [value]])
                ),
            }
            for value in (-1.0, np.nan, np.inf)
        ),
        {**state, "n_observed": -1},
        {**state, "model": {**state["model"], "steps_taken": -3}},
        {**state, "model": {**state["model"], "prior_logit": float("nan")}},
    ]

    def manifest(*records):
        return b"".join(map(encode_record, [*records, *rest]))

    return [
        b"torn bytes",
        manifest(no_cursor, label_model),
        manifest(meta, stateless),
        *(manifest(meta, {**label_model, "state": bad}) for bad in bad_states),
        manifest(meta, label_model, {"kind": ["drift"], "state": {}}),
        manifest({**meta, "lf_names": 5}, label_model),
    ]


def wait_until(condition, failure, deadline_s=10.0):
    """Poll ``condition`` until it holds; fail with ``failure`` if the
    deadline passes first."""
    deadline = time.perf_counter() + deadline_s
    while not condition():
        assert time.perf_counter() < deadline, failure
        time.sleep(0.002)


def predict_until(server, example, done, failure):
    """Request ``example`` until ``done(result)`` holds and return that
    result. A server deploys on its requests, not on a thread of its
    own, so a test waits for a deploy (or a counted refresh error) by
    asking; it fails with ``failure`` if the deadline passes first."""
    answers = []

    def answered():
        answers.append(server.predict(example))
        return done(answers[-1])

    wait_until(answered, failure)
    return answers[-1]


def requests_admitted(server):
    return server.counters.as_dict().get("serving/requests", 0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.max_batch == 256
        assert config.timeout_ms == 5000.0
        assert config.max_pending == 1024
        assert config.poll_ms == 25.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_batch": 0},
            {"max_pending": 0},
            {"timeout_ms": 0.0},
            {"poll_ms": 0.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_batch": 2.5},
            {"max_pending": 2.5},
            {"max_batch": True},
            {"max_pending": True},
            {"max_batch": "4"},
            {"timeout_ms": float("nan")},
            {"timeout_ms": float("inf")},
            {"poll_ms": float("nan")},
            {"poll_ms": float("inf")},
            {"timeout_ms": -1.0},
        ],
    )
    def test_values_that_break_serving_are_refused(self, bad):
        """A fractional batch cap, a ``bool`` count, a NaN or infinite
        deadline or poll interval: each would wedge or fail every later
        request, so none gets past the constructor."""
        with pytest.raises(ValueError):
            ServeConfig(**bad)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 0.0, -5.0]
    )
    def test_per_call_timeout_is_checked(self, checkpointed, lfs, bad):
        """The per-call deadline gets the config's check, before the
        request is admitted."""
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/srv/bad-timeout")
        with LabelServer(registry, lfs) as server:
            with pytest.raises(ValueError, match="timeout_ms"):
                server.predict(checkpointed["decoded"][0], timeout_ms=bad)
            assert server.predict(checkpointed["decoded"][0]).degraded
        counters = server.counters.as_dict()
        assert counters["serving/requests"] == 1
        assert "serving/timeouts" not in counters

    def test_constructor_defaults_to_serve_config(self):
        registry = make_registry(DistributedFileSystem(), "/cfg/live")
        assert LabelServer(registry, make_lfs()).config == ServeConfig()

    def test_server_requires_lfs(self):
        registry = make_registry(DistributedFileSystem(), "/cfg/live")
        with pytest.raises(ValueError, match="labeling function"):
            LabelServer(registry, [])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestCheckpointModelRegistry:
    def test_empty_root(self, checkpointed):
        registry = make_registry(checkpointed["dfs"], "/reg/empty")
        assert registry.refresh() is None
        assert registry.active() is None
        assert registry.generation == 0
        assert registry.counters.as_dict() == {}
        assert registry.abstain_prior() == 0.5

    def test_first_deploy_and_idempotent_refresh(self, checkpointed):
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/reg/one")
        deploy(dfs, checkpointed["manifests"][0], "/reg/one")
        first = registry.refresh()
        assert first is not None and first.generation == 1
        assert first.batch == 0
        assert first.cursor == 50
        assert first.lf_names == tuple(lf.name for lf in make_lfs())
        # Same newest manifest -> same generation object, no counters.
        again = registry.refresh()
        assert again is first
        counters = registry.counters.as_dict()
        assert counters["serving/swaps"] == 1
        assert registry.generation == 1

    def test_newer_manifest_swaps(self, checkpointed):
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/reg/two")
        deploy(dfs, checkpointed["manifests"][0], "/reg/two")
        first = registry.refresh()
        deploy(dfs, checkpointed["manifests"][-1], "/reg/two")
        second = registry.refresh()
        assert second.generation == 2
        assert second.cursor > first.cursor
        counters = registry.counters.as_dict()
        assert counters["serving/swaps"] == 2
        assert registry.generation == 2
        # The old generation object is untouched (immutable snapshot).
        assert first.generation == 1

    def test_unreadable_manifest_keeps_active(self, checkpointed):
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/reg/bad")
        deploy(dfs, checkpointed["manifests"][0], "/reg/bad")
        good = registry.refresh()
        # A torn newest manifest must raise, not half-deploy.
        dfs.write_file(
            registry.manager.manifest_path(99), b"definitely not a manifest"
        )
        with pytest.raises(RecordCorruption):
            registry.refresh()
        assert registry.active() is good
        assert registry.counters.as_dict()["serving/swaps"] == 1

    def test_newer_state_schema_keeps_active(self, checkpointed):
        """A well-formed manifest whose label-model state comes from a
        newer writer raises ``ValueError`` (which the server counts as
        ``serving/refresh_errors``) instead of deploying a
        misread model."""
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/reg/newer")
        deploy(dfs, checkpointed["manifests"][0], "/reg/newer")
        good = registry.refresh()
        checkpoint = registry.manager.load(checkpointed["manifests"][1])
        registry.manager.write(
            99,
            checkpoint.cursor,
            {**checkpoint.label_model_state, "schema": 7},
            meta=checkpoint.meta,
        )
        with pytest.raises(ValueError, match="schema"):
            registry.refresh()
        assert registry.active() is good
        assert registry.counters.as_dict()["serving/swaps"] == 1

    @pytest.mark.parametrize("cursor", [4.5, True])
    def test_non_int_cursor_keeps_active(self, checkpointed, cursor):
        """A manifest whose cursor ``int()`` would truncate is refused
        with ``ValueError`` (a ``serving/refresh_errors`` tick), not
        deployed with a table split at the wrong row."""
        dfs = checkpointed["dfs"]
        root = f"/reg/cursor-{cursor}"
        registry = make_registry(dfs, root)
        deploy(dfs, checkpointed["manifests"][0], root)
        good = registry.refresh()
        checkpoint = registry.manager.load(checkpointed["manifests"][1])
        registry.manager.write(
            99, cursor, checkpoint.label_model_state, meta=checkpoint.meta
        )
        with pytest.raises(ValueError, match="cursor must be an int"):
            registry.refresh()
        assert registry.active() is good
        assert registry.counters.as_dict()["serving/swaps"] == 1

    def test_watcher_survives_torn_manifest(self, checkpointed, lfs):
        """A request that finds an unreadable newest manifest counts it
        and is still answered by the active generation."""
        dfs = checkpointed["dfs"]
        good = checkpointed["manifests"][0]
        example = checkpointed["decoded"][0]
        for case, blob in enumerate(unreadable_manifests(dfs, good)):
            root = f"/reg/watchbad{case}"
            registry = make_registry(dfs, root)
            deploy(dfs, good, root)
            config = ServeConfig(poll_ms=2.0)
            with LabelServer(registry, lfs, config) as server:
                dfs.write_file(registry.manager.manifest_path(99), blob)
                predict_until(
                    server,
                    example,
                    lambda _: "serving/refresh_errors" in server.counters.as_dict(),
                    f"case {case} was never counted",
                )
                # Still serving generation 1 despite the torn deploy.
                result = server.predict(example)
                assert result.generation == 1 and not result.degraded

    def test_start_survives_torn_manifest(self, checkpointed, lfs):
        """The first, synchronous refresh is no different from a
        request's: a torn newest manifest is counted, the server comes
        up degraded, and a later request deploys the next readable one."""
        dfs = checkpointed["dfs"]
        blobs = unreadable_manifests(dfs, checkpointed["manifests"][0])
        for case, blob in enumerate(blobs):
            root = f"/reg/startbad{case}"
            registry = make_registry(dfs, root)
            dfs.write_file(registry.manager.manifest_path(0), blob)
            config = ServeConfig(poll_ms=2.0)
            with LabelServer(registry, lfs, config) as server:
                counters = server.counters.as_dict()
                assert counters["serving/refresh_errors"] >= 1, case
                assert server.predict(checkpointed["decoded"][0]).degraded
                deploy(dfs, checkpointed["manifests"][1], root)
                predict_until(
                    server,
                    checkpointed["decoded"][0],
                    lambda result: not result.degraded,
                    f"case {case}: generation 1 never answered",
                )

    def test_generation_posteriors_match_offline_fit(self, checkpointed):
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/reg/exact")
        mid = checkpointed["manifests"][3]
        deploy(dfs, mid, "/reg/exact")
        generation = registry.refresh()
        expected = offline_posteriors(checkpointed, mid)
        matrix = checkpointed["matrix"]
        served = generation.label_model.predict_proba(matrix)
        assert np.array_equal(served, expected)
        # The generation's own scoring: by now every pattern of the
        # corpus is in its table, and a table read is the same bits.
        scored, misses = generation.score(matrix)
        assert misses == 0 and np.array_equal(scored, expected)
        assert len(generation.posteriors) == len(np.unique(matrix, axis=0))

    def test_table_hits_and_misses_match_offline_fit(self, checkpointed):
        """The first manifest's 50-row prefix lacks one vote pattern:
        rows answered from the table, rows sent down the padded path,
        and any mix of the two are bitwise the prefix's offline fit."""
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/reg/table")
        first = checkpointed["manifests"][0]
        deploy(dfs, first, "/reg/table")
        generation = registry.refresh()
        expected = offline_posteriors(checkpointed, first)
        matrix = checkpointed["matrix"]
        hits, missing = table_split(matrix, generation.cursor)
        assert hits and missing
        for rows in (hits[:1], missing[:1], hits, missing, range(len(matrix))):
            rows = list(rows)
            scored, misses = generation.score(matrix[rows])
            assert scored == expected[rows].tolist()
            assert misses == len(set(rows) & set(missing))
        # Read-only: nothing on the request path can grow the table.
        with pytest.raises(TypeError):
            generation.posteriors[matrix[missing[0]].tobytes()] = 0.5

    @pytest.mark.parametrize(
        "retention, batch", [({"decay": 0.3}, 5)], ids=["decay"]
    )
    def test_forgetful_snapshot_serves_what_it_retains(
        self, corpus, lfs, retention, batch
    ):
        """A decay-mode snapshot builds its table from
        whatever ``compressed_votes()`` retains — here one pattern fewer
        than the corpus has — and serves table and padded rows alike."""
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/forget/examples", num_shards=3)
        config = replace(ONLINE_CONFIG, **retention)
        stream = CheckpointedStream(
            dfs,
            lfs,
            "/forget/stream",
            batch_size=50,
            online_config=config,
            checkpoint_every=1,
            write_labels=False,
        )
        stream.run(RecordStreamSource(dfs, shards))
        deploy(dfs, stream.manager.manifest_paths()[batch], "/forget/live")
        generation = CheckpointModelRegistry(
            dfs, "/forget/live", online_config=config
        ).refresh()
        assert generation.batch == batch

        snapshot = stream.manager.load(generation.manifest_path)
        retained = (
            OnlineLabelModel(config)
            .load_state(snapshot.label_model_state)
            .compressed_votes()
        )
        matrix = stream_matrix(dfs, shards, lfs)
        assert retained.n_patterns == len(np.unique(matrix, axis=0)) - 1
        assert set(generation.posteriors) == {
            row.astype(np.int8).tobytes() for row in retained.patterns
        }
        scored, misses = generation.score(matrix)
        assert scored == generation.label_model.predict_proba(matrix).tolist()
        assert misses == sum(
            row.tobytes() not in generation.posteriors for row in matrix
        )
        assert 0 < misses < len(matrix)


class TestPreDriftManifestServing:
    """A manifest from any earlier writer is still a deployable."""

    FIXTURES = Path(__file__).parent / "fixtures"

    def _serve_captured(self, lfs, payload, captured, online_config):
        """Deploy a captured root; return its generation and the
        stream's vote matrix."""
        dfs, shards = stage_captured_root(make_corpus(), payload, captured)
        registry = CheckpointModelRegistry(
            dfs, captured["root"], online_config=online_config
        )
        generation = registry.refresh()
        assert generation is not None and generation.generation == 1
        assert generation.lf_names == tuple(lf.name for lf in lfs)

        return generation, stream_matrix(dfs, shards, lfs)

    def test_legacy_manifest_serves(self, lfs):
        with open(self.FIXTURES / "pre_drift_root.json") as handle:
            payload = json.load(handle)
        generation, matrix = self._serve_captured(
            lfs, payload, payload, ONLINE_CONFIG
        )
        offline = SamplingFreeLabelModel(
            LabelModelConfig(seed=0)
        )
        offline.fit(matrix[: generation.cursor])
        assert np.array_equal(
            generation.label_model.predict_proba(matrix),
            offline.predict_proba(matrix),
        )
        self._assert_table_serves(generation, matrix, offline)

    def _assert_serves_fit_of(self, generation, matrix, retained, config):
        """The generation serves the offline fit of ``retained`` in any
        row order, through its model and its table alike."""
        shuffled = retained[
            np.random.default_rng(0).permutation(len(retained))
        ]
        offline = SamplingFreeLabelModel(config.base).fit(shuffled)
        assert np.array_equal(
            generation.label_model.predict_proba(matrix),
            offline.predict_proba(matrix),
        )
        self._assert_table_serves(generation, matrix, offline)

    @staticmethod
    def _assert_table_serves(generation, matrix, offline):
        """The table holds the snapshot's retained patterns and scoring
        through it is the offline fit, bit for bit."""
        _, missing = table_split(matrix, generation.cursor)
        assert len(generation.posteriors) == len(
            np.unique(matrix[: generation.cursor], axis=0)
        )
        scored, misses = generation.score(matrix)
        assert misses == len(missing)
        assert scored == offline.predict_proba(matrix).tolist()

    @pytest.mark.parametrize("mode", ["cumulative"])
    def test_schema2_manifest_serves(self, lfs, mode):
        """The last row-id-logging writer's manifests (see
        ``TestSchema2ManifestCompat``) serve the offline fit of the rows
        they retained: the whole prefix."""
        with open(self.FIXTURES / "schema2_roots.json") as handle:
            payload = json.load(handle)
        captured = payload["roots"][mode]
        generation, matrix = self._serve_captured(
            lfs, payload, captured, ONLINE_CONFIG
        )
        self._assert_serves_fit_of(
            generation, matrix, matrix[: generation.cursor], ONLINE_CONFIG
        )

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_schema3_manifest_serves(self, lfs, mode):
        """The last writer with sliding-window keys (see
        ``TestSchema3ManifestCompat``) serves the offline fit of the
        rows its manifest retained: the whole prefix, or its decayed
        weights rounded to row counts."""
        with open(self.FIXTURES / "schema3_roots.json") as handle:
            payload = json.load(handle)
        captured = payload["roots"][mode]
        config = replace(ONLINE_CONFIG, decay=captured["decay"])
        generation, matrix = self._serve_captured(
            lfs, payload, captured, config
        )
        votes = (
            OnlineLabelModel(config)
            .load_state(era_label_model_state(captured))
            .compressed_votes()
        )
        if mode == "cumulative":
            assert same_rows(votes, matrix[: generation.cursor])
        # Two batches at decay 0.9 evict nothing: the table still holds
        # every pattern of the prefix.
        self._assert_serves_fit_of(generation, matrix, votes.expand(), config)

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_schema4_manifest_serves(self, lfs, mode):
        """The last writer that stored vote moments beside the table
        (see ``TestSchema4ManifestCompat``) serves the offline fit of
        the rows its table retained."""
        with open(self.FIXTURES / "schema4_roots.json") as handle:
            payload = json.load(handle)
        captured = payload["roots"][mode]
        config = replace(ONLINE_CONFIG, decay=captured["decay"])
        generation, matrix = self._serve_captured(
            lfs, payload, captured, config
        )
        votes = (
            OnlineLabelModel(config)
            .load_state(era_label_model_state(captured))
            .compressed_votes()
        )
        if mode == "cumulative":
            assert same_rows(votes, matrix[: generation.cursor])
        self._assert_serves_fit_of(generation, matrix, votes.expand(), config)

    @pytest.mark.parametrize("mode", ["cumulative", "decay"])
    def test_schema5_manifest_serves(self, lfs, mode):
        """The last writer that stored SGD estimates and a sampler state
        (see ``TestSchema5ManifestCompat``) serves the offline fit of
        the rows its table retained."""
        with open(self.FIXTURES / "schema5_roots.json") as handle:
            payload = json.load(handle)
        captured = payload["roots"][mode]
        assert "rng_state" in era_label_model_state(captured)
        config = replace(ONLINE_CONFIG, decay=captured["decay"])
        generation, matrix = self._serve_captured(
            lfs, payload, captured, config
        )
        votes = (
            OnlineLabelModel(config)
            .load_state(era_label_model_state(captured))
            .compressed_votes()
        )
        if mode == "cumulative":
            assert same_rows(votes, matrix[: generation.cursor])
        self._assert_serves_fit_of(generation, matrix, votes.expand(), config)


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------
class TestDegradedServing:
    def test_empty_root_serves_prior(self, checkpointed, lfs):
        registry = make_registry(checkpointed["dfs"], "/srv/empty")
        with LabelServer(registry, lfs) as server:
            results = [
                server.predict(checkpointed["decoded"][i]) for i in range(5)
            ]
        for result in results:
            assert result.degraded
            assert result.generation is None
            assert result.posterior == 0.5
            assert result.fired == 0
        counters = server.counters.as_dict()
        assert counters["serving/degraded"] == 5
        assert counters["serving/requests"] == 5

    def test_manifest_appearing_mid_request_hot_swaps(
        self, checkpointed, lfs
    ):
        dfs = checkpointed["dfs"]
        root = "/srv/midstream"
        registry = make_registry(dfs, root)
        mid = checkpointed["manifests"][3]
        expected = offline_posteriors(checkpointed, mid)
        config = ServeConfig(poll_ms=2.0)
        with LabelServer(registry, lfs, config) as server:
            degraded = server.predict(checkpointed["decoded"][0])
            assert degraded.degraded and degraded.posterior == 0.5
            deploy(dfs, mid, root)
            predict_until(
                server,
                checkpointed["decoded"][0],
                lambda result: result.generation == 1,
                "generation 1 never answered",
            )
            # Sequential single-example requests: each is its own
            # micro-batch, and must still be bitwise offline-exact.
            for i in range(10):
                example = checkpointed["decoded"][i]
                result = server.predict(example)
                assert not result.degraded
                assert result.generation == 1
                assert (
                    result.posterior
                    == expected[checkpointed["row_of"][example.example_id]]
                )
                assert result.latency_ms >= 0.0
        assert server.report()["counters"]["serving/swaps"] == 1


class TestHotSwapUnderLoad:
    def test_no_torn_reads_across_mid_load_swap(self, checkpointed, lfs):
        dfs = checkpointed["dfs"]
        root = "/srv/hammer"
        registry = make_registry(dfs, root)
        mid, final = checkpointed["manifests"][2], checkpointed["manifests"][-1]
        expected = {
            1: offline_posteriors(checkpointed, mid),
            2: offline_posteriors(checkpointed, final),
        }
        deploy(dfs, mid, root)

        clients, per_client = 4, 150
        swap_at = clients * per_client // 2
        issued = [0]
        issued_lock = threading.Lock()
        barrier = threading.Barrier(clients)
        collected = [[] for _ in range(clients)]
        config = ServeConfig(poll_ms=2.0)
        server = LabelServer(registry, lfs, config)

        def hammer(c):
            # At least per_client requests, then on until generation 2
            # answers: the load outlasts the deploy however fast it is.
            barrier.wait()
            for i in range(100 * per_client):
                example = checkpointed["decoded"][
                    (c * per_client + i) % len(checkpointed["decoded"])
                ]
                result = server.predict(example)
                with issued_lock:
                    issued[0] += 1
                    if issued[0] == swap_at:
                        deploy(dfs, final, root)
                collected[c].append((example.example_id, result))
                if i + 1 >= per_client and result.generation == 2:
                    break

        with server:
            assert registry.generation == 1  # start() deploys it
            threads = [
                threading.Thread(target=hammer, args=(c,))
                for c in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            report = server.report()

        served = {1: 0, 2: 0}
        for example_id, result in (
            entry for part in collected for entry in part
        ):
            assert not result.degraded
            served[result.generation] += 1
            # The torn-read check: the posterior must match the offline
            # fit of exactly the generation the result claims served it.
            assert (
                result.posterior
                == expected[result.generation][
                    checkpointed["row_of"][example_id]
                ]
            )
        assert served[1] > 0 and served[2] > 0, served
        counters = report["counters"]
        assert counters["serving/swaps"] == 2
        assert counters["serving/requests"] == issued[0]
        assert issued[0] >= clients * per_client
        assert report["active_generation"] == 2
        assert report["pending"] == 0


    def test_captured_generation_answers_from_its_own_table(
        self, checkpointed
    ):
        """A batch that captured generation 1 is still answered from
        generation 1's table after generation 2 activates mid-batch: the
        row generation 1 never saw is a miss (generation 2 holds it),
        and both posteriors are generation 1's."""
        dfs = checkpointed["dfs"]
        root = "/srv/captured"
        registry = make_registry(dfs, root)
        first, final = checkpointed["manifests"][0], checkpointed["manifests"][-1]
        expected = offline_posteriors(checkpointed, first)
        newer = offline_posteriors(checkpointed, final)
        hits, missing = table_split(checkpointed["matrix"], 50)
        # A hit the two generations score differently. Every miss votes
        # only through LFs that both fits hold at the accuracy cap, so
        # the two agree on it: whose model scores it tells them apart.
        hit = next(row for row in hits[2:] if expected[row] != newer[row])
        rows = [hit, missing[0]]
        deploy(dfs, first, root)

        # Park the batch between capturing its generation and scoring:
        # inside the one unfused LF's kernel.
        lfs = make_lfs()
        inner = lfs[2].label_batch
        labelling, swapped = threading.Event(), threading.Event()

        def label_batch(block):
            if len(block) == len(rows):
                labelling.set()
                assert swapped.wait(10.0), "generation 2 never deployed"
            return inner(block)

        lfs[2].label_batch = label_batch
        server = LabelServer(registry, lfs, ServeConfig(timeout_ms=10_000.0))
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        server.start()
        first_model = registry.active().label_model
        first_scoring, first_proba = [], first_model.predict_proba
        first_model.predict_proba = lambda block: (
            first_scoring.append(block.copy()) or first_proba(block)
        )
        try:
            callers = [predict_in_thread(server, examples[hits[1]])]
            assert held.wait(10.0)
            for admitted, row in enumerate(rows, start=2):
                callers.append(predict_in_thread(server, examples[row]))
                wait_until(
                    lambda: requests_admitted(server) == admitted,
                    "request was never admitted",
                )
            release.set()
            assert labelling.wait(10.0), "the pair was not scored as one batch"
            deploy(dfs, final, root)
            second = registry.refresh()
            assert second.generation == 2
            assert (
                checkpointed["matrix"][missing[0]].tobytes() in second.posteriors
            )
            swapped.set()
            for thread, _ in callers:
                thread.join(10.0)
                assert not thread.is_alive()
            after = server.predict(examples[missing[0]])
        finally:
            swapped.set()
            server.stop()
        for (_, outcome), row in zip(callers[1:], rows):
            assert outcome[0].generation == 1
            assert outcome[0].posterior == expected[row]
        assert after.generation == 2 and after.posterior == newer[missing[0]]
        assert server.counters.as_dict()["serving/table_misses"] == 1
        [block] = first_scoring
        assert np.array_equal(block[0], checkpointed["matrix"][missing[0]])


def hold_batches(server, count):
    """Stall seam: park each of the server's first ``count``
    micro-batches inside ``_score_batch`` until its ``release`` event is
    set (its ``held`` event says it is parked); returns the ``(held,
    release)`` pairs in batch order. Later batches pass straight through."""
    gates = [(threading.Event(), threading.Event()) for _ in range(count)]
    upcoming = iter(gates)
    inner = server._score_batch

    def gated(batch):
        held, release = next(upcoming, (None, None))
        if held is not None:
            held.set()
            assert release.wait(10.0), "held batch was never released"
        inner(batch)

    server._score_batch = gated
    return gates


def hold_first_batch(server):
    """:func:`hold_batches` for one batch: its ``(held, release)``."""
    return hold_batches(server, 1)[0]


def queue_behind(server, examples, **kwargs):
    """One :func:`predict_in_thread` per example, each admitted before
    the next starts, so queue order is call order; returns the
    ``(thread, outcome)`` pairs."""
    callers = []
    for example in examples:
        admitted = requests_admitted(server) + 1
        callers.append(predict_in_thread(server, example, **kwargs))
        wait_until(
            lambda: requests_admitted(server) == admitted,
            "request was never admitted",
        )
    return callers


def predict_in_thread(server, example, **kwargs):
    """Run one ``predict`` on a daemon thread; returns the thread and a
    one-slot list that receives its result or the exception it raised."""
    outcome = []

    def call():
        try:
            outcome.append(server.predict(example, **kwargs))
        except Exception as error:
            outcome.append(error)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread, outcome


class TestMicroBatchingAndAdmission:
    """A batch is whatever queued while the previous one was being
    scored — a function of load, never of time."""

    @pytest.fixture(autouse=True)
    def clock(self, monkeypatch):
        """Freeze (and count reads of) the server's clock: a leader
        that still waited on a timer would never flush."""
        import repro.serving.service as service_module

        from tests.test_obs import _CountingTime

        clock = _CountingTime()
        monkeypatch.setattr(service_module, "time", clock)
        return clock

    def _queue_behind_a_held_batch(
        self, checkpointed, lfs, queued, max_batch
    ):
        dfs = checkpointed["dfs"]
        root = f"/srv/coalesce{max_batch}"
        registry = make_registry(dfs, root)
        deploy(dfs, checkpointed["manifests"][0], root)
        config = ServeConfig(max_batch=max_batch, timeout_ms=10_000.0)
        server = LabelServer(registry, lfs, config)
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        with server:
            callers = [predict_in_thread(server, examples[0])]
            assert held.wait(10.0), "a lone request was not flushed at once"
            callers += [
                predict_in_thread(server, examples[1 + i])
                for i in range(queued)
            ]
            wait_until(
                lambda: requests_admitted(server) == queued + 1,
                "requests never queued behind the held batch",
            )
            release.set()
            for thread, _ in callers:
                thread.join(10.0)
        for (thread, outcome), example in zip(callers, examples):
            assert not thread.is_alive()
            assert outcome[0].example_id == example.example_id
            assert outcome[0].generation == 1
        report = server.report()
        counters = report["counters"]
        assert counters["serving/requests"] == queued + 1
        # The held batch, then everything behind it in max_batch slices.
        assert counters["serving/batches"] == 1 + -(-queued // max_batch)
        assert report["peak_pending"] == queued + 1
        assert report["pending"] == 0

    def test_concurrent_requests_coalesce(self, checkpointed, lfs):
        """Requests queued behind a held batch are scored as one."""
        self._queue_behind_a_held_batch(checkpointed, lfs, 8, max_batch=64)

    def test_queue_past_max_batch_is_sliced(self, checkpointed, lfs):
        self._queue_behind_a_held_batch(checkpointed, lfs, 10, max_batch=4)

    def test_solo_requests_are_their_own_batches(self, checkpointed, lfs):
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/srv/solo")
        deploy(dfs, checkpointed["manifests"][0], "/srv/solo")
        with LabelServer(
            registry, lfs, ServeConfig(timeout_ms=2000.0)
        ) as server:
            for example in checkpointed["decoded"][:10]:
                assert server.predict(example).generation == 1
        counters = server.counters.as_dict()
        assert counters["serving/requests"] == 10
        assert counters["serving/batches"] == 10

    def test_two_clock_reads_per_request(self, checkpointed, lfs, clock):
        """The submit stamp and the latency read are the only clock
        reads on the request path; forming a batch takes none."""
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/srv/clock")
        deploy(dfs, checkpointed["manifests"][0], "/srv/clock")
        with LabelServer(
            registry, lfs, ServeConfig(timeout_ms=2000.0)
        ) as server:
            for example in checkpointed["decoded"][:10]:
                server.predict(example)
        assert clock.reads == 2 * 10

    def _one_permit_server(self, checkpointed, lfs, root):
        """An unstarted ``max_pending=1`` server over one deployed
        generation."""
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, root)
        deploy(dfs, checkpointed["manifests"][0], root)
        return LabelServer(registry, lfs, ServeConfig(max_pending=1))

    def test_admission_control_counts_backpressure(self, checkpointed, lfs):
        server = self._one_permit_server(
            checkpointed, lfs, "/srv/backpressure"
        )
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        with server:
            first, _ = predict_in_thread(server, examples[0])
            assert held.wait(10.0)
            # The one permit is out: the second submitter waits, counted,
            # and is not admitted until the held batch resolves.
            second, answer = predict_in_thread(server, examples[1])
            wait_until(
                lambda: "serving/backpressure_waits"
                in server.counters.as_dict(),
                "second submitter never hit the admission bound",
            )
            assert requests_admitted(server) == 1
            release.set()
            first.join(10.0)
            second.join(10.0)
        assert answer[0].generation == 1
        report = server.report()
        assert report["peak_pending"] == 1
        assert report["counters"]["serving/backpressure_waits"] == 1
        assert report["counters"]["serving/requests"] == 2

    def test_deadline_covers_admission(self, checkpointed, lfs):
        """A caller stuck behind the admission bound times out on its own
        deadline, holding no permit and leaving nothing queued."""
        server = self._one_permit_server(
            checkpointed, lfs, "/srv/admission-deadline"
        )
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        with server:
            first, answer = predict_in_thread(server, examples[0])
            assert held.wait(10.0)
            try:
                second, refused = predict_in_thread(
                    server, examples[1], timeout_ms=20
                )
                second.join(2.0)
                assert not second.is_alive(), "predict outlived its deadline"
            finally:
                release.set()
            first.join(10.0)
            assert isinstance(refused[0], ServeTimeout)
            assert answer[0].generation == 1
            # The refused caller took no permit with it: still one.
            assert server.predict(examples[2]).generation == 1
        report = server.report()
        assert report["counters"]["serving/timeouts"] == 1
        assert report["counters"]["serving/backpressure_waits"] == 1
        assert report["counters"]["serving/requests"] == 2
        assert report["peak_pending"] == 1 and report["pending"] == 0

    def test_admission_wait_is_spent_from_the_deadline(
        self, checkpointed, lfs, clock
    ):
        """One budget, two waits: a caller whose budget ran out waiting
        for a permit does not get the budget again for the result. It
        times out at admission: nothing is queued, and the permit it got
        goes straight back."""
        server = self._one_permit_server(
            checkpointed, lfs, "/srv/one-budget"
        )
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        with server:
            first, answer = predict_in_thread(
                server, examples[0], timeout_ms=600_000
            )
            assert held.wait(10.0)
            second, late = predict_in_thread(
                server, examples[1], timeout_ms=60_000
            )
            wait_until(
                lambda: "serving/backpressure_waits"
                in server.counters.as_dict(),
                "second submitter never hit the admission bound",
            )
            # Two minutes pass on the server's clock while it waits.
            clock.perf_counter = lambda: 120.0
            release.set()
            second.join(2.0)
            assert not second.is_alive(), "the budget was spent twice"
            first.join(10.0)
        assert isinstance(late[0], ServeTimeout)
        assert answer[0].generation == 1
        report = server.report()
        assert report["counters"]["serving/timeouts"] == 1
        assert report["counters"]["serving/requests"] == 1
        assert report["counters"]["serving/batches"] == 1
        assert report["pending"] == 0
        assert server._permits.acquire(blocking=False), "the permit leaked"


class TestBatchErrors:
    def test_raising_batch_fails_alone_and_serving_continues(
        self, checkpointed
    ):
        dfs = checkpointed["dfs"]
        root = "/srv/poisoned"
        registry = make_registry(dfs, root)
        deploy(dfs, checkpointed["manifests"][0], root)
        examples = checkpointed["decoded"]
        poisoned = examples[3].example_id
        lfs = make_lfs()
        inner = lfs[2].label_batch

        def label_batch(block):
            if any(example.example_id == poisoned for example in block):
                raise ValueError("poisoned example")
            return inner(block)

        lfs[2].label_batch = label_batch
        with LabelServer(
            registry, lfs, ServeConfig(timeout_ms=2000.0)
        ) as server:
            with pytest.raises(ValueError, match="poisoned example"):
                server.predict(examples[3])
            # Same generation, next request served.
            result = server.predict(examples[0])
            assert result.generation == 1 and not result.degraded
        report = server.report()
        assert report["pending"] == 0
        assert report["counters"]["serving/batch_errors"] == 1
        assert report["counters"]["serving/requests"] == 2
        assert report["counters"]["serving/batches"] == 1
        assert "serving/timeouts" not in report["counters"]

    def test_raising_batch_fails_its_callers_and_hands_on(self, checkpointed):
        """One request per batch: a promoted follower whose own batch
        raises gets the error alone, and the next queued request leads."""
        dfs = checkpointed["dfs"]
        root = "/srv/poisoned-follower"
        registry = make_registry(dfs, root)
        deploy(dfs, checkpointed["manifests"][0], root)
        examples = checkpointed["decoded"]
        order = [examples[0], examples[3], examples[1], examples[2]]
        lfs = make_lfs()
        inner = lfs[2].label_batch

        def label_batch(block):
            if any(example is examples[3] for example in block):
                raise ValueError("poisoned example")
            return inner(block)

        lfs[2].label_batch = label_batch
        config = ServeConfig(max_batch=1, timeout_ms=10_000.0)
        server = LabelServer(registry, lfs, config)
        held, release = hold_first_batch(server)
        with server:
            callers = [predict_in_thread(server, order[0])]
            assert held.wait(10.0)
            callers += queue_behind(server, order[1:])
            queued = list(server._queue)
            release.set()
            for thread, _ in callers:
                thread.join(10.0)
                assert not thread.is_alive()
        outcomes = [outcome[0] for _, outcome in callers]
        assert isinstance(outcomes[1], ValueError)
        for outcome, example in zip(outcomes, order):
            if outcome is not outcomes[1]:
                assert outcome.example_id == example.example_id
                assert outcome.generation == 1
        assert [pending.leads for pending in queued] == [True] * 3
        report = server.report()
        assert report["pending"] == 0
        assert report["counters"]["serving/batch_errors"] == 1
        assert report["counters"]["serving/requests"] == 4
        assert report["counters"]["serving/batches"] == 3


class TestLeaderFollower:
    """Batches are scored on the callers' threads: the caller that finds
    no batch in progress leads, and when its own result is in it hands
    leadership to the oldest queued caller still waiting."""

    @staticmethod
    def _server(checkpointed, lfs, root, **config):
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, root)
        deploy(dfs, checkpointed["manifests"][0], root)
        config = ServeConfig(timeout_ms=10_000.0, **config)
        return LabelServer(registry, lfs, config)

    def test_many_clients_each_answered_bitwise(self, checkpointed, lfs):
        """Eight closed-loop clients on a short switch interval, so
        leadership changes hands mid-batch often; every answer is its
        own example's offline posterior, bit for bit, whoever led its
        batch, and no request is lost or answered twice."""
        dfs = checkpointed["dfs"]
        root = "/srv/many-clients"
        registry = make_registry(dfs, root)
        manifest = checkpointed["manifests"][-1]
        deploy(dfs, manifest, root)
        expected = offline_posteriors(checkpointed, manifest)
        examples = checkpointed["decoded"]
        clients, per_client = 8, 120
        barrier = threading.Barrier(clients)
        answers = [[] for _ in range(clients)]
        server = LabelServer(
            registry, lfs, ServeConfig(max_batch=16, timeout_ms=30_000.0)
        )

        def client(c):
            barrier.wait()
            for i in range(per_client):
                example = examples[(7 * c + i) % len(examples)]
                answers[c].append((example, server.predict(example)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [
                    threading.Thread(target=client, args=(c,))
                    for c in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [len(part) for part in answers] == [per_client] * clients
        for example, result in (entry for part in answers for entry in part):
            assert result.example_id == example.example_id
            assert result.generation == 1
            assert (
                result.posterior
                == expected[checkpointed["row_of"][example.example_id]]
            )
        report = server.report()
        counters = report["counters"]
        assert counters["serving/requests"] == clients * per_client
        assert counters["serving/batches"] <= clients * per_client
        assert "serving/timeouts" not in counters
        assert report["pending"] == 0

    @pytest.mark.parametrize("successor", [True, False])
    def test_timed_out_follower_is_never_promoted(
        self, checkpointed, lfs, successor
    ):
        """A follower whose deadline passes while queued gives up
        without leading. The leader skips it when handing on (or, with
        nobody waiting, scores it itself), and its permit comes back."""
        server = self._server(checkpointed, lfs, f"/srv/gave-up-{successor}")
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        with server:
            leader = predict_in_thread(server, examples[0])
            assert held.wait(10.0)
            [(quitter, gave_up)] = queue_behind(
                server, examples[1:2], timeout_ms=30
            )
            quitter.join(5.0)
            assert isinstance(gave_up[0], ServeTimeout)
            followers = queue_behind(server, examples[2:3] if successor else [])
            queued = list(server._queue)
            release.set()
            for thread, _ in [leader, *followers]:
                thread.join(10.0)
                assert not thread.is_alive()
        assert not queued[0].waiting and not queued[0].leads
        assert queued[0].outcome.generation == 1
        assert [pending.leads for pending in queued[1:]] == [True] * successor
        for _, outcome in [leader, *followers]:
            assert outcome[0].generation == 1
        report = server.report()
        counters = report["counters"]
        assert counters["serving/timeouts"] == 1
        assert counters["serving/requests"] == 2 + successor
        # The held batch, then everything queued behind it as one.
        assert counters["serving/batches"] == 2
        assert report["pending"] == 0

    def test_stop_resolves_every_queued_follower(self, checkpointed, lfs):
        """``stop()`` refuses new callers at once, then waits while the
        leaders resolve every follower already queued."""
        server = self._server(checkpointed, lfs, "/srv/stop-drains", max_batch=2)
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        server.start()
        callers = [predict_in_thread(server, examples[0])]
        assert held.wait(10.0)
        callers += queue_behind(server, examples[1:6])
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        wait_until(server._stopped.is_set, "stop never began")
        with pytest.raises(RuntimeError, match="not running"):
            server.predict(examples[6])
        assert stopper.is_alive(), "stop returned with followers queued"
        release.set()
        stopper.join(10.0)
        assert not stopper.is_alive()
        for (thread, outcome), example in zip(callers, examples):
            thread.join(10.0)
            assert outcome[0].example_id == example.example_id
            assert outcome[0].generation == 1
        report = server.report()
        assert report["pending"] == 0
        assert report["counters"]["serving/requests"] == 6
        # The held batch, then the five followers in max_batch slices.
        assert report["counters"]["serving/batches"] == 1 + 3

    def test_start_spawns_no_thread(self, checkpointed, lfs):
        """The server owns no thread: neither starting it nor serving a
        request starts one."""
        server = self._server(checkpointed, lfs, "/srv/threads")
        before = set(threading.enumerate())
        server.start()
        try:
            assert set(threading.enumerate()) - before == set()
            assert server.predict(checkpointed["decoded"][0]).generation == 1
            assert set(threading.enumerate()) - before == set()
        finally:
            server.stop()


class TestRefreshOnTheRequestPath:
    """The server deploys on its requests: a leader lists the root for a
    newer manifest before it scores a batch whose oldest request was
    submitted ``poll_ms`` or more after the last check."""

    @staticmethod
    def _server(checkpointed, lfs, root, **config):
        """A ``poll_ms=2`` server over the first manifest, and a
        one-slot count of its registry's root listings."""
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, root)
        deploy(dfs, checkpointed["manifests"][0], root)
        listings = [0]
        latest_path = registry.manager.latest_path

        def counted():
            listings[0] += 1
            return latest_path()

        registry.manager.latest_path = counted
        config = ServeConfig(poll_ms=2.0, timeout_ms=10_000.0, **config)
        return LabelServer(registry, lfs, config), listings

    @pytest.fixture
    def clock(self, monkeypatch):
        """Freeze the server's clock at 0.0 (tests move it by hand)."""
        import repro.serving.service as service_module

        from tests.test_obs import _CountingTime

        clock = _CountingTime()
        monkeypatch.setattr(service_module, "time", clock)
        return clock

    def test_idle_server_does_not_list_its_root(self, checkpointed, lfs):
        """Across 25 intervals without a request the root is never
        listed, so a release waits there; the next request deploys it."""
        root = "/srv/idle"
        server, listings = self._server(checkpointed, lfs, root)
        final = checkpointed["manifests"][-1]
        with server:
            assert listings == [1]  # start()'s own refresh
            deploy(checkpointed["dfs"], final, root)
            time.sleep(25 * server.config.poll_ms / 1e3)
            assert listings == [1]
            assert server.registry.generation == 1
            result = server.predict(checkpointed["decoded"][0])
        assert listings == [2]
        assert result.generation == 2

    def test_burst_inside_one_interval_lists_once(
        self, checkpointed, lfs, clock
    ):
        """Batches led one after another and a queue coalesced behind a
        held batch, all submitted inside one interval: one listing."""
        server, listings = self._server(checkpointed, lfs, "/srv/burst")
        held, release = hold_first_batch(server)
        examples = checkpointed["decoded"]
        with server:
            listings[0] = 0
            callers = [predict_in_thread(server, examples[0])]
            assert held.wait(10.0)
            callers += queue_behind(server, examples[1:6])
            release.set()
            for thread, _ in callers:
                thread.join(10.0)
                assert not thread.is_alive()
            for example in examples[6:12]:
                assert server.predict(example).generation == 1
        assert listings == [1]
        assert [outcome[0].generation for _, outcome in callers] == [1] * 6
        assert server.counters.as_dict()["serving/batches"] == 2 + 6

    def test_first_request_after_the_interval_serves_the_deploy(
        self, checkpointed, lfs, clock
    ):
        """A release is not seen inside the interval of the last check;
        the first request submitted once ``poll_ms`` has passed deploys
        it, and it and every later answer are bitwise the offline fit
        of the new snapshot's prefix."""
        root = "/srv/interval"
        server, listings = self._server(checkpointed, lfs, root)
        final = checkpointed["manifests"][-1]
        expected = offline_posteriors(checkpointed, final)
        examples = checkpointed["decoded"][:20]
        with server:
            assert server.predict(examples[0]).generation == 1
            deploy(checkpointed["dfs"], final, root)
            assert server.predict(examples[1]).generation == 1
            clock.perf_counter = lambda: server.config.poll_ms / 1e3
            results = [server.predict(example) for example in examples]
        assert listings == [3]  # start(), then one check per interval
        assert [result.generation for result in results] == [2] * len(examples)
        for example, result in zip(examples, results):
            row = checkpointed["row_of"][example.example_id]
            assert result.posterior == expected[row]


class TestTimeoutsAndLifecycle:
    def test_timeout_raises_and_counts(self, checkpointed, lfs):
        registry = make_registry(checkpointed["dfs"], "/srv/slow")
        server = LabelServer(registry, lfs)
        inner = server._score_batch

        def stalled(batch):
            time.sleep(0.2)
            inner(batch)

        server._score_batch = stalled
        with server:
            with pytest.raises(ServeTimeout):
                server.predict(checkpointed["decoded"][0], timeout_ms=20)
        assert server.counters.as_dict()["serving/timeouts"] == 1

    def test_predict_requires_running_server(self, checkpointed, lfs):
        registry = make_registry(checkpointed["dfs"], "/srv/lifecycle")
        server = LabelServer(registry, lfs)
        with pytest.raises(RuntimeError):
            server.predict(checkpointed["decoded"][0])
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
        server.stop()
        server.stop()  # idempotent
        with pytest.raises(RuntimeError):
            server.predict(checkpointed["decoded"][0])

    def test_stop_during_admission_refuses_the_request(
        self, checkpointed, lfs
    ):
        """A ``stop()`` that lands after ``predict`` passed its running
        check but before it enqueued must not strand the request in a
        queue no leader serves: the caller gets ``RuntimeError`` at
        once, and its permit and residency come back."""
        registry = make_registry(checkpointed["dfs"], "/srv/stop-race")
        server = LabelServer(registry, lfs, ServeConfig(max_pending=2))
        permits = server._permits

        class StopWhileAdmitting:
            def acquire(self, *args, **kwargs):
                server.stop()
                return permits.acquire(*args, **kwargs)

            def release(self):
                permits.release()

        server.start()
        server._permits = StopWhileAdmitting()
        with pytest.raises(RuntimeError, match="not running"):
            server.predict(checkpointed["decoded"][0], timeout_ms=300)
        report = server.report()
        assert report["pending"] == 0
        assert "serving/timeouts" not in report["counters"]
        assert "serving/requests" not in report["counters"]
        assert permits.acquire(blocking=False)
        assert permits.acquire(blocking=False), "the refused permit leaked"


    def test_plan_is_compiled_once_per_started_run(self, checkpointed):
        """The server takes its fused plan in ``start()``: N requests
        build the LF index once (N times before plans existed), and a
        stop/start cycle — new resources — builds it once more."""
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/srv/plan")
        deploy(dfs, checkpointed["manifests"][0], "/srv/plan")
        lfs = make_lfs()
        resolved = count_surface_resolutions(lfs)
        server = LabelServer(registry, lfs)
        for run in (1, 2):
            assert sum(resolved.values()) == 2 * (run - 1)
            with server:
                for example in checkpointed["decoded"][:5]:
                    assert server.predict(example).generation == 1
            assert resolved == {"kw_sports": run, "kw_cooking": run}

    def test_served_predict_leaves_the_example_as_it_was(
        self, checkpointed, lfs
    ):
        dfs = checkpointed["dfs"]
        registry = make_registry(dfs, "/srv/untouched")
        deploy(dfs, checkpointed["manifests"][0], "/srv/untouched")
        examples = [
            Example.from_record(e.to_record())
            for e in checkpointed["decoded"][:5]
        ]
        before = [copy.deepcopy(vars(e)) for e in examples]
        with LabelServer(registry, lfs) as server:
            for example in examples:
                assert server.predict(example).generation == 1
        assert [vars(e) for e in examples] == before


# ---------------------------------------------------------------------------
# end to end: crash-interrupted stream -> served bitwise
# ---------------------------------------------------------------------------
class TestCrashedStreamServesExactly:
    @staticmethod
    def _crash_after(corpus, lfs, batch):
        """Kill a checkpoint-per-batch stream after ``batch``; returns
        the filesystem holding its durable root, the decoded stream, its
        vote matrix and an id -> row map."""
        dfs = DistributedFileSystem()
        shards = stage_examples(dfs, corpus, "/e2e/examples", num_shards=3)
        stream = CheckpointedStream(
            dfs,
            lfs,
            "/e2e/stream",
            batch_size=50,
            online_config=ONLINE_CONFIG,
            checkpoint_every=1,
            write_labels=False,
        )
        with pytest.raises(SimulatedCrash):
            stream.run(RecordStreamSource(dfs, shards), fail_after_batch=batch)

        decoded = [
            Example.from_record(record)
            for record in iter_record_blobs(dfs, shards)
        ]
        matrix = apply_lfs_in_memory(lfs, decoded).matrix
        row_of = {ex.example_id: i for i, ex in enumerate(decoded)}
        return dfs, decoded, matrix, row_of

    @staticmethod
    def _offline(matrix, generation):
        offline = SamplingFreeLabelModel(LabelModelConfig(seed=0))
        offline.fit(matrix[: generation.cursor])
        return offline.predict_proba(matrix)

    def test_mid_run_checkpoint_served_bitwise(self, corpus, lfs):
        dfs, decoded, matrix, row_of = self._crash_after(corpus, lfs, 4)

        # The kill left a durable root; serve straight from it.
        registry = make_registry(dfs, "/e2e/stream")
        with LabelServer(registry, lfs) as server:
            generation = registry.active()
            assert generation is not None and generation.batch == 4
            expected = self._offline(matrix, generation)
            for example in decoded[:25]:
                result = server.predict(example)
                assert result.generation == 1
                assert (
                    result.posterior == expected[row_of[example.example_id]]
                )

    def test_first_checkpoint_serves_hits_misses_and_mixed_batches(
        self, corpus, lfs
    ):
        """Killed after its first batch, the stream's snapshot lacks one
        vote pattern: a table hit, a padded-path miss and a held batch
        mixing both are each the 50-row prefix's offline fit, bitwise
        and in request order, and the misses are counted exactly."""
        dfs, decoded, matrix, _ = self._crash_after(corpus, lfs, 0)
        registry = make_registry(dfs, "/e2e/stream")
        server = LabelServer(registry, lfs, ServeConfig(timeout_ms=10_000.0))
        with server:
            generation = registry.active()
            assert generation is not None and generation.cursor == 50
            expected = self._offline(matrix, generation)
            hits, missing = table_split(matrix, generation.cursor)

            def misses_counted():
                return server.counters.as_dict().get("serving/table_misses", 0)

            assert server.predict(decoded[hits[0]]).posterior == expected[hits[0]]
            assert misses_counted() == 0
            assert (
                server.predict(decoded[missing[0]]).posterior
                == expected[missing[0]]
            )
            assert misses_counted() == 1

            held, release = hold_first_batch(server)
            admitted = requests_admitted(server)
            rows = [hits[1], missing[1], hits[2], missing[0], missing[2], hits[3]]
            callers = []
            for row in [hits[0], *rows]:
                callers.append(predict_in_thread(server, decoded[row]))
                admitted += 1
                # Admitted one by one: request order is queue order.
                wait_until(
                    lambda: requests_admitted(server) == admitted,
                    "request was never admitted",
                )
                assert held.wait(10.0)
            batches = server.counters.as_dict()["serving/batches"]
            release.set()
            for thread, _ in callers:
                thread.join(10.0)
                assert not thread.is_alive()
            for (_, outcome), row in zip(callers[1:], rows):
                assert outcome[0].example_id == decoded[row].example_id
                assert outcome[0].posterior == expected[row]
        counters = server.counters.as_dict()
        # The held request alone, then the six behind it as one batch.
        assert counters["serving/batches"] == batches + 2
        assert counters["serving/table_misses"] == 1 + 3
