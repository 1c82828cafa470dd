"""Batch/per-example equivalence for the vectorized execution engine.

The batched engine is only allowed to be *faster* than the per-example
path, never different: every shipped LF's ``label_batch`` must agree
vote-for-vote with looping ``label``, the fused in-memory applier must
agree with the per-example applier, and the suite's one block-based
MapReduce job must produce byte-identical vote shards to every LF's own
per-record job.

The same contract extends to the streaming subsystem: micro-batching a
dataset through ``MicroBatchPipeline`` must yield a vote-for-vote
identical label matrix, and the online label model must reproduce the
offline ``SamplingFreeLabelModel``'s probabilistic labels exactly after
its final refit.
"""

import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.applications.product import build_product_lfs
from repro.datasets.content import build_content_world
from repro.dfs.filesystem import DistributedFileSystem
from repro.experiments.harness import get_content_experiment
from repro.lf.applier import (
    LFApplier,
    apply_lfs_in_memory,
    fused_lf_columns,
    label_example_block,
    stage_examples,
    start_lf_resources,
    stop_lf_resources,
)
from repro.lf.default import LabelingFunction
from repro.lf.nlp import NLPLabelingFunction, celebrity_example_lf
from repro.lf.registry import LFCategory, LFInfo
from repro.lf.templates import (
    FusedPlan,
    TokenMatchSpec,
    _fast_tokens,
    aggregate_threshold_lf,
    crawler_lf,
    keyword_lf,
    kg_category_lf,
    kg_translation_lf,
    model_score_lf,
    pattern_lf,
    topic_model_lf,
    url_domain_lf,
)
from repro.services.aggregates import AggregateStore
from repro.services.base import ServiceUnavailable
from repro.services.knowledge_graph import KnowledgeGraph
from repro.services.nlp_server import NLPServer, tokenize
from repro.services.topic_model import TopicModel
from repro.services.web_crawler import WebCrawler
from repro.types import Example

# ----------------------------------------------------------------------
# synthetic world
# ----------------------------------------------------------------------
WORDS = [
    "bike", "helmet", "gear", "saddle", "velo", "bicicleta",
    "car", "phone", "charger", "mortgage", "recipe", "pasta",
    "loan", "the", "a", "of", "!!bike!!", "bike.", "(helmet)",
    "mountain bike", "bike-rack", "x", "", "don't", "'tis",
]

URLS = [
    "",
    "https://velo.example/story",
    "https://spam.example/offer",
    "https://other.example/page",
]


def make_kg() -> KnowledgeGraph:
    kg = KnowledgeGraph()
    kg.add_product("bike", "cycling")
    kg.add_product("helmet", "cycling", accessory=True)
    kg.add_product("charger", "phones", accessory=True)
    kg.add_translation("bike", "fr", "velo")
    kg.add_translation("bike", "es", "bicicleta")
    kg.add_translation("helmet", "fr", "casque")
    return kg


def make_topic_model() -> TopicModel:
    return TopicModel(
        {
            "finance": ["mortgage", "loan"],
            "food": ["recipe", "pasta"],
            "cycling": ["bike", "helmet", "saddle"],
            # Overlapping keyword across categories to exercise ties.
            "commerce": ["loan", "charger"],
        }
    )


def make_crawler() -> WebCrawler:
    return WebCrawler(
        {
            "velo.example": ("cycling", 0.9),
            "spam.example": ("gambling", 0.1),
        }
    )


def make_store() -> AggregateStore:
    store = AggregateStore()
    store.start()
    store.load_batch(
        {
            "src1": {"volume": 12.0, "age_days": 3.0},
            "src2": {"volume": 1.0},
        }
    )
    store.stop()
    return store


def build_suite() -> list[LabelingFunction]:
    """One LF per template factory, with awkward configurations."""
    kg = make_kg()
    return [
        keyword_lf("kw_pos", ["bike", "helmet", "mountain bike"], 1),
        keyword_lf("kw_neg", ["mortgage", "recipe"], -1),
        keyword_lf("kw_title", ["bike", "velo"], 1, fields=("title",)),
        # Duplicated surfaces + a multi-word surface exercise min_hits.
        keyword_lf("kw_hits", ["bike", "bike", "helmet", "mountain bike"], 1,
                   min_hits=2),
        url_domain_lf("url_velo", ["velo.example"], 1),
        pattern_lf("pat_long_title", lambda x: len(str(x.fields.get("title", ""))) > 20, -1),
        topic_model_lf("topic_veto", make_topic_model(), ["finance", "food"], -1),
        kg_translation_lf("kg_trans", kg, ["bike", "helmet"], ["fr", "es"], 1),
        kg_category_lf("kg_cat", kg, "cycling", 1),
        model_score_lf("score_hi", "score", 0.5, 1, view="non_servable"),
        model_score_lf("score_lo", "score_s", 0.25, -1, above=False, view="servable"),
        crawler_lf("crawl_cycling", make_crawler(), ["cycling"], 1, min_quality=0.5),
        aggregate_threshold_lf("agg_volume", make_store(), "volume", 10.0, -1),
    ]


texts = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)


@st.composite
def example_lists(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    examples = []
    for i in range(n):
        fields = {
            "title": draw(texts),
            "body": draw(texts),
            "url": draw(st.sampled_from(URLS)),
            "source_id": draw(st.sampled_from(["", "src1", "src2", "nope"])),
        }
        servable = {}
        non_servable = {}
        if draw(st.booleans()):
            servable["score_s"] = draw(
                st.floats(min_value=-1, max_value=2, allow_nan=False)
            )
        if draw(st.booleans()):
            non_servable["score"] = draw(
                st.floats(min_value=-1, max_value=2, allow_nan=False)
            )
        examples.append(
            Example(f"x{i}", fields=fields, servable=servable,
                    non_servable=non_servable)
        )
    return examples


# ----------------------------------------------------------------------
# tokenizer and topic-model kernel equivalence
# ----------------------------------------------------------------------
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=382)))
@settings(max_examples=200, deadline=None)
def test_fast_tokens_matches_tokenize(text):
    assert _fast_tokens(text.lower()) == [t.lower() for t in tokenize(text)]


@given(texts)
@settings(max_examples=100, deadline=None)
def test_topic_batch_api_matches_scalar(text):
    # One veto LF per category: the LF vetoing category c votes iff
    # top_category picks c, so the one-spec plans pin the argmax.
    model = make_topic_model()
    doc = [Example("d", fields={"body": text})]
    with model:
        scalar = model.top_category(text)
        batch = [
            c
            for c in model.categories
            if topic_model_lf(c, model, [c], -1, fields=("body",))
            .label_batch(doc)
            .tolist() == [-1]
        ]
    assert batch == ([] if scalar is None else [scalar])


def test_topic_batch_api_accounting():
    model = make_topic_model()
    with model:
        model.top_category("bike")
        model.record_batch_calls(3)
    assert model.stats.calls == 4
    assert model.stats.virtual_latency_ms == pytest.approx(4 * model.latency_ms)

    # Through a compiled plan, accounting stays per call: one tracked
    # call per document however the documents are split into blocks.
    plan = FusedPlan([topic_model_lf("veto", model, ["finance"], -1).fused_spec])
    docs = [Example(f"d{i}", fields={"body": "mortgage"}) for i in range(7)]
    with model:
        for split in ([7], [1, 6], [3, 2, 2]):
            blocks, at = [], 0
            for size in split:
                blocks.append(plan.apply(docs[at:at + size]))
                at += size
            assert np.vstack(blocks).ravel().tolist() == [-1] * 7
    assert model.stats.calls == 4 + 3 * 7
    # ...and the compiled index is no way around a stopped service.
    with pytest.raises(ServiceUnavailable):
        plan.apply(docs[:1])
    assert model.stats.calls == 4 + 3 * 7


# ----------------------------------------------------------------------
# per-LF label_batch equivalence
# ----------------------------------------------------------------------
@given(example_lists())
@settings(max_examples=25, deadline=None)
def test_every_template_lf_label_batch_matches_label(examples):
    for lf in build_suite():
        try:
            lf.start_resources()
            looped = np.array([lf.label(e) for e in examples], dtype=np.int8)
            batched = lf.label_batch(examples)
        finally:
            lf.stop_resources()
        assert batched.dtype == np.int8
        assert np.array_equal(batched, looped), lf.name


def test_nlp_lf_label_batch_matches_label():
    lf = celebrity_example_lf(lambda: NLPServer({"ada lovelace": "person"}))
    examples = [
        Example("a", fields={"title": "", "body": "market news today"}),
        Example("b", fields={"title": "Ada Lovelace", "body": "profile"}),
        Example("c", fields={"title": "Plain Words here", "body": ""}),
    ]
    looped = [lf.label(e) for e in examples]
    batched = lf.label_batch(examples)
    lf.close_local_service()
    assert np.array_equal(batched, np.array(looped))


# ----------------------------------------------------------------------
# fused in-memory applier equivalence
# ----------------------------------------------------------------------
def one_plan_over_blocks(lfs, examples):
    """The suite's votes from ONE compiled plan, once per block size
    (1, 2, 1,024): the concatenation of ``label_example_block`` over
    consecutive blocks."""
    plan = fused_lf_columns(lfs)
    matrices = []
    start_lf_resources(lfs)
    try:
        for size in (1, 2, 1024):
            blocks = [
                label_example_block(lfs, examples[at:at + size], plan)
                for at in range(0, len(examples), size)
            ]
            matrices.append(
                np.vstack(blocks) if blocks else np.zeros((0, len(lfs)), np.int8)
            )
    finally:
        stop_lf_resources(lfs)
    return matrices


@given(example_lists())
@settings(max_examples=25, deadline=None)
def test_fused_applier_matches_per_example(examples):
    lfs = build_suite()
    batched = apply_lfs_in_memory(lfs, examples, batched=True)
    per_example = apply_lfs_in_memory(lfs, examples, batched=False)
    assert batched.lf_names == per_example.lf_names
    assert batched.example_ids == per_example.example_ids
    assert np.array_equal(batched.matrix, per_example.matrix)
    for matrix in one_plan_over_blocks(lfs, examples):
        assert np.array_equal(matrix, per_example.matrix)


@pytest.mark.parametrize("batch_size", [1, 3, 8192])
def test_in_memory_batch_size_invariant(batch_size):
    lfs = build_suite()
    examples = [
        Example(f"e{i}", fields={"title": WORDS[i % len(WORDS)],
                                 "body": WORDS[(2 * i) % len(WORDS)],
                                 "url": URLS[i % len(URLS)]})
        for i in range(50)
    ]
    reference = apply_lfs_in_memory(lfs, examples, batched=False)
    batched = apply_lfs_in_memory(lfs, examples, batch_size=batch_size)
    assert np.array_equal(batched.matrix, reference.matrix)
    # One plan, reused across every block of every size, still equals
    # what each LF's ``label`` produces alone.
    alone = np.array(
        [[lf.label(example) for lf in lfs] for example in examples], np.int8
    )
    for matrix in one_plan_over_blocks(lfs, examples):
        assert np.array_equal(matrix, alone)


# ----------------------------------------------------------------------
# the fused plan: compiled once per started suite, safe to share
# ----------------------------------------------------------------------
def count_surface_resolutions(lfs) -> Counter:
    """Rewire every token-match spec in ``lfs`` to count, per LF name,
    how often its surfaces are resolved (one resolution per index
    build)."""
    resolved: Counter = Counter()
    for lf in lfs:
        spec = getattr(lf, "fused_spec", None)
        if isinstance(spec, TokenMatchSpec):

            def counted(name=lf.name, inner=spec.get_surfaces):
                resolved[name] += 1
                return inner()

            lf.fused_spec = replace(spec, get_surfaces=counted)
    return resolved


def product_suite_and_examples(n):
    """A fresh product suite (KG- and topic-model-backed, 8/8 fused)
    over the first ``n`` examples of the cached tiny product dataset."""
    exp = get_content_experiment("product", "tiny")
    lfs = build_product_lfs(build_content_world(exp.seed))[0]
    return lfs, exp.dataset.unlabeled[:n]


def test_plan_builds_its_index_once_per_started_suite():
    """A count, not a timing: N blocks through one plan resolve every
    spec's surfaces exactly once (N times before plans existed)."""
    lfs, examples = product_suite_and_examples(12)
    resolved = count_surface_resolutions(lfs)
    token_match = {
        lf.name for lf in lfs if isinstance(lf.fused_spec, TokenMatchSpec)
    }
    assert any("kg_" in name for name in token_match)

    plan = fused_lf_columns(lfs)  # before resources are up, as callers do
    assert not resolved
    assert list(plan) == list(range(len(lfs))) and len(plan) == len(lfs)
    start_lf_resources(lfs)
    try:
        for example in examples:
            label_example_block(lfs, [example], plan)
        assert resolved == dict.fromkeys(token_match, 1)
        # A new started run takes a new plan, which builds again.
        label_example_block(lfs, examples, fused_lf_columns(lfs))
        assert resolved == dict.fromkeys(token_match, 2)
    finally:
        stop_lf_resources(lfs)


def test_uncompiled_plan_shared_by_racing_threads():
    """A caller's threads may share one plan: any number of them may
    hit the first ``apply`` together, and each must see a whole index,
    never a half-built one."""
    lfs, examples = product_suite_and_examples(40)
    expected = apply_lfs_in_memory(lfs, examples).matrix
    threads_n, rounds = 4, 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    start_lf_resources(lfs)
    try:
        for _ in range(rounds):
            plan = fused_lf_columns(lfs)
            barrier = threading.Barrier(threads_n)
            results = [None] * threads_n

            def work(slot):
                barrier.wait(10.0)
                results[slot] = label_example_block(lfs, examples, plan)

            threads = [
                threading.Thread(target=work, args=(slot,), daemon=True)
                for slot in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            for votes in results:
                assert votes is not None and np.array_equal(votes, expected)
    finally:
        sys.setswitchinterval(interval)
        stop_lf_resources(lfs)


# ----------------------------------------------------------------------
# batched MapReduce path: byte-identical vote shards
# ----------------------------------------------------------------------
def _apply_report(examples, lfs, batch_size, dfs=None):
    """The suite job at ``batch_size``; ``None`` is the per-record
    reference, ``LFApplier.apply_per_lf`` (every LF its own binary)."""
    dfs = dfs or DistributedFileSystem()
    paths = stage_examples(dfs, examples, "/eq/examples", num_shards=4)
    if batch_size is None:
        report = LFApplier(dfs, paths, run_root="/eq/run").apply_per_lf(lfs)
    else:
        report = LFApplier(
            dfs, paths, run_root="/eq/run", batch_size=batch_size
        ).apply(lfs)
    shard_bytes = {
        result.lf_name: b"".join(
            dfs.read_file(path) for path in result.output_paths
        )
        for result in report.lf_results
    }
    return report, shard_bytes


def _report_fields(report):
    """Everything an ``ApplyReport`` says except how long it took."""
    label_matrix = report.label_matrix
    return (
        label_matrix.matrix.tolist(),
        label_matrix.example_ids,
        label_matrix.lf_names,
        [replace(result, wall_seconds=0.0) for result in report.lf_results],
    )


#: Example ids that need JSON escaping: a quote, a backslash, a
#: control character, non-ASCII, astral and NUL (an Example refuses a
#: surrogate).
ESCAPED_IDS = ["plain", 'quo"te', "back\\slash", "tab\there", "caf\u00e9", "\U0001f600", "\x00"]


def _suite(app):
    """200 examples and the LFs of ``app``: the product suite (eight
    fused-spec LFs), the topic suite (four, beside six that label
    through ``label_batch``, two of them on an NLP model server), or the
    topic suite cut down to exactly one (``one_fused``) or zero
    (``unfused``) fused-spec LFs. ``escaped_ids`` and ``int_ids`` are a
    few examples with ids that need JSON escaping, or with int ids,
    under one LF that always votes and one that never does."""
    if app in ("escaped_ids", "int_ids"):
        ids = ESCAPED_IDS if app == "escaped_ids" else range(6)
        examples = [Example(eid, fields={"n": i}) for i, eid in enumerate(ids)]
        alternating = LFInfo("alternating", LFCategory.CONTENT_HEURISTIC, True)
        silent = LFInfo("silent", LFCategory.CONTENT_HEURISTIC, True)
        return examples, [
            LabelingFunction(alternating, lambda x: 1 if x.fields["n"] % 2 else -1),
            LabelingFunction(silent, lambda x: 0),
        ]
    exp = get_content_experiment("product" if app == "product" else "topic", "tiny")
    lfs = exp.lfs
    fused = list(fused_lf_columns(lfs))
    drop = {"one_fused": fused[1:], "unfused": fused}.get(app, [])
    lfs = [lf for j, lf in enumerate(lfs) if j not in drop]
    return exp.dataset.unlabeled[:200], lfs


@pytest.mark.parametrize(
    "app", ["product", "topic", "one_fused", "unfused", "escaped_ids", "int_ids"]
)
def test_mapreduce_batched_output_byte_identical(app):
    """The suite job against the per-record reference. ``int_ids`` is a
    regression: the reference's shards held ``{"key": "5"}`` where the
    suite job writes ``{"key": 5}``, so its id join dropped every vote."""
    examples, lfs = _suite(app)
    runs = {
        batch_size: _apply_report(examples, lfs, batch_size)
        for batch_size in (None, 64, 1024)
    }

    per_record, bytes_per_record = runs[None]
    batched, bytes_batched = runs[64]

    assert bytes_batched == bytes_per_record
    assert np.array_equal(
        batched.label_matrix.matrix, per_record.label_matrix.matrix
    )
    for res_a, res_b in zip(per_record.lf_results, batched.lf_results):
        assert res_a.examples_seen == res_b.examples_seen
        assert res_a.votes_emitted == res_b.votes_emitted
        assert res_a.positives == res_b.positives
        assert res_a.negatives == res_b.negatives
        assert res_a.abstains == res_b.abstains

    # Ids, names, every result field and every shard byte, at every
    # block size, against the per-record reference.
    for report, shard_bytes in runs.values():
        assert shard_bytes == bytes_per_record
        assert _report_fields(report) == _report_fields(per_record)
    # An LF that never votes still gets its shards, each one empty.
    for result in batched.lf_results:
        if result.votes_emitted == 0:
            assert len(result.output_paths) == 4
            assert bytes_batched[result.lf_name] == b""


class _CountingDFS(DistributedFileSystem):
    """Totals ``read_at`` bytes per path and appended bytes, and records
    every created path."""

    def __init__(self):
        super().__init__()
        self.read_bytes = Counter()
        self.created = []
        self.appended = 0

    def read_at(self, path, offset, size):
        chunk = super().read_at(path, offset, size)
        self.read_bytes[path] += len(chunk)
        return chunk

    def create(self, path):
        super().create(path)
        self.created.append(path)

    def append(self, path, data):
        super().append(path, data)
        self.appended += len(data)


@pytest.mark.parametrize("app", ["product", "topic"])
def test_apply_moves_each_byte_once(app):
    """A count, not a timing: the suite's one job reads each input shard
    once, no vote shard is read back, and no intermediate file is ever
    created."""
    examples, lfs = _suite(app)
    dfs = _CountingDFS()
    paths = stage_examples(dfs, examples, "/eq/examples", num_shards=4)
    staged_bytes = dfs.appended
    dfs.created.clear()
    report = LFApplier(dfs, paths, run_root="/eq/run", batch_size=64).apply(lfs)

    for path in paths:
        assert dfs.read_bytes[path] == dfs.size(path)
    published = [p for result in report.lf_results for p in result.output_paths]
    assert len(published) == len(lfs) * len(paths)
    for path in published:
        assert dfs.read_bytes[path] == 0

    assert sorted(dfs.created) == sorted(published)
    assert dfs.appended - staged_bytes == sum(dfs.size(p) for p in published)
    assert dfs.staged_paths() == []


def test_suite_job_retried_task_contributes_once(monkeypatch):
    """A suite map task that dies after its first block (the topic model
    fails once) and is retried yields exactly the clean run: same
    matrix, ids, shard bytes and counts, nothing left staged."""
    examples, lfs = _suite("product")
    clean, clean_bytes = _apply_report(examples, lfs, 16)

    topic_model = next(
        resource for lf in lfs for resource in lf.resources
        if isinstance(resource, TopicModel)
    )
    record_batch_calls = topic_model.record_batch_calls
    calls = []

    def fail_on_second_block(n):
        calls.append(n)
        if len(calls) == 2:
            raise ServiceUnavailable("topic model hiccup")
        record_batch_calls(n)

    monkeypatch.setattr(topic_model, "record_batch_calls", fail_on_second_block)
    dfs = DistributedFileSystem()
    retried, retried_bytes = _apply_report(examples, lfs, 16, dfs)

    # 4 shards x 4 blocks of <= 16, plus the failed block and the redone one.
    assert len(calls) == 16 + 2
    assert retried_bytes == clean_bytes
    assert _report_fields(retried) == _report_fields(clean)
    assert dfs.staged_paths() == []


@pytest.mark.parametrize("batch_size", [64, None])
def test_apply_starts_one_server_per_nlp_lf(monkeypatch, batch_size):
    """The suite job labels through each NLP LF's one local server,
    started before the job; the per-record reference brings each LF's
    server up once for that LF's own job. Either way every server is
    started once and stopped, on the caller's thread."""
    examples, lfs = _suite("topic")
    servers = Counter()
    created = []
    builders = []
    for lf in lfs:
        if isinstance(lf, NLPLabelingFunction):
            def counting_factory(factory=lf._server_factory, name=lf.name):
                server = factory()
                servers[name] += 1
                created.append(server)
                builders.append(threading.current_thread())
                return server

            monkeypatch.setattr(lf, "_server_factory", counting_factory)

    _apply_report(examples, lfs, batch_size)

    nlp_names = [lf.name for lf in lfs if isinstance(lf, NLPLabelingFunction)]
    assert len(nlp_names) == 2
    assert servers == Counter({name: 1 for name in nlp_names})
    assert [server.stats.starts for server in created] == [1, 1]
    assert not any(server.running for server in created)
    assert all(lf._local_service is None for lf in lfs)
    assert builders == [threading.current_thread()] * 2


# ----------------------------------------------------------------------
# streaming path: micro-batched labeling must equal the offline applier
# ----------------------------------------------------------------------
@given(example_lists(), st.integers(min_value=1, max_value=17))
@settings(max_examples=15, deadline=None)
def test_streaming_pipeline_matches_offline(examples, micro_batch):
    from repro.streaming import MemorySource, MicroBatchPipeline

    lfs = build_suite()
    offline = apply_lfs_in_memory(lfs, examples, batched=False)
    pipeline = MicroBatchPipeline(
        lfs, batch_size=micro_batch, collect_votes=True
    )
    report = pipeline.run(MemorySource(examples))
    assert report.label_matrix.example_ids == offline.example_ids
    assert report.label_matrix.lf_names == offline.lf_names
    assert np.array_equal(report.label_matrix.matrix, offline.matrix)
    assert report.peak_resident_records <= 2 * micro_batch


def test_streaming_records_match_offline_and_label_model():
    """The full stream: DFS shards -> pipeline -> online label model.

    Votes must be identical to the offline applier (id-aligned; shards
    are round-robin staged) and the online model's post-refit posteriors
    must match an offline fit on the same stream to 1e-6.
    """
    from repro.core.online_label_model import (
        OnlineLabelModel,
        OnlineLabelModelConfig,
    )
    from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
    from repro.streaming import MicroBatchPipeline, RecordStreamSource

    exp = get_content_experiment("product", "tiny")
    examples = exp.dataset.unlabeled[:400]
    lfs = exp.lfs
    offline = apply_lfs_in_memory(lfs, examples)

    dfs = DistributedFileSystem()
    paths = stage_examples(dfs, examples, "/stream_eq/examples", num_shards=4)
    config = LabelModelConfig(seed=0)
    online = OnlineLabelModel(OnlineLabelModelConfig(base=config))
    pipeline = MicroBatchPipeline(
        lfs,
        batch_size=64,
        on_batch=lambda _seq, _batch, votes: online.observe(votes),
        collect_votes=True,
    )
    report = pipeline.run(RecordStreamSource(dfs, paths))

    streamed = report.label_matrix
    aligned = offline.select_examples(streamed.example_ids)
    assert np.array_equal(streamed.matrix, aligned.matrix)

    final = online.model
    reference = SamplingFreeLabelModel(config).fit(streamed.matrix)
    np.testing.assert_allclose(
        final.predict_proba(streamed.matrix),
        reference.predict_proba(streamed.matrix),
        atol=1e-6,
    )


# ----------------------------------------------------------------------
# validation on the batched path
# ----------------------------------------------------------------------
def test_label_batch_rejects_invalid_votes():
    info = LFInfo("bad", LFCategory.CONTENT_HEURISTIC, True)
    lf = LabelingFunction(
        info, lambda x: 7, batch_fn=lambda xs: np.full(len(xs), 7)
    )
    with pytest.raises(ValueError, match="invalid vote"):
        lf.label_batch([Example("a")])


def test_label_batch_rejects_wrong_shape():
    info = LFInfo("short", LFCategory.CONTENT_HEURISTIC, True)
    lf = LabelingFunction(
        info, lambda x: 0, batch_fn=lambda xs: np.zeros(len(xs) + 1)
    )
    with pytest.raises(ValueError, match="shape"):
        lf.label_batch([Example("a"), Example("b")])


def test_batched_run_rejects_invalid_votes(dfs):
    from repro.mapreduce.runner import WorkerFailure

    info = LFInfo("bad_run", LFCategory.CONTENT_HEURISTIC, True)
    lf = LabelingFunction(
        info, lambda x: 7, batch_fn=lambda xs: np.full(len(xs), 7)
    )
    examples = [Example(f"x{i}") for i in range(4)]
    paths = stage_examples(dfs, examples, "/bad/e", num_shards=1)
    applier = LFApplier(dfs, paths, run_root="/bad/run", batch_size=2)
    with pytest.raises(WorkerFailure):
        applier.apply([lf])
