"""Tests for the synthetic dataset generators."""

import hashlib
import json

import numpy as np
import pytest

from repro.config import TINY_SCALE
from repro.datasets import vocab
from repro.datasets.content import generate_topic_dataset
from repro.datasets.events import (
    AGGREGATE_STATS,
    N_GRAPH_VIEWS,
    N_MODEL_VARIANTS,
    N_OFFLINE_MODELS,
    SERVABLE_SIGNALS,
    _build_world,
)
from repro.services.nlp_server import tokenize


class TestVocab:
    def test_translate_form(self):
        assert vocab.translate("helmet", "de") == "helmet#de"

    def test_translate_unknown_language(self):
        with pytest.raises(ValueError):
            vocab.translate("helmet", "xx")

    def test_ten_languages(self):
        assert len(vocab.LANGUAGES) == 10  # Section 3.2

    def test_translated_form_survives_tokenizer(self):
        assert tokenize("buy helmet#de now") == ["buy", "helmet#de", "now"]

    def test_synonyms_disjoint_from_lf_keywords(self):
        assert not set(vocab.CELEB_SYNONYMS) & set(vocab.CELEB_KEYWORDS)

    def test_novel_products_disjoint_from_known(self):
        known = set(vocab.BIKE_PRODUCTS) | set(vocab.BIKE_ACCESSORIES)
        assert not set(vocab.NOVEL_BIKE_PRODUCTS) & known

    def test_domains_have_profiles(self):
        for domain, (category, quality) in vocab.DOMAINS.items():
            assert domain.endswith(".example")
            assert 0.0 <= quality <= 1.0
            assert category


class TestContentWorld:
    def test_lexicon_covers_entities(self, content_world):
        lexicon = content_world.nlp_lexicon
        assert lexicon[vocab.CELEBRITIES[0].lower()] == "person"
        assert lexicon[vocab.POLITICIANS[0].lower()] == "person"
        assert lexicon[vocab.ORGANIZATIONS[0].lower()] == "organization"
        assert lexicon["bicycle"] == "product"

    def test_kg_has_translations_for_all_languages(self, content_world):
        kg = content_world.knowledge_graph
        kg.start()
        closure = kg.translation_closure(["helmet"], vocab.LANGUAGES)
        assert len(closure) == 11  # original + 10 translations
        kg.stop()

    def test_kg_categories(self, content_world):
        kg = content_world.knowledge_graph
        kg.start()
        cycling = kg.products_in_category("cycling")
        assert set(vocab.BIKE_PRODUCTS) <= cycling
        assert set(vocab.BIKE_ACCESSORIES) <= cycling
        assert not set(vocab.CAR_ACCESSORIES) & cycling
        kg.stop()

    def test_nlp_server_factory_produces_fresh_instances(self, content_world):
        a = content_world.make_nlp_server()
        b = content_world.make_nlp_server()
        assert a is not b


class TestTopicDataset:
    def test_split_sizes(self, topic_dataset):
        assert len(topic_dataset.unlabeled) == TINY_SCALE.topic_unlabeled
        assert len(topic_dataset.dev) == TINY_SCALE.topic_dev
        assert len(topic_dataset.test) == TINY_SCALE.topic_test

    def test_deterministic_given_seed(self):
        a = generate_topic_dataset(TINY_SCALE, seed=5)
        b = generate_topic_dataset(TINY_SCALE, seed=5)
        assert a.unlabeled[0].fields == b.unlabeled[0].fields
        assert a.test[10].label == b.test[10].label

    def test_seed_changes_data(self):
        a = generate_topic_dataset(TINY_SCALE, seed=5)
        b = generate_topic_dataset(TINY_SCALE, seed=6)
        assert a.unlabeled[0].fields != b.unlabeled[0].fields

    def test_positive_rate_in_regime(self, topic_dataset):
        gold = topic_dataset.unlabeled_gold
        rate = (gold == 1).mean()
        assert 0.02 < rate < 0.12

    def test_keyword_filter_property(self, topic_dataset):
        """Every pooled document carries filter keywords (Section 3.1:
        the pool was built by a coarse keyword-filtering step)."""
        filters = set(vocab.TOPIC_FILTER_KEYWORDS)
        sampled = topic_dataset.unlabeled[:300]
        hit = sum(
            1
            for e in sampled
            if filters & set(tokenize(e.fields["body"].lower()))
        )
        assert hit == len(sampled)

    def test_examples_have_urls(self, topic_dataset):
        assert all(
            e.fields["url"].startswith("https://")
            for e in topic_dataset.unlabeled[:50]
        )

    def test_non_servable_score_correlates_with_label(self, topic_dataset):
        scores = np.array(
            [e.non_servable["related_model_score"] for e in topic_dataset.unlabeled]
        )
        gold = topic_dataset.unlabeled_gold
        assert scores[gold == 1].mean() > scores[gold == -1].mean() + 0.2

    def test_stats_shape(self, topic_dataset):
        stats = topic_dataset.stats()
        assert stats["task"] == "topic_classification"
        assert stats["n_unlabeled"] == TINY_SCALE.topic_unlabeled

    def test_full_scale_positive_rate_uses_paper_value(self):
        # Do not generate at full scale; check the default logic only.
        from repro.config import FULL_SCALE
        import repro.datasets.content as content

        # positive_rate default resolution is inside the generator; we
        # verify by sampling a tiny custom scale flagged as full.
        custom = FULL_SCALE.__class__(
            name="full",
            topic_unlabeled=800,
            topic_dev=100,
            topic_test=100,
            product_unlabeled=10,
            product_dev=5,
            product_test=5,
            events_unlabeled=10,
            events_test=5,
        )
        ds = content.generate_topic_dataset(custom, seed=0)
        rate = (ds.unlabeled_gold == 1).mean()
        assert rate < 0.03  # 0.86% regime, small-sample tolerance


class TestProductDataset:
    def test_split_sizes(self, product_dataset):
        assert len(product_dataset.unlabeled) == TINY_SCALE.product_unlabeled

    def test_language_mix(self, product_dataset):
        langs = {e.fields["language"] for e in product_dataset.unlabeled}
        assert "en" in langs
        assert len(langs) > 5  # multilingual corpus (Section 3.2)

    def test_non_english_positives_use_translated_forms(self, product_dataset):
        surfaces = set(vocab.BIKE_PRODUCTS) | set(vocab.BIKE_ACCESSORIES)
        checked = 0
        for e in product_dataset.unlabeled:
            if e.label == 1 and e.fields["language"] != "en":
                tokens = set(tokenize(e.fields["body"]))
                translated = {
                    t for t in tokens if "#" in t and t.split("#")[0] in surfaces
                }
                if translated:
                    checked += 1
        assert checked > 10

    def test_confusers_present(self, product_dataset):
        confusers = set(vocab.CAR_ACCESSORIES) | set(vocab.PHONE_ACCESSORIES)
        hit = sum(
            1
            for e in product_dataset.unlabeled[:500]
            if e.label == -1 and confusers & set(tokenize(e.fields["body"].lower()))
        )
        assert hit > 30


def events_world_digest(n_sources, seed):
    """SHA-256 over every array of ``_build_world(n_sources, seed)``,
    its aggregates and each source's neighbours in iteration order."""
    world = _build_world(n_sources, seed)
    digest = hashlib.sha256()
    for name in (
        "badness",
        "platforms",
        "has_history",
        "neighbor_bad_rate",
        "neighbor_bad_rate_2hop",
        "weighted_neighbor_bad",
        "graph_views",
        "offline_model_scores",
    ):
        array = np.ascontiguousarray(getattr(world, name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    digest.update(json.dumps(world.aggregates, sort_keys=True).encode())
    neighbours = [list(world.graph[s]) for s in range(n_sources)]
    digest.update(json.dumps(neighbours).encode())
    return digest.hexdigest()


class TestEventsDataset:
    @pytest.mark.parametrize(
        "n_sources, seed, expected",
        [
            (150, 0, "1d446816518c2fe4fd902ddfd3ad2ca03753662d5282dead6b59c498cf5e7379"),
            (150, 1, "7e3c9f4b3ed7ccbd5bef4b246ce70bd499f13437021bff20b64dabd0bfa0c676"),
            (600, 7, "49fa299822b000ab6fc175ede82b72e58f405f579cba2f74f99ee06392471b09"),
        ],
    )
    def test_world_is_bitwise_stable(self, n_sources, seed, expected):
        """The world, neighbour order and the float sums over it
        included, is bit for bit what the networkx-backed builder made
        (digests captured from it): the relationship graph is plain
        insertion-ordered adjacency now, and must stay equivalent."""
        assert events_world_digest(n_sources, seed) == expected

    def test_sizes(self, events_dataset):
        assert len(events_dataset.unlabeled) == TINY_SCALE.events_unlabeled
        assert len(events_dataset.test) == TINY_SCALE.events_test

    def test_two_platforms(self, events_dataset):
        platforms = {e.fields["platform"] for e in events_dataset.unlabeled}
        assert platforms == {"A", "B"}

    def test_servable_signals_present(self, events_dataset):
        example = events_dataset.unlabeled[0]
        for signal in SERVABLE_SIGNALS:
            assert signal in example.servable
        assert "platform_a" in example.servable

    def test_fresh_sources_have_no_offline_signals(self, events_dataset):
        fresh = [
            e
            for e in events_dataset.unlabeled
            if not e.non_servable["has_history"]
        ]
        assert fresh, "the world must contain fresh-source events"
        for e in fresh[:20]:
            assert "bad_rate_30d" not in e.non_servable
            assert "offline_model_0" not in e.non_servable
            assert "graph_view_0" not in e.non_servable

    def test_historical_sources_have_full_signals(self, events_dataset):
        historical = [
            e
            for e in events_dataset.unlabeled
            if e.non_servable["has_history"]
        ][:20]
        for e in historical:
            for stat in AGGREGATE_STATS:
                assert stat in e.non_servable
            assert f"graph_view_{N_GRAPH_VIEWS - 1}" in e.non_servable
            assert (
                f"offline_model_{N_OFFLINE_MODELS * N_MODEL_VARIANTS - 1}"
                in e.non_servable
            )

    def test_servable_signal_correlates_with_label(self, events_dataset):
        gold = events_dataset.unlabeled_gold
        signal = np.array(
            [e.servable["rt_signal_0"] for e in events_dataset.unlabeled]
        )
        assert signal[gold == 1].mean() > signal[gold == -1].mean() + 0.5

    def test_bad_sources_skew_fresh(self, events_dataset):
        world = events_dataset.world
        bad = world.badness > 0.5
        if bad.sum() >= 5:
            assert world.has_history[bad].mean() <= world.has_history[~bad].mean()

    def test_aggregate_store_consistent_with_events(self, events_dataset):
        store = events_dataset.world.aggregate_store
        store.start()
        example = next(
            e
            for e in events_dataset.unlabeled
            if e.non_servable["has_history"]
        )
        row = store.lookup(example.fields["source_id"])
        assert row is not None
        assert row.stats["bad_rate_30d"] == pytest.approx(
            example.non_servable["bad_rate_30d"]
        )
        store.stop()

    def test_stats_summary(self, events_dataset):
        stats = events_dataset.stats()
        assert stats["task"] == "realtime_events"
        assert 0 < stats["fresh_source_events_pct"] < 60
