"""Tests for the LF template factories against the content world."""

import pytest

from repro.lf.registry import LFCategory
from repro.lf.templates import (
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
from repro.types import ABSTAIN, Example


def doc(body="", title="", url="", **extra):
    return Example(
        example_id="x",
        fields={"title": title, "body": body, "url": url, **extra},
    )


class TestKeywordLF:
    def test_matches_single_token(self):
        lf = keyword_lf("kw", ["bicycle"], 1)
        assert lf.vote_in_memory(doc(body="a new bicycle today")) == 1
        assert lf.vote_in_memory(doc(body="a new car today")) == ABSTAIN

    def test_case_insensitive(self):
        lf = keyword_lf("kw", ["Bicycle"], 1)
        assert lf.vote_in_memory(doc(body="BICYCLE sale")) == 1

    def test_multiword_phrase(self):
        lf = keyword_lf("kw", ["red carpet"], 1)
        assert lf.vote_in_memory(doc(body="on the red carpet tonight")) == 1
        assert lf.vote_in_memory(doc(body="red paint on carpet")) == ABSTAIN

    def test_min_hits(self):
        lf = keyword_lf("kw", ["a", "b", "c"], 1, min_hits=2)
        assert lf.vote_in_memory(doc(body="a x c")) == 1
        assert lf.vote_in_memory(doc(body="a x y")) == ABSTAIN

    def test_field_restriction(self):
        lf = keyword_lf("kw", ["gossip"], 1, fields=("title",))
        assert lf.vote_in_memory(doc(title="gossip now", body="")) == 1
        assert lf.vote_in_memory(doc(title="news", body="gossip")) == ABSTAIN

    def test_requires_keywords(self):
        with pytest.raises(ValueError):
            keyword_lf("kw", [], 1)

    def test_metadata(self):
        lf = keyword_lf("kw", ["x"], -1)
        assert lf.info.servable
        assert lf.info.category is LFCategory.CONTENT_HEURISTIC


class TestUrlAndPatternLFs:
    def test_url_domain_match(self):
        lf = url_domain_lf("u", ["celebdaily.example"], 1)
        assert lf.vote_in_memory(doc(url="https://celebdaily.example/a")) == 1
        assert lf.vote_in_memory(doc(url="https://other.example/a")) == ABSTAIN

    def test_url_missing_abstains(self):
        lf = url_domain_lf("u", ["a.example"], 1)
        assert lf.vote_in_memory(doc()) == ABSTAIN

    def test_url_is_source_heuristic(self):
        assert url_domain_lf("u", ["a"], 1).info.category is LFCategory.SOURCE_HEURISTIC

    def test_pattern_lf(self):
        lf = pattern_lf(
            "p", lambda x: len(x.fields["body"]) > 5, -1, servable=False
        )
        assert lf.vote_in_memory(doc(body="long enough")) == -1
        assert lf.vote_in_memory(doc(body="no")) == ABSTAIN
        assert not lf.info.servable


class TestServiceBackedLFs:
    def test_topic_model_veto(self, content_world):
        lf = topic_model_lf(
            "tm", content_world.topic_model, ["finance"], -1
        )
        vote = lf.vote_in_memory(
            doc(body="market stock earnings investor trading")
        )
        assert vote == -1
        assert lf.vote_in_memory(doc(body="unrelated words only")) == ABSTAIN
        lf.stop()

    def test_kg_translation_expansion(self, content_world):
        lf = kg_translation_lf(
            "kg", content_world.knowledge_graph, ["helmet"], ["de", "fr"]
        )
        assert lf.vote_in_memory(doc(body="ein helmet#de kaufen")) == 1
        assert lf.vote_in_memory(doc(body="un helmet#fr acheter")) == 1
        # The closure includes the original English form.
        assert lf.vote_in_memory(doc(body="buy a helmet")) == 1
        assert lf.vote_in_memory(doc(body="buy a hat")) == ABSTAIN
        lf.stop()

    def test_kg_category_membership(self, content_world):
        lf = kg_category_lf("kgc", content_world.knowledge_graph, "cycling")
        assert lf.vote_in_memory(doc(body="new derailleur review")) == 1
        assert lf.vote_in_memory(doc(body="new dashcam review")) == ABSTAIN
        lf.stop()

    def test_kg_category_excluding_accessories(self, content_world):
        lf = kg_category_lf(
            "kgp",
            content_world.knowledge_graph,
            "cycling",
            include_accessories=False,
        )
        assert lf.vote_in_memory(doc(body="buy a bicycle")) == 1
        assert lf.vote_in_memory(doc(body="buy a helmet")) == ABSTAIN
        lf.stop()

    def test_crawler_lf(self, content_world):
        lf = crawler_lf(
            "cr", content_world.crawler, ["entertainment"], 1, min_quality=0.7
        )
        assert lf.vote_in_memory(doc(url="https://celebdaily.example/x")) == 1
        # fanbuzz is entertainment but quality 0.6 < 0.7.
        assert lf.vote_in_memory(doc(url="https://fanbuzz.example/x")) == ABSTAIN
        assert lf.vote_in_memory(doc(url="https://unknown.example/x")) == ABSTAIN
        assert lf.vote_in_memory(doc()) == ABSTAIN
        lf.stop()

    def test_graph_lfs_are_graph_category(self, content_world):
        lf = kg_translation_lf("kg2", content_world.knowledge_graph, ["helmet"], ["de"])
        assert lf.info.category is LFCategory.GRAPH_BASED
        assert not lf.info.servable


class TestModelScoreLF:
    def test_threshold_above(self):
        lf = model_score_lf("m", "score", 0.7, 1)
        assert lf.vote_in_memory(
            Example("x", non_servable={"score": 0.8})
        ) == 1
        assert lf.vote_in_memory(
            Example("x", non_servable={"score": 0.6})
        ) == ABSTAIN

    def test_threshold_below(self):
        lf = model_score_lf("m", "score", 0.2, -1, above=False)
        assert lf.vote_in_memory(
            Example("x", non_servable={"score": 0.1})
        ) == -1

    def test_missing_score_abstains(self):
        lf = model_score_lf("m", "score", 0.5, 1)
        assert lf.vote_in_memory(Example("x")) == ABSTAIN

    def test_servable_view_flag(self):
        lf = model_score_lf("m", "score", 0.5, 1, view="servable")
        assert lf.info.servable
        assert lf.vote_in_memory(Example("x", servable={"score": 0.9})) == 1

    def test_invalid_view(self):
        with pytest.raises(ValueError):
            model_score_lf("m", "score", 0.5, 1, view="private")


class TestAggregateLF:
    def test_threshold_on_store(self):
        store = AggregateStore()
        store.load_batch({"s1": {"bad_rate": 0.9}, "s2": {"bad_rate": 0.1}})
        lf = aggregate_threshold_lf("agg", store, "bad_rate", 0.5, 1)
        assert lf.vote_in_memory(
            Example("e", fields={"source_id": "s1"})
        ) == 1
        assert lf.vote_in_memory(
            Example("e", fields={"source_id": "s2"})
        ) == ABSTAIN
        lf.stop()

    def test_unknown_source_abstains(self):
        store = AggregateStore()
        lf = aggregate_threshold_lf("agg", store, "bad_rate", 0.5, 1)
        assert lf.vote_in_memory(
            Example("e", fields={"source_id": "ghost"})
        ) == ABSTAIN
        assert lf.vote_in_memory(Example("e")) == ABSTAIN
        lf.stop()

    def test_missing_stat_abstains(self):
        store = AggregateStore()
        store.load_batch({"s1": {"other": 1.0}})
        lf = aggregate_threshold_lf("agg", store, "bad_rate", 0.5, 1)
        assert lf.vote_in_memory(
            Example("e", fields={"source_id": "s1"})
        ) == ABSTAIN
        lf.stop()
