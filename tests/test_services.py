"""Tests for the simulated organizational services."""

import pytest

from repro.services.aggregates import AggregateStore
from repro.services.base import FlakyServer, ModelServer, ServiceUnavailable
from repro.services.knowledge_graph import KnowledgeGraph
from repro.services.nlp_server import NLPServer, tokenize
from repro.services.topic_model import TopicModel
from repro.services.web_crawler import WebCrawler, domain_of


class _EchoServer(ModelServer):
    latency_ms = 5.0

    def echo(self, value):
        self._track()
        return value


class TestModelServerLifecycle:
    def test_call_before_start_raises(self):
        server = _EchoServer()
        with pytest.raises(ServiceUnavailable, match="stopped"):
            server.echo(1)
        assert server.stats.failures == 1

    def test_start_stop_idempotent(self):
        server = _EchoServer()
        server.start()
        server.start()
        assert server.stats.starts == 1
        server.stop()
        server.stop()
        assert server.stats.stops == 1

    def test_virtual_latency_accumulates(self):
        server = _EchoServer()
        server.start()
        server.echo(1)
        server.echo(2)
        assert server.stats.calls == 2
        assert server.stats.virtual_latency_ms == pytest.approx(10.0)

    def test_context_manager(self):
        with _EchoServer() as server:
            assert server.running
            assert server.echo("x") == "x"
        assert not server.running

    def test_flaky_server_injects_failures(self):
        inner = _EchoServer()
        flaky = FlakyServer(inner, fail_every=2)
        flaky.start()
        assert flaky.call("echo", 1) == 1
        with pytest.raises(ServiceUnavailable, match="injected"):
            flaky.call("echo", 2)
        assert flaky.call("echo", 3) == 3

    def test_flaky_server_validates_rate(self):
        with pytest.raises(ValueError):
            FlakyServer(_EchoServer(), fail_every=0)


class TestTokenizer:
    def test_strips_punctuation(self):
        assert tokenize("Hello, world!") == ["Hello", "world"]

    def test_keeps_internal_marks(self):
        assert tokenize("red-carpet helmet#de") == ["red-carpet", "helmet#de"]

    def test_empty_text(self):
        assert tokenize("   ") == []


class TestNLPServer:
    @pytest.fixture()
    def server(self):
        server = NLPServer(
            {
                "avery sterling": "person",
                "pinewood studios": "organization",
                "westhaven": "location",
                "bicycle": "product",
            }
        )
        server.start()
        return server

    def test_requires_start(self):
        server = NLPServer({})
        with pytest.raises(ServiceUnavailable):
            server.annotate("text")

    def test_multi_token_entity_matched(self, server):
        result = server.annotate("news about Avery Sterling today")
        assert result.people == ["avery sterling"]

    def test_longest_match_wins(self, server):
        result = server.annotate("Pinewood Studios announced a bicycle")
        assert result.organizations == ["pinewood studios"]
        assert result.products == ["bicycle"]

    def test_paper_example_shape(self, server):
        """The Section 5.1 example: no people => the LF votes NEGATIVE."""
        result = server.annotate("the market gained ground")
        assert len(result.people) == 0

    def test_capitalization_fallback(self, server):
        result = server.annotate("an interview with Jordan Blake yesterday")
        assert "Jordan Blake" in result.people

    def test_fallback_disabled(self):
        server = NLPServer({}, infer_capitalized_people=False)
        server.start()
        assert server.annotate("Jordan Blake spoke").people == []

    def test_matched_tokens_not_double_counted(self, server):
        result = server.annotate("Avery Sterling")
        # The lexicon match consumes both tokens; the fallback must not
        # produce a duplicate person.
        assert len(result.people) == 1

    def test_entities_dict_view(self, server):
        result = server.annotate("Westhaven bicycle")
        assert result.entities["locations"] == ["westhaven"]
        assert result.entities["products"] == ["bicycle"]

    def test_bad_entity_type_rejected_at_start(self):
        server = NLPServer({"thing": "widget"})
        with pytest.raises(ValueError, match="unknown entity type"):
            server.start()

    def test_stats_track_annotations(self, server):
        server.annotate("a")
        server.annotate("b")
        assert server.stats.calls == 2
        assert server.stats.virtual_latency_ms == pytest.approx(80.0)


class TestTopicModel:
    @pytest.fixture()
    def model(self):
        model = TopicModel(
            {
                "finance": ["market", "stock", "earnings"],
                "sports": ["game", "match", "league"],
            }
        )
        model.start()
        return model

    def test_requires_categories(self):
        with pytest.raises(ValueError):
            TopicModel({})

    def test_top_category(self, model):
        assert model.top_category("the market and stock earnings") == "finance"

    def test_abstains_without_hits(self, model):
        assert model.top_category("nothing relevant here") is None

    def test_scores_sorted(self, model):
        scores = model.categorize("market game stock")
        assert scores[0].category == "finance"
        assert scores[0].score >= scores[-1].score

    def test_top_k_limits(self, model):
        assert len(model.categorize("market game", top_k=1)) == 1

    def test_categories_listing(self, model):
        assert model.categories == ["finance", "sports"]

    def test_requires_start(self):
        model = TopicModel({"a": ["b"]})
        with pytest.raises(ServiceUnavailable):
            model.top_category("b")


class TestKnowledgeGraph:
    @pytest.fixture()
    def kg(self):
        kg = KnowledgeGraph()
        kg.add_category("cycling")
        kg.add_product("bicycle", "cycling")
        kg.add_product("helmet", "cycling", accessory=True)
        kg.add_product("dashcam", "automotive", accessory=True)
        kg.add_brand("Veloria", ["bicycle"])
        kg.add_translation("helmet", "de", "helmet#de")
        kg.add_translation("helmet", "fr", "helmet#fr")
        kg.start()
        return kg

    def test_translations(self, kg):
        assert kg.translations("helmet") == {"de": "helmet#de", "fr": "helmet#fr"}

    def test_translations_filtered_by_language(self, kg):
        assert kg.translations("helmet", ["fr"]) == {"fr": "helmet#fr"}

    def test_translation_closure_includes_originals(self, kg):
        closure = kg.translation_closure(["helmet"], ["de"])
        assert closure == {"helmet", "helmet#de"}

    def test_unknown_keyword_empty(self, kg):
        assert kg.translations("ghost") == {}

    def test_products_in_category(self, kg):
        assert kg.products_in_category("cycling") == {"bicycle", "helmet"}
        assert kg.products_in_category("cycling", include_accessories=False) == {
            "bicycle"
        }

    def test_brand_requires_known_product(self, kg):
        with pytest.raises(KeyError):
            kg.add_brand("Ghost", ["hoverboard"])

    def test_auto_category_creation(self, kg):
        # add_product created "automotive" implicitly.
        assert kg.products_in_category("automotive") == {"dashcam"}

    def test_languages(self, kg):
        assert kg.languages() == {"de", "fr"}


class TestWebCrawler:
    @pytest.fixture()
    def crawler(self):
        crawler = WebCrawler({"site.example": ("news", 0.8)})
        crawler.start()
        return crawler

    def test_domain_of(self):
        assert domain_of("https://a.example/x/y") == "a.example"
        assert domain_of("a.example/x") == "a.example"

    def test_known_domain(self, crawler):
        result = crawler.crawl("https://site.example/page")
        assert result.reachable
        assert result.site_category == "news"
        assert result.quality_score == pytest.approx(0.8)

    def test_unknown_domain_unreachable(self, crawler):
        result = crawler.crawl("https://ghost.example/")
        assert not result.reachable
        assert result.site_category is None

    def test_crawls_are_expensive(self, crawler):
        crawler.crawl("https://site.example/")
        assert crawler.stats.virtual_latency_ms >= 800.0


class TestAggregateStore:
    @pytest.fixture()
    def store(self):
        store = AggregateStore()
        store.load_batch({"src-1": {"bad_rate": 0.4, "volume": 10.0}})
        store.start()
        return store

    def test_lookup(self, store):
        row = store.lookup("src-1")
        assert row.stats["bad_rate"] == pytest.approx(0.4)

    def test_missing_key(self, store):
        assert store.lookup("src-404") is None
        assert store.stat("src-404", "bad_rate", default=-1.0) == -1.0

    def test_stat_accessor(self, store):
        assert store.stat("src-1", "volume") == pytest.approx(10.0)
        assert store.stat("src-1", "missing", default=0.5) == 0.5

    def test_requires_start(self):
        store = AggregateStore()
        store.load_batch({"k": {"a": 1.0}})
        with pytest.raises(Exception):
            store.lookup("k")
