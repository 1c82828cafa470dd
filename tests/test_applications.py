"""Tests for the three case-study LF suites (Section 3)."""

import numpy as np

from repro.applications.events import build_event_lfs, event_featurizer
from repro.applications.product import build_product_lfs, product_featurizer
from repro.applications.topic import build_topic_lfs, topic_featurizer
from repro.core.analysis import LFAnalysis
from repro.lf.applier import apply_lfs_in_memory
from repro.lf.registry import LFCategory


class TestTopicSuite:
    def test_ten_lfs(self, topic_dataset):
        lfs, registry = build_topic_lfs(topic_dataset.world)
        assert len(lfs) == 10  # Table 1
        assert len(registry) == 10

    def test_category_mix_matches_section31(self, topic_dataset):
        _, registry = build_topic_lfs(topic_dataset.world)
        counts = registry.category_counts()
        # URL-based, NER-tagger-based, topic-model-based sources all
        # present (Section 3.1), plus the crawler source heuristic.
        assert counts[LFCategory.SOURCE_HEURISTIC] >= 2
        assert counts[LFCategory.MODEL_BASED] >= 3
        assert counts[LFCategory.CONTENT_HEURISTIC] >= 2

    def test_servable_split(self, topic_dataset):
        _, registry = build_topic_lfs(topic_dataset.world)
        servable = registry.servable_names()
        assert "keyword_celebrity" in servable
        assert "nlp_no_person" not in servable
        assert "crawler_entertainment_site" not in servable

    def test_lfs_are_better_than_random(self, topic_dataset):
        """Every topic LF must clear 50% accuracy on its non-abstain
        votes — the regime the generative model assumes."""
        lfs, _ = build_topic_lfs(topic_dataset.world)
        matrix = apply_lfs_in_memory(lfs, topic_dataset.unlabeled)
        accs = LFAnalysis(matrix.matrix, matrix.lf_names).empirical_accuracies(
            topic_dataset.unlabeled_gold
        )
        for name, acc in zip(matrix.lf_names, accs):
            assert np.isnan(acc) or acc > 0.5, f"{name} accuracy {acc}"

    def test_nlp_lf_is_the_paper_example(self, topic_dataset):
        from repro.types import Example

        lfs, _ = build_topic_lfs(topic_dataset.world)
        nlp_lf = next(lf for lf in lfs if lf.name == "nlp_no_person")
        no_person = Example("a", fields={"title": "", "body": "market up"})
        assert nlp_lf.vote_in_memory(no_person) == -1
        nlp_lf.stop()

    def test_featurizer_dimension_ratio(self):
        # "an order-of-magnitude more features" than product (§6.1).
        assert topic_featurizer().spec.dimension >= 8 * product_featurizer().spec.dimension


class TestProductSuite:
    def test_eight_lfs(self, product_dataset):
        lfs, registry = build_product_lfs(product_dataset.world)
        assert len(lfs) == 8  # Table 1

    def test_has_kg_translation_lf(self, product_dataset):
        _, registry = build_product_lfs(product_dataset.world)
        counts = registry.category_counts()
        assert counts[LFCategory.GRAPH_BASED] == 2
        assert "kg_translations_10_languages" in registry.names()

    def test_negative_keyword_lf_targets_other_accessories(self, product_dataset):
        from repro.types import Example

        lfs, _ = build_product_lfs(product_dataset.world)
        lf = next(lf for lf in lfs if lf.name == "keyword_other_accessories")
        assert lf.vote_in_memory(
            Example("x", fields={"title": "", "body": "buy a dashcam now"})
        ) == -1

    def test_lfs_are_better_than_random(self, product_dataset):
        lfs, _ = build_product_lfs(product_dataset.world)
        matrix = apply_lfs_in_memory(lfs, product_dataset.unlabeled)
        accs = LFAnalysis(matrix.matrix, matrix.lf_names).empirical_accuracies(
            product_dataset.unlabeled_gold
        )
        for name, acc in zip(matrix.lf_names, accs):
            assert np.isnan(acc) or acc > 0.5, f"{name} accuracy {acc}"

    def test_kg_lf_covers_non_english_positives(self, product_dataset):
        lfs, _ = build_product_lfs(product_dataset.world)
        matrix = apply_lfs_in_memory(lfs, product_dataset.unlabeled)
        kg_votes = matrix.column("kg_translations_10_languages")
        en_kw = matrix.column("keyword_bike_products")
        gold = product_dataset.unlabeled_gold
        non_en = np.array(
            [e.fields["language"] != "en" for e in product_dataset.unlabeled]
        )
        target = (gold == 1) & non_en
        if target.sum() >= 10:
            # The KG translation LF reaches non-English positives that
            # the English keyword LF cannot (Section 3.2's motivation).
            assert kg_votes[target].mean() > en_kw[target].mean()


class TestEventsSuite:
    def test_140_sources(self, events_dataset):
        lfs, registry = build_event_lfs(events_dataset.world)
        assert len(lfs) == 140  # Section 3.3: n=140

    def test_category_mix(self, events_dataset):
        _, registry = build_event_lfs(events_dataset.world)
        counts = registry.category_counts()
        assert counts[LFCategory.MODEL_BASED] == 50
        assert counts[LFCategory.GRAPH_BASED] == 30
        assert counts[LFCategory.OTHER_HEURISTIC] == 60

    def test_all_sources_non_servable(self, events_dataset):
        _, registry = build_event_lfs(events_dataset.world)
        assert registry.servable_names() == []

    def test_scaled_suite(self, events_dataset):
        lfs, _ = build_event_lfs(events_dataset.world, n_lfs=28)
        assert len(lfs) == 28

    def test_graph_sources_higher_recall_lower_precision(self, events_dataset):
        """Section 3.3: graph-based sources provide 'higher recall but
        generally lower-precision signals than the heuristic
        classifiers' — checked in aggregate per category."""
        lfs, _ = build_event_lfs(events_dataset.world)
        matrix = apply_lfs_in_memory(lfs, events_dataset.unlabeled)
        gold = events_dataset.unlabeled_gold
        analysis = LFAnalysis(matrix.matrix, matrix.lf_names)
        accs = analysis.empirical_accuracies(gold)
        cov = analysis.coverage()

        def group(prefix):
            idx = [
                j for j, name in enumerate(matrix.lf_names)
                if name.startswith(prefix)
            ]
            valid = [j for j in idx if not np.isnan(accs[j])]
            return (
                np.mean([accs[j] for j in valid]),
                np.mean([cov[j] for j in idx]),
            )

        graph_acc, graph_cov = group("graph")
        heur_acc, heur_cov = group("heur_badrate")
        assert graph_acc < heur_acc          # lower precision
        assert graph_cov > heur_cov * 0.5    # comparable-or-better reach

    def test_fresh_source_events_all_abstain(self, events_dataset):
        lfs, _ = build_event_lfs(events_dataset.world)
        matrix = apply_lfs_in_memory(lfs, events_dataset.unlabeled)
        fresh = np.array(
            [
                not e.non_servable["has_history"]
                for e in events_dataset.unlabeled
            ]
        )
        votes_on_fresh = np.abs(matrix.matrix[fresh]).sum()
        assert votes_on_fresh == 0

    def test_event_featurizer_signals(self):
        feat = event_featurizer()
        assert feat.spec.dimension == 17  # 16 signals + platform
        assert feat.spec.servable
