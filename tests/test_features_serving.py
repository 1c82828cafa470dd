"""Tests for featurizers, the servability boundary, and TFX serving."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.noise_aware import labels_to_soft_targets
from repro.discriminative.logistic import LogisticConfig
from repro.features.extractors import (
    DictVectorFeaturizer,
    EventFeaturizer,
    HashedTextFeaturizer,
)
from repro.features.spec import FeatureView, NonServableAccessError
from repro.serving.model_registry import ModelRegistry
from repro.serving.server import ProductionServer
from repro.serving.tfx import TFXPipeline, TrainerSpec
from repro.types import Example


def doc(body, title="", url=""):
    return Example("x", fields={"title": title, "body": body, "url": url})


class TestHashedTextFeaturizer:
    def test_deterministic_across_instances(self):
        a = HashedTextFeaturizer(num_buckets=1024)
        b = HashedTextFeaturizer(num_buckets=1024)
        ex = doc("the quick brown fox", url="https://a.example/x")
        assert a.transform_one(ex) == b.transform_one(ex)

    def test_rows_l2_normalized(self):
        feat = HashedTextFeaturizer(num_buckets=512)
        X = feat.transform([doc("alpha beta gamma delta")])
        norm = sparse.linalg.norm(X[0])
        assert norm == pytest.approx(1.0)

    def test_empty_document(self):
        feat = HashedTextFeaturizer(num_buckets=512, include_url_domain=False)
        X = feat.transform([doc("")])
        assert X.nnz == 0

    def test_bigrams_add_features(self):
        uni = HashedTextFeaturizer(num_buckets=2048, use_bigrams=False,
                                   include_url_domain=False)
        bi = HashedTextFeaturizer(num_buckets=2048, use_bigrams=True,
                                  include_url_domain=False)
        ex = doc("alpha beta gamma")
        assert len(bi.transform_one(ex)) > len(uni.transform_one(ex))

    def test_url_domain_feature(self):
        feat = HashedTextFeaturizer(num_buckets=2048)
        with_url = feat.transform_one(doc("a", url="https://b.example/p"))
        without = feat.transform_one(doc("a"))
        assert len(with_url) == len(without) + 1

    def test_matrix_shape(self):
        feat = HashedTextFeaturizer(num_buckets=256)
        X = feat.transform([doc("a"), doc("b c")])
        assert X.shape == (2, 256)

    def test_raw_content_is_servable(self):
        assert HashedTextFeaturizer().spec.servable
        assert HashedTextFeaturizer().spec.view is FeatureView.RAW_CONTENT


class TestEventFeaturizer:
    def test_reads_servable_view_only(self):
        feat = EventFeaturizer(["s0", "s1"])
        ex = Example(
            "e", servable={"s0": 1.5}, non_servable={"s1": 99.0}
        )
        row = feat.transform_one(ex)
        assert row.tolist() == [1.5, 0.0]  # non-servable s1 invisible

    def test_requires_signals(self):
        with pytest.raises(ValueError):
            EventFeaturizer([])

    def test_spec_is_servable(self):
        assert EventFeaturizer(["a"]).spec.servable


class TestDictVectorFeaturizer:
    def test_servable_view(self):
        feat = DictVectorFeaturizer(["a"], FeatureView.SERVABLE)
        row = feat.transform_one(Example("x", servable={"a": 2.0}))
        assert row.tolist() == [2.0]
        assert feat.spec.servable

    def test_non_servable_view_flagged(self):
        feat = DictVectorFeaturizer(["a"], FeatureView.NON_SERVABLE)
        assert not feat.spec.servable
        row = feat.transform_one(Example("x", non_servable={"a": 3.0}))
        assert row.tolist() == [3.0]


class TestModelRegistry:
    def test_versions_increment(self):
        registry = ModelRegistry()
        v1 = registry.stage("m", model=1, featurizer=None)
        v2 = registry.stage("m", model=2, featurizer=None)
        assert (v1.version, v2.version) == (1, 2)

    def test_latest_blessed_skips_unblessed(self):
        registry = ModelRegistry()
        registry.stage("m", model="a", featurizer=None, blessed=True)
        registry.stage("m", model="b", featurizer=None, blessed=False)
        assert registry.latest_blessed("m").model == "a"

    def test_bless_after_staging(self):
        registry = ModelRegistry()
        v = registry.stage("m", model="a", featurizer=None)
        assert registry.latest_blessed("m") is None
        registry.bless("m", v.version)
        assert registry.latest_blessed("m").version == v.version

    def test_bless_unknown_version(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.bless("m", 1)


def tiny_text_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    examples, labels = [], []
    for i in range(n):
        label = 1 if rng.random() < 0.5 else -1
        word = "celebrity gossip" if label == 1 else "market earnings"
        examples.append(doc(f"{word} item {i % 7}"))
        labels.append(label)
    return examples, np.array(labels)


class TestTFXPipeline:
    def _pipeline(self, registry, **kwargs):
        featurizer = HashedTextFeaturizer(num_buckets=512)
        trainer = TrainerSpec(
            kind="logistic",
            logistic=LogisticConfig(n_iterations=300, seed=0),
        )
        return TFXPipeline(
            "clf", featurizer, registry, trainer=trainer, **kwargs
        )

    def test_train_evaluate_stage(self):
        registry = ModelRegistry()
        examples, labels = tiny_text_dataset()
        run = self._pipeline(registry).run(
            examples,
            labels_to_soft_targets(labels),
            eval_examples=examples,
            eval_labels=labels,
        )
        assert run.blessed
        assert run.eval_metrics.f1 > 0.9
        assert registry.latest_blessed("clf") is not None

    def test_blessing_threshold_gates(self):
        registry = ModelRegistry()
        examples, labels = tiny_text_dataset(seed=1)
        pipeline = self._pipeline(registry, blessing_threshold=0.999)
        run = pipeline.run(
            examples,
            # Random labels cannot clear an F1 bar of 0.999.
            np.random.default_rng(0).random(len(examples)),
            eval_examples=examples,
            eval_labels=labels,
        )
        assert not run.blessed
        assert registry.latest_blessed("clf") is None

    def test_require_improvement(self):
        registry = ModelRegistry()
        examples, labels = tiny_text_dataset(seed=2)
        soft = labels_to_soft_targets(labels)
        pipeline = self._pipeline(registry, require_improvement=True)
        first = pipeline.run(examples, soft, examples, labels)
        assert first.blessed
        # A second identical run must not regress below the incumbent.
        second = pipeline.run(examples, soft, examples, labels)
        assert second.blessed == (
            second.eval_metrics.f1 >= first.eval_metrics.f1
        )

    def test_rejects_non_servable_featurizer(self):
        registry = ModelRegistry()
        bad = DictVectorFeaturizer(["score"], FeatureView.NON_SERVABLE)
        with pytest.raises(NonServableAccessError):
            TFXPipeline("clf", bad, registry)

    def test_label_count_validated(self):
        registry = ModelRegistry()
        examples, _ = tiny_text_dataset(n=10)
        with pytest.raises(ValueError):
            self._pipeline(registry).run(examples, np.zeros(5))

    def test_mlp_trainer_kind(self):
        registry = ModelRegistry()
        featurizer = EventFeaturizer(["a", "b"])
        from repro.discriminative.dnn import MLPConfig

        pipeline = TFXPipeline(
            "events",
            featurizer,
            registry,
            trainer=TrainerSpec(kind="mlp", mlp=MLPConfig(n_epochs=2)),
        )
        rng = np.random.default_rng(3)
        examples = [
            Example(f"e{i}", servable={"a": rng.normal(), "b": rng.normal()})
            for i in range(50)
        ]
        run = pipeline.run(examples, rng.random(50))
        assert run.blessed  # no evaluator configured -> auto-bless

    def test_unknown_trainer_kind(self):
        registry = ModelRegistry()
        pipeline = TFXPipeline(
            "x",
            HashedTextFeaturizer(num_buckets=64),
            registry,
            trainer=TrainerSpec(kind="catboost"),
        )
        examples, labels = tiny_text_dataset(n=10)
        with pytest.raises(ValueError, match="trainer"):
            pipeline.run(examples, labels_to_soft_targets(labels))


class TestProductionServer:
    def _staged_registry(self):
        registry = ModelRegistry()
        examples, labels = tiny_text_dataset(seed=4)
        featurizer = HashedTextFeaturizer(num_buckets=512)
        pipeline = TFXPipeline(
            "clf",
            featurizer,
            registry,
            trainer=TrainerSpec(
                kind="logistic",
                logistic=LogisticConfig(n_iterations=300, seed=0),
            ),
        )
        pipeline.run(examples, labels_to_soft_targets(labels),
                     examples, labels)
        return registry

    def test_serves_latest_blessed(self):
        registry = self._staged_registry()
        server = ProductionServer(registry, "clf")
        version = server.refresh()
        assert version.blessed
        score = server.predict(doc("celebrity gossip tonight"))
        assert score > 0.5
        score = server.predict(doc("market earnings report"))
        assert score < 0.5

    def test_no_blessed_version_raises(self):
        server = ProductionServer(ModelRegistry(), "ghost")
        with pytest.raises(LookupError):
            server.refresh()

    def test_refuses_non_servable_featurizer(self):
        registry = ModelRegistry()
        registry.stage(
            "clf",
            model=object(),
            featurizer=DictVectorFeaturizer(["s"], FeatureView.NON_SERVABLE),
            blessed=True,
        )
        server = ProductionServer(registry, "clf")
        with pytest.raises(NonServableAccessError):
            server.refresh()

    def test_latency_accounting(self):
        registry = self._staged_registry()
        server = ProductionServer(registry, "clf", sla_ms=10.0)
        for _ in range(5):
            server.predict(doc("an item"))
        assert server.stats.requests == 5
        assert server.stats.mean_latency_ms > 0
        assert server.stats.sla_violations == 0

    def test_sla_violation_detected(self):
        registry = self._staged_registry()
        server = ProductionServer(registry, "clf", sla_ms=0.001)
        server.predict(doc("an item"))
        assert server.stats.sla_violations == 1

    def test_batch_prediction(self):
        registry = self._staged_registry()
        server = ProductionServer(registry, "clf")
        scores = server.predict_batch([doc("a"), doc("b")])
        assert scores.shape == (2,)
        assert server.stats.requests == 2
