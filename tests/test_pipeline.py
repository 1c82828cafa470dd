"""Integration tests: the end-to-end DryBell pipeline (Figure 4)."""

import numpy as np
import pytest

from repro.applications.topic import build_topic_lfs, topic_featurizer
from repro.core.label_model import LabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.discriminative.logistic import LogisticConfig
from repro.pipeline import DryBellPipeline
from repro.serving.model_registry import ModelRegistry
from repro.serving.server import ProductionServer
from repro.serving.tfx import TrainerSpec


@pytest.fixture(scope="module")
def topic_slice(topic_dataset):
    return topic_dataset.unlabeled[:400]


def fast_label_config():
    return LabelModelConfig(seed=0)


def fast_trainer():
    return TrainerSpec(
        kind="logistic", logistic=LogisticConfig(n_iterations=400, seed=0)
    )


class TestPipelineStages:
    def test_requires_lfs(self):
        with pytest.raises(ValueError):
            DryBellPipeline([])

    def test_label_only_run(self, topic_dataset, topic_slice):
        lfs, _ = build_topic_lfs(topic_dataset.world)
        pipeline = DryBellPipeline(
            lfs, label_model_config=fast_label_config()
        )
        artifacts = pipeline.run(topic_slice)
        assert artifacts.label_matrix.shape == (400, 10)
        assert artifacts.probabilistic_labels.shape == (400,)
        assert np.all(
            (artifacts.probabilistic_labels >= 0)
            & (artifacts.probabilistic_labels <= 1)
        )
        assert artifacts.pipeline_run is None
        with pytest.raises(RuntimeError):
            _ = artifacts.model

    def test_mapreduce_and_memory_paths_agree(self, topic_dataset, topic_slice):
        lfs, _ = build_topic_lfs(topic_dataset.world)
        memory = DryBellPipeline(
            lfs, label_model_config=fast_label_config(), use_mapreduce=False
        )
        dfs_based = DryBellPipeline(
            lfs,
            label_model_config=fast_label_config(),
            use_mapreduce=True,
            num_shards=4,
        )
        m_matrix, _ = memory.label(topic_slice)
        d_matrix, report = dfs_based.label(topic_slice)
        assert report is not None
        aligned = d_matrix.select_examples(m_matrix.example_ids)
        assert aligned.lf_names == m_matrix.lf_names
        assert np.array_equal(aligned.matrix, m_matrix.matrix)

    def test_label_run_ids_never_repeat(self, monkeypatch, topic_dataset):
        """Regression: the run id was the clock in milliseconds, so two
        ``label`` calls on one DFS within a tick wrote the same immutable
        files and the second raised."""
        monkeypatch.setattr("repro.pipeline.time.time", lambda: 1.7e9)
        lfs, _ = build_topic_lfs(topic_dataset.world)
        examples = topic_dataset.unlabeled[:40]
        dfs = DistributedFileSystem()
        first, second = (
            DryBellPipeline(lfs, use_mapreduce=True, dfs=dfs, num_shards=2)
            for _ in range(2)
        )
        reports = [
            first.label(examples)[1],
            first.label(examples)[1],
            second.label(examples)[1],
        ]
        roots = [
            {path.rsplit("/", 2)[0] for result in report.lf_results
             for path in result.output_paths}
            for report in reports
        ]
        assert all(len(root) == 1 for root in roots)
        assert len(set.union(*roots)) == 3
        for report in reports[1:]:
            assert np.array_equal(
                report.label_matrix.matrix, reports[0].label_matrix.matrix
            )

    def test_full_run_stages_model(self, topic_dataset, topic_slice):
        lfs, _ = build_topic_lfs(topic_dataset.world)
        registry = ModelRegistry()
        pipeline = DryBellPipeline(
            lfs,
            featurizer=topic_featurizer(num_buckets=2 ** 12),
            trainer=fast_trainer(),
            label_model_config=fast_label_config(),
            registry=registry,
            model_name="topic-clf",
        )
        dev = topic_dataset.dev[:200]
        dev_labels = np.array([e.label for e in dev])
        artifacts = pipeline.run(
            topic_slice, eval_examples=dev, eval_labels=dev_labels
        )
        assert artifacts.pipeline_run is not None
        staged = registry.latest("topic-clf")
        assert staged is not None
        assert staged.metrics  # evaluator ran

    def test_staged_model_servable_end_to_end(self, topic_dataset, topic_slice):
        lfs, _ = build_topic_lfs(topic_dataset.world)
        registry = ModelRegistry()
        pipeline = DryBellPipeline(
            lfs,
            featurizer=topic_featurizer(num_buckets=2 ** 12),
            trainer=fast_trainer(),
            label_model_config=fast_label_config(),
            registry=registry,
            model_name="topic-clf",
        )
        pipeline.run(topic_slice)
        server = ProductionServer(registry, "topic-clf")
        server.refresh()
        score = server.predict(topic_dataset.test[0])
        assert 0.0 <= score <= 1.0

    def test_wall_time_recorded(self, topic_dataset, topic_slice):
        lfs, _ = build_topic_lfs(topic_dataset.world)
        pipeline = DryBellPipeline(
            lfs, label_model_config=fast_label_config()
        )
        artifacts = pipeline.run(topic_slice[:100])
        assert artifacts.wall_seconds > 0


class TestMapReduceAlignment:
    def test_soft_labels_align_with_examples_in_tfx(self, topic_dataset):
        """Regression: the MapReduce path returns label-matrix rows in
        shard-interleaved order; the TFX stage must receive examples in
        that same order or labels shuffle against features."""
        lfs, _ = build_topic_lfs(topic_dataset.world)
        registry = ModelRegistry()
        pipeline = DryBellPipeline(
            lfs,
            featurizer=topic_featurizer(num_buckets=2 ** 12),
            trainer=fast_trainer(),
            label_model_config=fast_label_config(),
            registry=registry,
            use_mapreduce=True,
            num_shards=5,
            model_name="aligned",
        )
        slice_ = topic_dataset.unlabeled[:600]
        artifacts = pipeline.run(slice_)
        model = artifacts.model
        featurizer = topic_featurizer(num_buckets=2 ** 12)
        y = np.array([e.label for e in topic_dataset.test])
        scores = model.predict_proba(featurizer.transform(topic_dataset.test))
        from repro.discriminative.metrics import average_precision

        # A model trained on shuffled labels ranks at the base rate
        # (AP ~ 0.07 here); an aligned one ranks nearly perfectly.
        assert average_precision(y, scores) > 0.5
