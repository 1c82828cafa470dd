"""Tests for the experiment harness (structure and math, tiny scale).

These tests exercise the harness plumbing at tiny scale with reduced
training budgets — the full reproduction numbers live in the benchmark
suite (see benchmarks/).
"""

import numpy as np
import pytest

from repro.config import TINY_SCALE
from repro.discriminative.logistic import LogisticConfig
from repro.experiments.harness import (
    GEN_MODEL_THRESHOLD,
    ContentExperiment,
    EventsExperiment,
    get_content_experiment,
    get_events_experiment,
)


class FastContentExperiment(ContentExperiment):
    """Tiny-scale experiment with a reduced training budget."""

    def logistic_config(self):
        return LogisticConfig(n_iterations=500, seed=self.seed)

    def label_model_config(self):
        from repro.core.label_model import LabelModelConfig

        return LabelModelConfig(seed=self.seed)


@pytest.fixture(scope="module")
def fast_topic():
    return FastContentExperiment("topic", TINY_SCALE, seed=3)


class TestContentHarness:
    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            ContentExperiment("weather")

    def test_artifacts_shapes(self, fast_topic):
        assert fast_topic.L_unlabeled.n_lfs == 10
        assert fast_topic.X_test.shape[0] == len(fast_topic.y_test)
        assert set(np.unique(fast_topic.y_dev)) == {-1, 1}

    def test_caching_is_lazy_and_stable(self, fast_topic):
        first = fast_topic.label_model
        second = fast_topic.label_model
        assert first is second

    def test_baseline_is_reasonable(self, fast_topic):
        metrics = fast_topic.baseline_metrics
        assert metrics.precision > 0.5
        assert 0.0 < metrics.recall <= 1.0

    def test_drybell_beats_baseline_f1(self, fast_topic):
        rel = fast_topic.relative(fast_topic.drybell_metrics)
        assert rel["f1"] > 100.0

    def test_generative_threshold_is_strict(self):
        assert GEN_MODEL_THRESHOLD > 0.5

    def test_covered_rows_excludes_all_abstain(self, fast_topic):
        mask = fast_topic.covered_rows
        votes = np.abs(fast_topic.L_unlabeled.matrix).sum(axis=1)
        assert np.array_equal(mask, votes > 0)

    def test_arm_with_lfs_subset(self, fast_topic):
        names = fast_topic.registry.servable_names()
        metrics = fast_topic.arm_with_lfs(names)
        assert 0.0 <= metrics.f1 <= 1.0

    def test_hand_label_metrics_validates_budget(self, fast_topic):
        with pytest.raises(ValueError):
            fast_topic.hand_label_metrics(10 ** 9)

    def test_relative_normalization_identity(self, fast_topic):
        rel = fast_topic.relative(fast_topic.baseline_metrics)
        assert rel["f1"] == pytest.approx(100.0)
        assert rel["lift"] == pytest.approx(0.0)

    def test_session_cache_by_key(self):
        a = get_content_experiment("topic", "tiny", seed=99)
        b = get_content_experiment("topic", "tiny", seed=99)
        c = get_content_experiment("topic", "tiny", seed=100)
        assert a is b
        assert a is not c


class TestEventsHarness:
    @pytest.fixture(scope="class")
    def events(self):
        return EventsExperiment(TINY_SCALE, seed=1)

    def test_prior_estimated_from_calibration(self, events):
        assert 0.01 <= events.class_prior <= 0.5

    def test_review_budget(self, events):
        assert events.review_budget() == int(
            len(events.dataset.test) * EventsExperiment.REVIEW_BUDGET_FRACTION
        )

    def test_events_identified_bounded_by_budget(self, events):
        rng = np.random.default_rng(0)
        scores = rng.random(len(events.dataset.test))
        found = events.events_identified(scores)
        assert 0 <= found <= events.review_budget()

    def test_quality_metric_perfect_ranking(self, events):
        gold = events.dataset.test_gold
        perfect = (gold == 1).astype(float)
        assert events.quality_metric(perfect) > 0.95

    def test_session_cache(self):
        a = get_events_experiment("tiny", seed=123)
        b = get_events_experiment("tiny", seed=123)
        assert a is b


class TestExperimentResult:
    def test_write_creates_file(self, tmp_path):
        from repro.experiments.harness import ExperimentResult

        result = ExperimentResult("unit_test_table", "hello world")
        path = result.write(directory=str(tmp_path))
        assert open(path).read().strip() == "hello world"


class TestFigure5Helpers:
    def test_crossover_interpolation(self):
        from repro.experiments.figure5 import _crossover

        assert _crossover([10, 20], [90.0, 110.0], 100.0) == pytest.approx(15.0)
        assert _crossover([10, 20], [90.0, 95.0], 100.0) is None
        assert _crossover([10, 20], [105.0, 120.0], 100.0) == pytest.approx(10.0)

    def test_sweep_sizes_scale_with_pool(self):
        from repro.experiments.figure5 import sweep_sizes

        sizes = sweep_sizes("topic", 10_000, full_scale=False)
        assert sizes[-1] == 10_000
        assert sizes == sorted(sizes)
        full = sweep_sizes("topic", 684_000, full_scale=True)
        assert full[0] == 25_000 and full[-1] == 145_000  # Figure 5 x-axis

    def test_distribution_stats(self):
        from repro.experiments.figure6 import distribution_stats

        stats = distribution_stats(np.array([0.95, 0.96, 0.97, 0.5]))
        assert stats["mass_above_0.9"] == pytest.approx(0.75)
        assert stats["occupied_bins"] >= 2
