"""Tests for the Gibbs-sampling baseline label model."""

import numpy as np
import pytest

from repro.core.gibbs import GibbsConfig, GibbsLabelModel
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from tests.conftest import synthetic_label_matrix


class TestGibbs:
    def test_recovers_accuracy_ordering(self, recovery_matrix):
        L, _ = recovery_matrix
        model = GibbsLabelModel(GibbsConfig(n_epochs=15, seed=0)).fit(L)
        accs = model.accuracies()
        assert accs[0] > accs[-1]

    def test_agrees_with_sampling_free_predictions(self, recovery_matrix):
        """Both trainers target the same model; their posteriors must
        classify (almost) identically on conditionally independent data."""
        L, _ = recovery_matrix
        gibbs = GibbsLabelModel(GibbsConfig(n_epochs=15, seed=0)).fit(L)
        exact = SamplingFreeLabelModel(
            LabelModelConfig(seed=0)
        ).fit(L)
        covered = np.abs(L).sum(axis=1) > 0
        agree = (
            (gibbs.predict_proba(L) > 0.5) == (exact.predict_proba(L) > 0.5)
        )[covered].mean()
        assert agree > 0.93

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GibbsLabelModel().predict_proba(np.zeros((1, 3)))

    def test_min_alpha_floor(self, recovery_matrix):
        L, _ = recovery_matrix
        model = GibbsLabelModel(GibbsConfig(n_epochs=5, seed=1)).fit(L)
        assert np.all(model.accuracies() >= 0.5)

    def test_examples_processed_counter(self):
        L, _ = synthetic_label_matrix(m=320, seed=1)
        model = GibbsLabelModel(GibbsConfig(n_epochs=2, batch_size=64)).fit(L)
        assert model.examples_processed == 640

    def test_benchmark_reports_positive_rate(self):
        L, _ = synthetic_label_matrix(m=500, seed=2)
        rate = GibbsLabelModel(GibbsConfig(seed=0)).benchmark_examples_per_second(
            L, budget_seconds=0.1
        )
        assert rate > 0
