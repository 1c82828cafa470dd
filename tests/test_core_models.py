"""Tests for the Gibbs baseline and multiclass label models."""

import numpy as np
import pytest

from repro.core.gibbs import GibbsConfig, GibbsLabelModel
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.multiclass import MulticlassConfig, MulticlassLabelModel
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
            LabelModelConfig(n_steps=3000, seed=0)
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


def multiclass_matrix(m=2500, k=3, accuracies=(0.9, 0.8, 0.7, 0.65), seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(1, k + 1, size=m)
    L = np.zeros((m, len(accuracies)), dtype=np.int64)
    for j, acc in enumerate(accuracies):
        fire = rng.random(m) < 0.7
        correct = rng.random(m) < acc
        wrong = rng.integers(1, k, size=m)
        wrong = np.where(wrong >= y, wrong + 1, wrong)
        L[fire, j] = np.where(correct[fire], y[fire], wrong[fire])
    return L, y


class TestMulticlass:
    def test_validation(self):
        with pytest.raises(ValueError, match="two classes"):
            MulticlassLabelModel(1)
        model = MulticlassLabelModel(3)
        with pytest.raises(ValueError, match="votes must be in"):
            model.fit(np.array([[4, 0]]))
        with pytest.raises(RuntimeError):
            MulticlassLabelModel(3).predict_proba(np.zeros((1, 2)))

    def test_posterior_rows_sum_to_one(self):
        L, _ = multiclass_matrix(seed=3)
        model = MulticlassLabelModel(
            3, MulticlassConfig(n_steps=800, seed=0)
        ).fit(L)
        probs = model.predict_proba(L)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_recovers_labels(self):
        L, y = multiclass_matrix(seed=4)
        model = MulticlassLabelModel(
            3, MulticlassConfig(n_steps=1500, seed=0)
        ).fit(L)
        covered = (L != 0).sum(axis=1) > 0
        assert (model.predict(L) == y)[covered].mean() > 0.85

    def test_accuracy_ordering(self):
        L, _ = multiclass_matrix(seed=5)
        model = MulticlassLabelModel(
            3, MulticlassConfig(n_steps=1500, seed=0)
        ).fit(L)
        accs = model.accuracies()
        assert accs[0] > accs[-1]

    def test_all_abstain_uniform(self):
        L, _ = multiclass_matrix(seed=6)
        model = MulticlassLabelModel(
            3, MulticlassConfig(n_steps=500, seed=0)
        ).fit(L)
        probs = model.predict_proba(np.zeros((2, L.shape[1]), dtype=np.int64))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_binary_special_case_matches_binary_model(self):
        """k=2 multiclass should order posteriors like the binary model."""
        L_binary, y = synthetic_label_matrix(m=1200, seed=7)
        L_mc = np.where(L_binary == -1, 2, L_binary).astype(np.int64)
        mc = MulticlassLabelModel(
            2, MulticlassConfig(n_steps=1500, seed=0)
        ).fit(L_mc)
        binary = SamplingFreeLabelModel(
            LabelModelConfig(n_steps=1500, seed=0)
        ).fit(L_binary)
        p_mc = mc.predict_proba(L_mc)[:, 0]
        p_bin = binary.predict_proba(L_binary)
        covered = np.abs(L_binary).sum(axis=1) > 0
        agree = ((p_mc > 0.5) == (p_bin > 0.5))[covered].mean()
        assert agree > 0.95
