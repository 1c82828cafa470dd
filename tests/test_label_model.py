"""Tests for the sampling-free generative label model (Section 5.2)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.patterns import compress_votes
from tests.conftest import synthetic_label_matrix


def quick_config(**overrides) -> LabelModelConfig:
    defaults = dict(n_steps=1200, seed=0)
    defaults.update(overrides)
    return LabelModelConfig(**defaults)


class TestValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            SamplingFreeLabelModel(quick_config()).fit(np.array([1, 0, -1]))

    def test_rejects_out_of_range_votes(self):
        with pytest.raises(ValueError, match="-1, 0, 1"):
            SamplingFreeLabelModel(quick_config()).fit(np.array([[2, 0]]))

    def test_unfitted_model_raises(self):
        model = SamplingFreeLabelModel()
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict_proba(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            model.accuracies()

    def test_partial_step_requires_init(self):
        model = SamplingFreeLabelModel()
        with pytest.raises(RuntimeError, match="init_params"):
            model.partial_step(np.zeros((4, 2)))

    @pytest.mark.parametrize(
        "bad, field",
        [
            (dict(n_steps=-1), "n_steps"),
            (dict(n_steps=-1, batch_size=10_000), "n_steps"),
            (dict(batch_size=0), "batch_size"),
            (dict(batch_size=-3), "batch_size"),
        ],
    )
    def test_rejected_fit_leaves_a_fitted_model_unchanged(self, bad, field):
        """``fit_compressed`` validates before it mutates: a config it
        cannot run is a ``ValueError`` naming the field, in either
        step regime, and the previous fit survives."""
        L, _ = synthetic_label_matrix(m=150, seed=2)
        votes = compress_votes(L)
        model = SamplingFreeLabelModel(quick_config(n_steps=80, track_loss_every=10))
        model.fit_compressed(votes)
        before = (
            model.alpha.copy(),
            model.beta.copy(),
            model.prior_logit,
            list(model.loss_history),
            model.steps_taken,
        )
        model.config = quick_config(**bad)
        with pytest.raises(ValueError, match=field):
            model.fit_compressed(votes)
        assert np.array_equal(model.alpha, before[0])
        assert np.array_equal(model.beta, before[1])
        assert (model.prior_logit, model.loss_history, model.steps_taken) == before[2:]

    def test_zero_row_votes_rejected_without_warnings(self):
        """A 0-row matrix is a ``ValueError`` naming ``n_rows``, not a
        NumPy divide warning followed by ``ZeroDivisionError``."""
        empty = compress_votes(np.zeros((0, 4), dtype=np.int8))
        model = SamplingFreeLabelModel(quick_config(n_steps=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_rows"):
                model.fit_compressed(empty)
            with pytest.raises(ValueError, match="n_rows"):
                model.fit(np.zeros((0, 4), dtype=np.int8))
        assert model.alpha is None and model.steps_taken == 0


class TestParameterRecovery:
    def test_accuracies_recovered_on_balanced_data(self, recovery_matrix):
        L, y = recovery_matrix
        model = SamplingFreeLabelModel(quick_config(n_steps=4000)).fit(L)
        learned = model.accuracies()
        true = np.array([0.92, 0.85, 0.8, 0.72, 0.65, 0.6])
        assert np.all(np.abs(learned - true) < 0.09)

    def test_propensities_recovered(self, recovery_matrix):
        L, _ = recovery_matrix
        model = SamplingFreeLabelModel(quick_config(n_steps=4000)).fit(L)
        learned = model.propensities()
        true = np.array([0.6, 0.5, 0.7, 0.4, 0.55, 0.45])
        assert np.all(np.abs(learned - true) < 0.06)

    def test_posterior_beats_single_lf(self, recovery_matrix):
        L, y = recovery_matrix
        model = SamplingFreeLabelModel(quick_config(n_steps=4000)).fit(L)
        predictions = model.predict(L)
        combined_accuracy = (predictions == y).mean()
        # The best single LF fires 60% of the time at 92% accuracy;
        # fully-covered posterior prediction must beat any single column.
        best_single = max(
            (L[:, j] == y)[L[:, j] != 0].mean() * (L[:, j] != 0).mean()
            + 0.5 * (L[:, j] == 0).mean()
            for j in range(L.shape[1])
        )
        assert combined_accuracy > best_single

    def test_accuracy_ordering_preserved(self, recovery_matrix):
        L, _ = recovery_matrix
        model = SamplingFreeLabelModel(quick_config(n_steps=4000)).fit(L)
        learned = model.accuracies()
        # The clearly-best LF must outrank the clearly-worst.
        assert learned[0] > learned[-1] + 0.1


class TestPosteriorProperties:
    def test_all_abstain_row_posterior_equals_prior(self):
        L, _ = synthetic_label_matrix(m=500, seed=1)
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        empty = np.zeros((3, L.shape[1]), dtype=np.int8)
        assert np.allclose(model.predict_proba(empty), model.class_prior())

    def test_label_flip_symmetry(self):
        """P(+1 | L) == 1 - P(+1 | -L) under the uniform prior."""
        L, _ = synthetic_label_matrix(m=800, seed=2)
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        p = model.predict_proba(L)
        p_flipped = model.predict_proba(-L)
        assert np.allclose(p, 1.0 - p_flipped, atol=1e-12)

    def test_more_positive_votes_increase_posterior(self):
        L, _ = synthetic_label_matrix(m=800, seed=3)
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        n = L.shape[1]
        rows = np.zeros((n + 1, n), dtype=np.int8)
        for k in range(1, n + 1):
            rows[k, :k] = 1
        p = model.predict_proba(rows)
        assert np.all(np.diff(p) >= -1e-12)

    def test_predict_strictness_on_no_evidence(self):
        L, _ = synthetic_label_matrix(m=500, seed=4)
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        empty = np.zeros((1, L.shape[1]), dtype=np.int8)
        # No evidence must not be called positive.
        assert model.predict(empty)[0] == -1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=3 ** 5 - 1))
    def test_posterior_in_unit_interval(self, encoded):
        L, _ = synthetic_label_matrix(m=400, seed=5)
        model = SamplingFreeLabelModel(quick_config(n_steps=400)).fit(L)
        row = np.array(
            [[(encoded // 3 ** j) % 3 - 1 for j in range(5)]], dtype=np.int8
        )
        p = model.predict_proba(row)
        assert 0.0 <= p[0] <= 1.0


class TestTrainingBehaviour:
    def test_nll_improves_over_training(self):
        L, _ = synthetic_label_matrix(m=1500, seed=6)
        short = SamplingFreeLabelModel(quick_config(n_steps=50)).fit(L)
        long = SamplingFreeLabelModel(quick_config(n_steps=4000)).fit(L)
        assert long.nll(L) <= short.nll(L) + 1e-6

    def test_loss_history_recorded(self):
        L, _ = synthetic_label_matrix(m=500, seed=7)
        model = SamplingFreeLabelModel(
            quick_config(n_steps=200, track_loss_every=50)
        ).fit(L)
        assert len(model.loss_history) == 4
        steps = [s for s, _ in model.loss_history]
        assert steps == [0, 50, 100, 150]

    def test_deterministic_given_seed(self):
        L, _ = synthetic_label_matrix(m=600, seed=8)
        a = SamplingFreeLabelModel(quick_config(seed=42)).fit(L)
        b = SamplingFreeLabelModel(quick_config(seed=42)).fit(L)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.beta, b.beta)

    def test_min_alpha_projection(self):
        L, _ = synthetic_label_matrix(m=500, seed=10)
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        assert np.all(model.alpha >= 0.0)
        assert np.all(model.accuracies() >= 0.5)

    def test_partial_step_reduces_loss(self):
        L, _ = synthetic_label_matrix(m=800, seed=12)
        model = SamplingFreeLabelModel(quick_config())
        model.init_params(L.shape[1])
        first = model.partial_step(L[:200])
        for _ in range(100):
            last = model.partial_step(L[:200])
        assert last < first

    def test_steps_taken_counter(self):
        L, _ = synthetic_label_matrix(m=300, seed=13)
        model = SamplingFreeLabelModel(quick_config(n_steps=77)).fit(L)
        assert model.steps_taken == 77


class TestClassPrior:
    def test_uniform_prior_default(self):
        model = SamplingFreeLabelModel()
        assert model.class_prior() == pytest.approx(0.5)

    def test_fixed_prior_shifts_posteriors(self):
        L, _ = synthetic_label_matrix(m=800, seed=14)
        low = SamplingFreeLabelModel(
            quick_config(init_class_prior=0.1)
        ).fit(L)
        empty = np.zeros((1, L.shape[1]), dtype=np.int8)
        assert low.predict_proba(empty)[0] == pytest.approx(0.1, abs=1e-6)

    def test_learned_prior_tracks_imbalance(self):
        L, y = synthetic_label_matrix(
            m=4000,
            accuracies=(0.95, 0.92, 0.9, 0.88, 0.85),
            propensities=(0.8, 0.8, 0.8, 0.8, 0.8),
            positive_rate=0.25,
            seed=15,
        )
        model = SamplingFreeLabelModel(
            quick_config(learn_class_prior=True, n_steps=4000)
        ).fit(L)
        assert 0.15 < model.class_prior() < 0.40
