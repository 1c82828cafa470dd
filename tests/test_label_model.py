"""Tests for the sampling-free generative label model (Section 5.2)."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.patterns import compress_votes
from tests.conftest import synthetic_label_matrix


def quick_config(**overrides) -> LabelModelConfig:
    defaults = dict(seed=0)
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

    @pytest.mark.parametrize(
        "bad, field",
        [
            (dict(init_class_prior=0.0), "init_class_prior"),
            (dict(init_class_prior=1.0), "init_class_prior"),
            (dict(init_class_prior=1.5), "init_class_prior"),
            (dict(init_class_prior=-2.0), "init_class_prior"),
            (dict(init_class_prior=float("nan")), "init_class_prior"),
        ],
    )
    def test_rejected_fit_leaves_a_fitted_model_unchanged(self, bad, field):
        """``fit_compressed`` validates before it mutates: a config it
        cannot run is a ``ValueError`` naming the field, and the
        previous fit survives."""
        L, _ = synthetic_label_matrix(m=150, seed=2)
        votes = compress_votes(L)
        model = SamplingFreeLabelModel(quick_config())
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

    @pytest.mark.parametrize("prior", [0.0, 1.5, -2.0])
    def test_out_of_range_class_prior_is_rejected_not_clipped(self, prior):
        """A prior outside (0, 1) used to be clipped to 1e-9 or 1 - 1e-9,
        which labels every row one class. It is a ``ValueError`` at
        construction and in ``fit_compressed``."""
        with pytest.raises(ValueError, match="init_class_prior"):
            SamplingFreeLabelModel(quick_config(init_class_prior=prior))
        model = SamplingFreeLabelModel(quick_config())
        model.fit(np.array([[1, 0, -1], [1, 1, 0]]))
        before = (model.alpha.copy(), model.beta.copy(), model.prior_logit)
        model.config = quick_config(init_class_prior=prior)
        with pytest.raises(ValueError, match="init_class_prior"):
            model.fit(np.array([[1, 0, -1, 1, 0], [1, 1, 0, 0, -1]]))
        assert model.n_lfs == 3 and model.prior_logit == before[2]
        assert np.array_equal(model.alpha, before[0])
        assert np.array_equal(model.beta, before[1])

    def test_zero_row_votes_rejected_without_warnings(self):
        """A 0-row matrix is a ``ValueError`` naming ``n_rows``, not a
        NumPy divide warning followed by ``ZeroDivisionError``."""
        empty = compress_votes(np.zeros((0, 4), dtype=np.int8))
        model = SamplingFreeLabelModel(quick_config())
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
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        learned = model.accuracies()
        true = np.array([0.92, 0.85, 0.8, 0.72, 0.65, 0.6])
        assert np.all(np.abs(learned - true) < 0.09)

    def test_propensities_recovered(self, recovery_matrix):
        L, _ = recovery_matrix
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        learned = model.propensities()
        true = np.array([0.6, 0.5, 0.7, 0.4, 0.55, 0.45])
        assert np.all(np.abs(learned - true) < 0.06)

    def test_posterior_beats_single_lf(self, recovery_matrix):
        L, y = recovery_matrix
        model = SamplingFreeLabelModel(quick_config()).fit(L)
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
        model = SamplingFreeLabelModel(quick_config()).fit(L)
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
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        row = np.array(
            [[(encoded // 3 ** j) % 3 - 1 for j in range(5)]], dtype=np.int8
        )
        p = model.predict_proba(row)
        assert 0.0 <= p[0] <= 1.0


class TestTrainingBehaviour:
    def test_nll_improves_over_training(self):
        """The solve descends from its warm start."""
        L, _ = synthetic_label_matrix(m=1500, seed=6)
        model = SamplingFreeLabelModel(quick_config())
        model.alpha = np.full(L.shape[1], 0.7)
        propensity = np.clip(np.abs(L).mean(axis=0), 1e-3, 1 - 1e-3)
        model.beta = np.log(propensity / (1 - propensity)) / 2.0
        warm_start = model.nll(L)
        assert model.fit(L).nll(L) < warm_start - 1e-3

    def test_loss_history_recorded(self):
        """A fit records one pair: its iterations and its final mean
        NLL."""
        L, _ = synthetic_label_matrix(m=500, seed=7)
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        [(iterations, loss)] = model.loss_history
        assert 0 < iterations < 100
        assert loss == pytest.approx(model.nll(L), abs=1e-12)

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

    def test_steps_taken_counter(self):
        """Solver iterations count, across fits."""
        L, _ = synthetic_label_matrix(m=300, seed=13)
        model = SamplingFreeLabelModel(quick_config()).fit(L)
        iterations = model.loss_history[-1][0]
        assert model.steps_taken == iterations > 0
        model.fit(L)
        assert model.steps_taken == 2 * iterations


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
            quick_config(learn_class_prior=True)
        ).fit(L)
        assert 0.15 < model.class_prior() < 0.40


def test_label_model_paths_do_not_import_scipy_optimize():
    """The fit is pure NumPy. Importing ``scipy.optimize`` costs ~26 MB
    of resident memory and ~350 ms, so no module a labeling, streaming
    or serving process imports may pull it in."""
    code = (
        "import sys, repro.core, repro.streaming, repro.serving; "
        "print('scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "False", result.stdout


def test_label_paths_import_neither_scipy_nor_networkx():
    """``scipy.sparse`` (+16 MB RSS) loads only where a sparse matrix is
    built or checked, and nothing uses networkx (+18 MB): importing any
    labeling, streaming, serving or pool entry point loads neither."""
    code = (
        "import sys, repro.applications.product, repro.datasets.content, "
        "repro.lf.applier, repro.streaming, repro.serving, repro.parallel; "
        "print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "[]", result.stdout
