"""Tests for vote combiners, LF analysis, and noise-aware utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.analysis import LFAnalysis
from repro.core.combiners import (
    equal_weight_probabilities,
    logical_or_labels,
    logical_or_probabilities,
    majority_vote_labels,
    weighted_vote_probabilities,
)
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.noise_aware import (
    clip_probabilities,
    expected_log_loss,
    labels_to_soft_targets,
    soft_targets_to_weights,
)
from tests.conftest import synthetic_label_matrix

vote_matrices = hnp.arrays(
    np.int8,
    st.tuples(st.integers(1, 20), st.integers(1, 6)),
    elements=st.sampled_from([-1, 0, 1]),
)


class TestEqualWeights:
    def test_unweighted_average(self):
        L = np.array([[1, 1, -1], [0, 0, 0], [-1, -1, -1]])
        probs = equal_weight_probabilities(L)
        assert probs[0] == pytest.approx((1 + 1 / 3) / 2)
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(0.0)

    def test_empty_lf_set(self):
        assert np.allclose(equal_weight_probabilities(np.zeros((3, 0))), 0.5)

    @given(vote_matrices)
    def test_bounds_and_symmetry(self, L):
        probs = equal_weight_probabilities(L)
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.allclose(probs, 1.0 - equal_weight_probabilities(-L))


class TestMajorityVote:
    def test_basic(self):
        L = np.array([[1, 1, -1], [-1, -1, 1], [0, 0, 0]])
        assert majority_vote_labels(L).tolist() == [1, -1, -1]

    def test_tie_break_configurable(self):
        L = np.array([[1, -1]])
        assert majority_vote_labels(L, tie_break=1).tolist() == [1]

    @given(vote_matrices)
    def test_output_in_pm1(self, L):
        labels = majority_vote_labels(L)
        assert set(np.unique(labels)) <= {-1, 1}


class TestLogicalOr:
    def test_any_positive_wins(self):
        L = np.array([[0, 0, 1], [-1, -1, -1], [0, 0, 0]])
        assert logical_or_labels(L).tolist() == [1, -1, -1]

    def test_probabilities_degenerate(self):
        L = np.array([[1, 0], [0, 0]])
        assert logical_or_probabilities(L).tolist() == [1.0, 0.0]

    @given(vote_matrices)
    def test_or_dominates_majority_positive_rate(self, L):
        """OR can only flag a superset of majority-vote positives."""
        or_pos = logical_or_labels(L) == 1
        mv_pos = majority_vote_labels(L) == 1
        assert np.all(or_pos | ~mv_pos)


class TestWeightedVote:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="weights shape"):
            weighted_vote_probabilities(np.zeros((2, 3)), np.zeros(2))

    def test_reproduces_label_model_posterior(self):
        """weights = 2*alpha must reproduce the fitted model exactly."""
        L, _ = synthetic_label_matrix(m=600, seed=3)
        model = SamplingFreeLabelModel(
            LabelModelConfig(seed=0)
        ).fit(L)
        manual = weighted_vote_probabilities(L, 2.0 * model.alpha)
        assert np.allclose(manual, model.predict_proba(L), atol=1e-12)

    def test_zero_weights_give_half(self):
        L = np.array([[1, -1], [0, 1]])
        assert np.allclose(weighted_vote_probabilities(L, np.zeros(2)), 0.5)


class TestLFAnalysis:
    def _analysis(self):
        L = np.array(
            [
                [1, 1, 0],
                [1, -1, 0],
                [0, 0, 0],
                [-1, 0, 0],
            ],
            dtype=np.int8,
        )
        return LFAnalysis(L, ["a", "b", "c"])

    def test_coverage(self):
        assert self._analysis().coverage().tolist() == [0.75, 0.5, 0.0]

    def test_overlap(self):
        overlap = self._analysis().overlap()
        assert overlap.tolist() == [0.5, 0.5, 0.0]

    def test_conflict(self):
        conflict = self._analysis().conflict()
        assert conflict.tolist() == [0.25, 0.25, 0.0]

    def test_polarities(self):
        assert self._analysis().polarities() == [(-1, 1), (-1, 1), ()]

    def test_empirical_accuracies(self):
        gold = np.array([1, 1, -1, -1])
        accs = self._analysis().empirical_accuracies(gold)
        assert accs[0] == pytest.approx(1.0)
        assert accs[1] == pytest.approx(0.5)
        assert np.isnan(accs[2])

    def test_empirical_accuracy_shape_validation(self):
        with pytest.raises(ValueError):
            self._analysis().empirical_accuracies(np.array([1, -1]))

    def test_agreement_matrix(self):
        A = self._analysis().agreement_matrix()
        assert A[0, 1] == pytest.approx(0.5)
        assert np.isnan(A[0, 2])
        assert A[0, 0] == pytest.approx(1.0)

    def test_summary_joins_learned_accuracies(self):
        summary = self._analysis().summary(
            gold=np.array([1, 1, -1, -1]),
            learned_accuracies=np.array([0.9, 0.6, 0.5]),
        )
        assert summary[0].learned_accuracy == pytest.approx(0.9)
        assert summary[2].empirical_accuracy is None

    def test_flag_low_quality(self):
        flagged = self._analysis().flag_low_quality(
            np.array([0.9, 0.55, 0.5]), threshold=0.6
        )
        assert flagged == ["b", "c"]

    def test_flag_validates_length(self):
        with pytest.raises(ValueError):
            self._analysis().flag_low_quality(np.array([0.9]))

    def test_as_table_renders(self):
        table = self._analysis().as_table(gold=np.array([1, 1, -1, -1]))
        assert "labeling function" in table
        assert "a" in table

    def test_name_length_validated(self):
        with pytest.raises(ValueError):
            LFAnalysis(np.zeros((2, 2), dtype=np.int8), ["only-one"])


class TestNoiseAware:
    def test_labels_to_soft_targets(self):
        soft = labels_to_soft_targets(np.array([1, -1, 1]))
        assert soft.tolist() == [1.0, 0.0, 1.0]

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            labels_to_soft_targets(np.array([1, 0]))

    def test_soft_targets_to_weights(self):
        pos, neg = soft_targets_to_weights(np.array([0.7, 0.2]))
        assert pos.tolist() == [0.7, 0.2]
        assert neg.tolist() == pytest.approx([0.3, 0.8])

    def test_soft_targets_validated(self):
        with pytest.raises(ValueError):
            soft_targets_to_weights(np.array([1.2]))

    def test_expected_log_loss_hard_labels(self):
        predicted = np.array([0.9, 0.1])
        soft = np.array([1.0, 0.0])
        loss = expected_log_loss(predicted, soft)
        assert loss == pytest.approx(-np.log(0.9), rel=1e-6)

    def test_expected_log_loss_uncertain_target_minimized_at_target(self):
        soft = np.full(100, 0.3)
        at_target = expected_log_loss(np.full(100, 0.3), soft)
        away = expected_log_loss(np.full(100, 0.8), soft)
        assert at_target < away

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            expected_log_loss(np.zeros(2), np.zeros(3))

    def test_clip_probabilities(self):
        clipped = clip_probabilities(np.array([0.0, 1.0]))
        assert clipped[0] > 0
        assert clipped[1] < 1

    def test_empty_loss_is_zero(self):
        assert expected_log_loss(np.array([]), np.array([])) == 0.0

    @settings(max_examples=30)
    @given(
        hnp.arrays(np.float64, 10, elements=st.floats(0.01, 0.99)),
    )
    def test_loss_nonnegative(self, p):
        assert expected_log_loss(p, p) >= 0.0
