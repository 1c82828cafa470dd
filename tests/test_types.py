"""Tests for the core value types."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.types import (
    ABSTAIN,
    NEGATIVE,
    POSITIVE,
    Example,
    LabelMatrix,
    LFVote,
    coverage,
    polarity,
)


class TestVoteConstants:
    def test_values_match_paper_convention(self):
        assert POSITIVE == 1
        assert NEGATIVE == -1
        assert ABSTAIN == 0

    def test_enum_matches_constants(self):
        assert LFVote.POSITIVE == POSITIVE
        assert LFVote.NEGATIVE == NEGATIVE
        assert LFVote.ABSTAIN == ABSTAIN

    def test_enum_is_int(self):
        assert int(LFVote.NEGATIVE) == -1


class TestExample:
    def test_record_round_trip(self):
        example = Example(
            example_id="x1",
            fields={"title": "hello", "body": "world"},
            servable={"len": 2.0},
            non_servable={"score": 0.7},
            label=1,
        )
        restored = Example.from_record(example.to_record())
        assert restored == example

    def test_from_record_adopts_the_record_dicts(self):
        record = {"example_id": "x3", "fields": {"t": "a"}, "servable": {"n": 1.0},
                  "non_servable": {"s": 0.5}, "label": 0}
        restored = Example.from_record(record)
        assert restored.fields is record["fields"]
        assert restored.servable is record["servable"]
        assert restored.non_servable is record["non_servable"]

    def test_from_record_defaults_missing_views(self):
        restored = Example.from_record({"example_id": "x2"})
        assert restored.fields == {}
        assert restored.servable == {}
        assert restored.non_servable == {}
        assert restored.label is None
        nones = {"example_id": "x2", "fields": None, "servable": None, "non_servable": None}
        assert Example.from_record(nones) == restored

    @pytest.mark.parametrize(
        "example_id", ["\ud800\udc00", "pair\udbff\udfffend", "lone\ud800", "\udc00"]
    )
    def test_surrogate_ids_are_refused(self, example_id):
        """JSON reads an escaped surrogate pair back as one astral
        character, so such an id would not survive a shard."""
        with pytest.raises(ValueError, match="surrogate"):
            Example(example_id)
        with pytest.raises(ValueError, match="surrogate"):
            Example.from_record({"example_id": example_id})

    def test_astral_and_int_ids_are_kept(self):
        assert Example("\U00010000").example_id == "\U00010000"
        assert Example(7).example_id == 7

    def test_unlabeled_by_default(self):
        assert Example(example_id="x").label is None

    def test_record_is_json_compatible(self):
        import json

        example = Example(example_id="x", fields={"a": [1, 2]})
        assert json.loads(json.dumps(example.to_record()))["example_id"] == "x"


class TestLabelMatrix:
    def _matrix(self):
        return LabelMatrix(
            np.array([[1, 0], [-1, 1], [0, 0]]),
            ["a", "b", "c"],
            ["lf1", "lf2"],
        )

    def test_shape_properties(self):
        matrix = self._matrix()
        assert matrix.shape == (3, 2)
        assert matrix.n_examples == 3
        assert matrix.n_lfs == 2

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            LabelMatrix(np.zeros(3), ["a", "b", "c"], [])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            LabelMatrix(np.zeros((3, 1)), ["a", "b"], ["lf1"])

    def test_rejects_column_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            LabelMatrix(np.zeros((2, 2)), ["a", "b"], ["lf1"])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            LabelMatrix(np.zeros((2, 1)), ["a", "a"], ["lf1"])
        # A duplicate LF name would hide the second column from
        # column() and select_lfs().
        with pytest.raises(ValueError, match="duplicate"):
            LabelMatrix(np.array([[0, -1]]), ["x"], ["k", "k"])

    def test_column_lookup(self):
        matrix = self._matrix()
        assert list(matrix.column("lf2")) == [0, 1, 0]

    def test_select_lfs_projects_and_orders(self):
        matrix = self._matrix()
        projected = matrix.select_lfs(["lf2", "lf1"])
        assert projected.lf_names == ["lf2", "lf1"]
        assert list(projected.matrix[1]) == [1, -1]

    def test_select_examples(self):
        matrix = self._matrix()
        projected = matrix.select_examples(["c", "a"])
        assert projected.example_ids == ["c", "a"]
        assert list(projected.matrix[1]) == [1, 0]


class TestCoverageAndPolarity:
    def test_coverage_counts_any_vote(self):
        L = np.array([[1, 0], [0, 0], [0, -1], [0, 0]])
        assert coverage(L) == pytest.approx(0.5)

    def test_coverage_empty_matrix(self):
        assert coverage(np.zeros((0, 3))) == 0.0

    def test_polarity_excludes_abstain(self):
        assert polarity(np.array([1, 0, 1, 0])) == (1,)
        assert polarity(np.array([1, -1, 0])) == (-1, 1)
        assert polarity(np.array([0, 0])) == ()

    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=50)
    )
    def test_coverage_bounds(self, votes):
        L = np.array(votes).reshape(-1, 1)
        assert 0.0 <= coverage(L) <= 1.0
