"""Core value types shared across the DryBell reproduction.

The paper's pipeline moves three kinds of data between components:

* unlabeled **examples** with heterogeneous fields (content, URLs, event
  signals, ...) split into *servable* and *non-servable* feature views
  (Section 4 of the paper),
* **labeling-function votes** in ``{-1, 0, +1}`` (0 = abstain) for binary
  tasks, or ``{0, 1..k}`` for categorical tasks (Section 2),
* the **label matrix** ``Lambda`` with one row per example and one column
  per labeling function (Section 2).

These types are deliberately small and dependency-free: labeling functions
are independent executables in the paper's architecture, so everything that
crosses a process boundary must serialize to plain dictionaries (see
:mod:`repro.dfs.records`).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "ABSTAIN",
    "NEGATIVE",
    "POSITIVE",
    "LFVote",
    "Example",
    "LabelMatrix",
    "coverage",
    "polarity",
    "require_int",
]

#: A surrogate code point: JSON reads an escaped pair back as one character.
_SURROGATE = re.compile("[\ud800-\udfff]")

#: Vote constants mirroring the C++ ``LFVote`` enum in Section 5.1.
ABSTAIN = 0
NEGATIVE = -1
POSITIVE = 1


class LFVote(enum.IntEnum):
    """Enumerated labeling-function vote for the binary setting.

    Mirrors the ``LFVote`` values returned by the paper's C++ template
    functions (``return NEGATIVE; ... return ABSTAIN;``).
    """

    NEGATIVE = -1
    ABSTAIN = 0
    POSITIVE = 1


@dataclass
class Example:
    """A single data point flowing through the DryBell pipeline.

    Parameters
    ----------
    example_id:
        Unique identifier; also the shard/sort key in the distributed
        filesystem. A ``str`` id holding a surrogate code point is a
        ``ValueError``: it would not read back from a shard as written.
    fields:
        Arbitrary raw fields (``title``, ``body``, ``url``, event signal
        names, ...). Labeling functions read these; the discriminative
        model never sees non-servable fields at serving time.
    servable:
        The servable feature view (cheap, real-time signals available in
        production; Section 4).
    non_servable:
        The non-servable feature view (aggregate statistics, expensive
        model outputs, crawler content; development-time only).
    label:
        Ground-truth label when known (dev/test splits); ``None`` for the
        unlabeled pool.
    """

    example_id: str
    fields: dict[str, Any] = field(default_factory=dict)
    servable: dict[str, Any] = field(default_factory=dict)
    non_servable: dict[str, Any] = field(default_factory=dict)
    label: int | None = None

    def __post_init__(self) -> None:
        example_id = self.example_id
        if type(example_id) is str and not example_id.isascii() and _SURROGATE.search(example_id):
            raise ValueError(f"example id {example_id!r} holds a surrogate code point")

    def to_record(self) -> dict[str, Any]:
        """Serialize to a plain dictionary for record-file storage."""
        return {
            "example_id": self.example_id,
            "fields": self.fields,
            "servable": self.servable,
            "non_servable": self.non_servable,
            "label": self.label,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Example":
        """Inverse of :meth:`to_record`.

        The example adopts the record's ``fields`` / ``servable`` /
        ``non_servable`` dicts as they are, not copies (a missing or
        ``None`` view becomes ``{}``): pass a freshly decoded record,
        one nothing else holds on to.
        """
        return cls(
            record["example_id"],
            record.get("fields") or {},
            record.get("servable") or {},
            record.get("non_servable") or {},
            record.get("label"),
        )


class LabelMatrix:
    """The matrix ``Lambda`` of labeling-function outputs (Section 2).

    ``Lambda[i, j] = lambda_j(X_i)`` with 0 meaning *abstain*. Rows are
    keyed by example id so that votes emitted by independently executed
    labeling-function binaries (each writing its own output files to the
    distributed filesystem) can be joined deterministically.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        example_ids: list[str],
        lf_names: list[str],
    ) -> None:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"label matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] != len(example_ids):
            raise ValueError(
                f"{matrix.shape[0]} rows but {len(example_ids)} example ids"
            )
        if matrix.shape[1] != len(lf_names):
            raise ValueError(
                f"{matrix.shape[1]} columns but {len(lf_names)} labeling functions"
            )
        self.matrix = matrix.astype(np.int8, copy=False)
        self.example_ids = list(example_ids)
        self.lf_names = list(lf_names)
        self._id_index = {eid: i for i, eid in enumerate(self.example_ids)}
        if len(self._id_index) != len(self.example_ids):
            raise ValueError("duplicate example ids in label matrix")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_votes(
        cls,
        votes_by_lf: Mapping[str, Mapping[str, int]],
        example_ids: Iterable[str],
    ) -> "LabelMatrix":
        """Join per-LF vote dictionaries into a matrix.

        ``votes_by_lf`` maps LF name -> {example_id -> vote}; missing
        entries are treated as abstains, which matches the paper's
        behaviour for labeling functions that skip examples entirely.
        """
        ids = list(example_ids)
        names = sorted(votes_by_lf)
        matrix = np.zeros((len(ids), len(names)), dtype=np.int8)
        id_index = {eid: i for i, eid in enumerate(ids)}
        for j, name in enumerate(names):
            for eid, vote in votes_by_lf[name].items():
                row = id_index.get(eid)
                if row is not None:
                    matrix[row, j] = vote
        return cls(matrix, ids, names)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def n_examples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_lfs(self) -> int:
        return self.matrix.shape[1]

    def column(self, lf_name: str) -> np.ndarray:
        """Return the vote vector of one labeling function."""
        return self.matrix[:, self.lf_names.index(lf_name)]

    def row_for(self, example_id: str) -> np.ndarray:
        """Return the vote vector for one example."""
        return self.matrix[self._id_index[example_id]]

    def select_lfs(self, lf_names: Iterable[str]) -> "LabelMatrix":
        """Project onto a subset of labeling functions (used by the
        servability ablation in Section 6.3)."""
        names = list(lf_names)
        cols = [self.lf_names.index(name) for name in names]
        return LabelMatrix(self.matrix[:, cols], self.example_ids, names)

    def select_examples(self, example_ids: Iterable[str]) -> "LabelMatrix":
        """Project onto a subset of examples."""
        ids = list(example_ids)
        rows = [self._id_index[eid] for eid in ids]
        return LabelMatrix(self.matrix[rows], ids, self.lf_names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabelMatrix(n_examples={self.n_examples}, n_lfs={self.n_lfs}, "
            f"coverage={coverage(self.matrix):.3f})"
        )


def coverage(matrix: np.ndarray) -> float:
    """Fraction of examples with at least one non-abstain vote."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0.0
    return float(np.mean(np.any(matrix != ABSTAIN, axis=1)))


def polarity(column: np.ndarray) -> tuple[int, ...]:
    """The set of distinct non-abstain labels emitted by one LF."""
    values = np.unique(np.asarray(column))
    return tuple(int(v) for v in values if v != ABSTAIN)


def require_int(value: Any, name: str, minimum: int | None = None) -> int:
    """``value`` itself if it is an ``int`` (a ``bool`` is not one) of
    at least ``minimum``.

    Config sizes and the counters and positions a manifest stores are
    checked here rather than passed through ``int()``, which would read
    ``4.5`` as 4 and ``true`` as 1.

    Raises:
        ValueError: Otherwise.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an int{bound}, got {value!r}")
    return value


def require_fields(value: Any, name: str, fields: tuple[str, ...] = ()) -> dict:
    """``value`` itself if it is a ``dict`` holding every key in
    ``fields``.

    A well-framed manifest record can still hold a list where a state
    dict belongs, or lack a key; readers check that here, so such a
    record is refused with ``ValueError`` — the error a serving refresh
    counts and survives — rather than failing later with a
    ``KeyError``, ``TypeError`` or ``AttributeError``.

    Raises:
        ValueError: Otherwise.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a dict, got {type(value).__name__}")
    missing = [field for field in fields if field not in value]
    if missing:
        raise ValueError(f"{name} is missing {', '.join(missing)}")
    return value
