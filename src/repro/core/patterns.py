"""Pattern compression: the one form label models are fitted from.

The generative model only sees the data through vote *patterns*: two
examples with identical vote rows contribute identically to the marginal
likelihood, so an ``(n, m)`` label matrix is a multiset of rows, fully
described by the pair ``(patterns, counts)`` — the distinct rows and how
often each occurs. Distinct patterns number in the tens to low thousands
while ``n`` grows unbounded, so a fit over the pair does O(patterns × m)
work per solver iteration and stores O(patterns) state *independent of
stream length*.

This module owns that form and its one **canonical order**:
:class:`CompressedVotes` keeps its patterns sorted lexicographically by
vote value (column 0 most significant), whatever order the caller
supplied. Every fit — ``fit(L)`` on either label model, an online refit,
a restored checkpoint — goes through ``fit_compressed`` on a
:class:`CompressedVotes`, so two fits of the same multiset of rows are
**bitwise identical** no matter how the rows were ordered, batched, or
stored.

Counts are whole numbers (decay retention rounds its recency weights),
so the count-ordered expansion :meth:`CompressedVotes.expand` always
exists: the matrix ``tests/test_fit_equivalence.py`` checks fits on.

The module also owns the one vote-moment formula, :func:`vote_moments`:
the online model's monitoring views read it off the pattern table, and
the drift monitor off each micro-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CompressedVotes", "compress_votes", "vote_moments"]


@dataclass(frozen=True)
class CompressedVotes:
    """A multiset of vote rows: distinct rows plus multiplicities.

    Construction sorts the rows into canonical (lexicographic) order and
    permutes ``weights`` along, so equal multisets compare equal field
    by field and fit identically.

    Attributes:
        patterns: ``(k, m)`` array of distinct vote rows, canonically
            ordered.
        weights: ``(k,)`` float64 positive multiplicities, each a whole
            number.
        n_rows: Total row mass ``weights.sum()`` — the ``n`` of the
            matrix this compression stands for.
    """

    patterns: np.ndarray
    weights: np.ndarray
    n_rows: float

    def __post_init__(self) -> None:
        if self.patterns.ndim != 2:
            raise ValueError(
                f"patterns must be 2-D, got shape {self.patterns.shape}"
            )
        if self.weights.shape != (self.patterns.shape[0],):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"{self.patterns.shape[0]} patterns"
            )
        if len(self.weights) and float(self.weights.min()) <= 0.0:
            raise ValueError("pattern weights must be strictly positive")
        if not np.array_equal(self.weights, np.floor(self.weights)):
            raise ValueError(
                "pattern weights must be whole numbers: a real-valued "
                "weighting has no expanded matrix"
            )
        if self.n_rows != self.weights.sum():
            raise ValueError(
                f"n_rows={self.n_rows} does not match the pattern weights, "
                f"which sum to {self.weights.sum()}"
            )
        if self.patterns.size:
            order = np.lexsort(self.patterns.T[::-1])
            object.__setattr__(self, "patterns", self.patterns[order])
            object.__setattr__(self, "weights", self.weights[order])

    @property
    def n_patterns(self) -> int:
        """Distinct vote rows — the compressed size."""
        return self.patterns.shape[0]

    def expand(self) -> np.ndarray:
        """The count-ordered matrix this compression stands for.

        Returns:
            Each pattern repeated ``weight`` times, in canonical order.
        """
        reps = self.weights.astype(np.int64)
        return self.patterns[np.repeat(np.arange(self.n_patterns), reps)]


def compress_votes(L: np.ndarray) -> CompressedVotes:
    """Deduplicate a vote matrix into ``(patterns, counts)``.

    Args:
        L: ``(n, m)`` vote matrix (any dtype; rows are compared exactly).

    Returns:
        The exact :class:`CompressedVotes` of ``L``'s rows: integer
        counts summing to ``n``. The all-abstain row, duplicate-free
        matrices, and the 0-row matrix all compress losslessly — a 0-row
        input yields 0 patterns.
    """
    L = np.ascontiguousarray(L)
    if L.ndim != 2:
        raise ValueError(f"vote matrix must be 2-D, got shape {L.shape}")
    # One opaque key per row: a 1-D unique is ~10x cheaper than
    # np.unique(axis=0), and grouping needs equality only — the
    # canonical order comes from CompressedVotes itself.
    keys = L.view(np.dtype((np.void, L.dtype.itemsize * L.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return CompressedVotes(
        patterns=L[first],
        weights=counts.astype(np.float64),
        n_rows=float(L.shape[0]),
    )


def vote_moments(
    rows: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """First and second vote moments of weighted rows, as sums.

    Args:
        rows: ``(k, m)`` vote rows over ``{-1, 0, 1}``.
        weights: ``(k,)`` non-negative row weights (pattern counts or
            decayed weights); ``None`` weighs every row 1.

    Returns:
        ``(vote_sum, fire_sum, agreement, mass)``: ``sum_i w_i L_i``,
        ``sum_i w_i |L_i|``, the ``(m, m)`` ``sum_i w_i L_i L_i^T`` and
        ``sum_i w_i``. With whole-number weights every entry is an
        integer summed exactly in float64, so the sums do not depend on
        how the rows were ordered, batched or grouped into patterns.
    """
    dense = rows.astype(np.float64)
    if weights is None:
        weighted, mass = dense, float(dense.shape[0])
    else:
        weighted, mass = dense * weights[:, None], float(weights.sum())
    return (
        weighted.sum(axis=0),
        np.abs(weighted).sum(axis=0),
        weighted.T @ dense,
        mass,
    )
