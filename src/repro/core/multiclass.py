"""Categorical-target generalization of the label model.

Section 2: "For simplicity, we focus on binary classification ... however
Snorkel DryBell can handle arbitrary categorical targets as well, e.g.
``Y_i in {1, ..., k}``."

Votes are ``lambda_j in {0, 1, ..., k}`` with 0 = abstain. The per-LF
parameterization extends naturally: a correct non-abstain vote carries
unnormalized log-probability ``alpha_j + beta_j``, each of the ``k - 1``
incorrect labels ``-alpha_j + beta_j`` (errors are spread uniformly across
wrong classes, the same tying the binary model uses), and abstain ``0``,
giving::

    Z_j = log( exp(alpha_j+beta_j) + (k-1) exp(-alpha_j+beta_j) + 1 )

Training minimizes the marginal NLL ``-sum_i log sum_y P(Lambda_i, y)``
with exact gradients, mirroring :class:`repro.core.SamplingFreeLabelModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.optim import AdamState, adam_step
from repro.core.patterns import CompressedVotes, compress_votes

__all__ = ["MulticlassConfig", "MulticlassLabelModel"]


@dataclass
class MulticlassConfig:
    """Training configuration for :class:`MulticlassLabelModel`."""

    n_steps: int = 1500
    batch_size: int = 64
    learning_rate: float = 0.05
    seed: int = 0
    init_alpha: float = 0.7
    min_alpha: float | None = 0.0
    """Better-than-random accuracy anchor; see
    :class:`repro.core.label_model.LabelModelConfig.min_alpha`."""


class MulticlassLabelModel:
    """Sampling-free label model for ``Y in {1..k}``."""

    def __init__(
        self, n_classes: int, config: MulticlassConfig | None = None
    ) -> None:
        if n_classes < 2:
            raise ValueError("need at least two classes")
        self.n_classes = n_classes
        self.config = config or MulticlassConfig()
        self.alpha: np.ndarray | None = None
        self.beta: np.ndarray | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, L: np.ndarray) -> "MulticlassLabelModel":
        """Estimate parameters from a vote matrix ``L`` in ``{0..k}``.

        Deduplicates ``L`` and fits the ``(patterns, counts)`` form
        (:meth:`fit_compressed`), so any row permutation of ``L`` fits
        to the same bits."""
        return self.fit_compressed(compress_votes(L))

    def fit_compressed(self, votes: CompressedVotes) -> "MulticlassLabelModel":
        """Estimate parameters from a pattern-compressed vote matrix.

        Same contract as
        :meth:`repro.core.label_model.SamplingFreeLabelModel.fit_compressed`:
        minibatch steps sample rows of the count-ordered expansion
        (bitwise a row-wise fit of ``votes.expand()``); full-batch steps
        use exact multiplicity-weighted gradients at O(patterns × m).

        Args:
            votes: The compressed matrix (see
                :func:`repro.core.patterns.compress_votes`).

        Returns:
            ``self``, fitted.
        """
        cfg = self.config
        P = self._validate(votes.patterns)
        weights = votes.weights.astype(np.float64, copy=False)
        total = float(votes.n_rows)
        rng = np.random.default_rng(cfg.seed)

        self._init_fit(
            P.shape[1], ((P != 0) * weights[:, None]).sum(axis=0), total
        )
        adam_alpha = AdamState.like(self.alpha)
        adam_beta = AdamState.like(self.beta)

        full_batch = cfg.batch_size >= total
        if not full_batch:
            draw = votes.row_sampler(rng, cfg.batch_size)
            weights = np.ones(cfg.batch_size)
            total = float(cfg.batch_size)

        for _ in range(cfg.n_steps):
            batch = P if full_batch else P.take(draw(1)[0], axis=0)
            grad_alpha, grad_beta = self._gradients_weighted(
                batch, weights, total
            )
            self._apply_step(grad_alpha, grad_beta, adam_alpha, adam_beta)
        return self

    def _init_fit(
        self, n_lfs: int, fire_counts: np.ndarray, total: float
    ) -> None:
        """Reset alpha/beta for a fresh fit (propensity-matched beta)."""
        cfg = self.config
        self.alpha = np.full(n_lfs, cfg.init_alpha, dtype=np.float64)
        observed_propensity = np.clip(fire_counts / total, 1e-3, 1 - 1e-3)
        self.beta = np.log(observed_propensity / (1 - observed_propensity)) / 2.0

    def _apply_step(
        self,
        grad_alpha: np.ndarray,
        grad_beta: np.ndarray,
        adam_alpha: AdamState,
        adam_beta: AdamState,
    ) -> None:
        """One Adam update + min_alpha projection."""
        cfg = self.config
        self.alpha = adam_step(self.alpha, grad_alpha, adam_alpha, cfg.learning_rate)
        self.beta = adam_step(self.beta, grad_beta, adam_beta, cfg.learning_rate)
        if cfg.min_alpha is not None:
            self.alpha = np.maximum(self.alpha, cfg.min_alpha)

    def _gradients_weighted(
        self, P: np.ndarray, weights: np.ndarray, total: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Marginal-NLL gradients with row ``i`` of ``P`` counted
        ``weights[i]`` times: per-row sums are weighted sums and the
        batch factor is the total row mass ``total`` (unit weights for a
        sampled minibatch, counts for the distinct patterns)."""
        posterior = self.predict_proba(P)         # (B, k)
        non_abstain = P != 0

        # q_match[i, j] = posterior probability that LF j's vote on i is
        # correct (0 where it abstained).
        vote_index = np.clip(P, 1, self.n_classes) - 1
        q_match = _gather_rows(posterior, vote_index) * non_abstain

        p_correct, p_wrong_total, p_abstain = self._outcome_probs()
        grad_alpha = -(
            (2.0 * q_match - 1.0) * non_abstain * weights[:, None]
        ).sum(axis=0) + total * (p_correct - p_wrong_total)
        grad_beta = -(non_abstain * weights[:, None]).sum(axis=0) + total * (
            1.0 - p_abstain
        )
        return grad_alpha, grad_beta

    def _outcome_probs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = self.n_classes
        logits = np.stack([
            self.alpha + self.beta,
            -self.alpha + self.beta + np.log(k - 1),
            np.zeros_like(self.alpha),
        ])
        peak = logits.max(axis=0)
        Z = peak + np.log(np.exp(logits - peak).sum(axis=0))
        probs = np.exp(logits - Z)
        return probs[0], probs[1], probs[2]

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_proba(self, L: np.ndarray) -> np.ndarray:
        """Posterior ``P(Y_i = y | Lambda_i)`` of shape ``(m, k)``."""
        if self.alpha is None:
            raise RuntimeError("model is not fitted")
        L = self._validate(L)
        m, n = L.shape
        k = self.n_classes
        non_abstain = (L != 0).astype(np.float64)

        # score(i, y) = 2 alpha . 1{L_i = y} + const(i); constants cancel
        # in the softmax.
        scores = np.zeros((m, k))
        for y in range(1, k + 1):
            scores[:, y - 1] = ((L == y).astype(np.float64)) @ (2.0 * self.alpha)
        scores -= scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, L: np.ndarray) -> np.ndarray:
        """Hard labels in {1..k}."""
        return self.predict_proba(L).argmax(axis=1) + 1

    def accuracies(self) -> np.ndarray:
        """``P(correct | non-abstain)`` per LF."""
        p_correct, p_wrong_total, _ = self._outcome_probs()
        return p_correct / (p_correct + p_wrong_total)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self, L: np.ndarray) -> np.ndarray:
        L = np.asarray(L)
        if L.ndim != 2:
            raise ValueError(f"label matrix must be 2-D, got {L.shape}")
        if L.min() < 0 or L.max() > self.n_classes:
            raise ValueError(
                f"votes must be in 0..{self.n_classes}, got range "
                f"[{L.min()}, {L.max()}]"
            )
        return L.astype(np.int64, copy=False)


def _gather_rows(posterior: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``out[i, j] = posterior[i, index[i, j]]``."""
    m = posterior.shape[0]
    return posterior[np.arange(m)[:, None], index]
