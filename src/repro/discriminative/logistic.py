"""Noise-aware logistic regression trained with FTRL.

This is the content-classification end model of Section 6.1: "we used the
probabilistic training labels estimated by Snorkel DryBell to train
logistic regression discriminative classifiers with servable features
similar to those used in production", trained with FTRL at initial step
size 0.2 and batch size 64, for a task-dependent number of iterations.

Noise-aware loss: for a soft target ``p`` (the generative model's
posterior), the expected log loss has gradient ``(sigma(w.x) - p) * x``
per example — hard labels are just the degenerate case ``p in {0, 1}``,
so the supervised baselines share this exact training path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.noise_aware import clip_probabilities, expected_log_loss
from repro.discriminative.ftrl import FTRLProximal

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["LogisticConfig", "NoiseAwareLogisticRegression"]


def _csr(X) -> "sparse.csr_matrix":
    """``X`` as a CSR matrix; scipy loads here, not with the module."""
    from scipy import sparse

    return sparse.csr_matrix(X)


@dataclass
class LogisticConfig:
    """Training configuration mirroring the paper's regime."""

    n_iterations: int = 10_000
    batch_size: int = 64
    alpha: float = 0.2        # FTRL initial step size (paper's value)
    beta: float = 1.0
    l1: float = 0.0
    l2: float = 1e-6
    seed: int = 0
    fit_intercept: bool = True


class NoiseAwareLogisticRegression:
    """Sparse logistic regression with expected-loss training."""

    def __init__(self, dimension: int, config: LogisticConfig | None = None) -> None:
        self.config = config or LogisticConfig()
        self.dimension = dimension
        self._ftrl = FTRLProximal(
            dimension + (1 if self.config.fit_intercept else 0),
            alpha=self.config.alpha,
            beta=self.config.beta,
            l1=self.config.l1,
            l2=self.config.l2,
        )
        self._intercept_index = dimension if self.config.fit_intercept else None
        self.iterations_run = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        X: sparse.csr_matrix,
        soft_targets: np.ndarray,
        sample_weights: np.ndarray | None = None,
    ) -> "NoiseAwareLogisticRegression":
        """Run ``n_iterations`` minibatch FTRL steps.

        ``soft_targets`` are probabilities in [0, 1]; hard ±1 labels
        should be converted with
        :func:`repro.core.noise_aware.labels_to_soft_targets` first.
        """
        X = _csr(X)
        soft = np.asarray(soft_targets, dtype=np.float64)
        if X.shape[0] != soft.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but {soft.shape[0]} targets"
            )
        if np.any(soft < 0) or np.any(soft > 1):
            raise ValueError("soft targets must lie in [0, 1]")
        if sample_weights is None:
            weights = np.ones(len(soft))
        else:
            weights = np.asarray(sample_weights, dtype=np.float64)

        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        m = X.shape[0]
        for _ in range(cfg.n_iterations):
            batch = rng.integers(0, m, size=min(cfg.batch_size, m))
            for i in batch:
                self._update_one(X, int(i), soft[i], weights[i])
            self.iterations_run += 1
        return self

    def partial_fit(
        self,
        X: sparse.csr_matrix,
        soft_targets: np.ndarray,
        epochs: int = 1,
    ) -> "NoiseAwareLogisticRegression":
        """One (or a few) FTRL passes over a micro-batch, in row order.

        The streaming path: probabilistic labels arrive one micro-batch
        at a time and FTRL is already an online, per-coordinate
        algorithm, so the end model trains as the stream flows — no
        buffered dataset, no iteration budget. State accumulates across
        calls exactly as it does across :meth:`fit` iterations.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        X = _csr(X)
        soft = np.asarray(soft_targets, dtype=np.float64)
        if X.shape[0] != soft.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but {soft.shape[0]} targets"
            )
        if soft.size and (np.any(soft < 0) or np.any(soft > 1)):
            raise ValueError("soft targets must lie in [0, 1]")
        for _ in range(epochs):
            for i in range(X.shape[0]):
                self._update_one(X, i, soft[i], 1.0)
        self.iterations_run += epochs
        return self

    def _update_one(
        self, X: sparse.csr_matrix, i: int, target: float, weight: float
    ) -> None:
        start, end = X.indptr[i], X.indptr[i + 1]
        indices = X.indices[start:end]
        values = X.data[start:end]
        if self._intercept_index is not None:
            indices = np.concatenate([indices, [self._intercept_index]])
            values = np.concatenate([values, [1.0]])
        w = self._ftrl.weights_for(indices)
        margin = float(w @ values)
        predicted = 1.0 / (1.0 + np.exp(-np.clip(margin, -500, 500)))
        gradient = weight * (predicted - target) * values
        self._ftrl.update(indices, gradient)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def decision_function(self, X: sparse.csr_matrix) -> np.ndarray:
        X = _csr(X)
        w = self._ftrl.dense_weights()
        margins = X @ w[: self.dimension]
        if self._intercept_index is not None:
            margins = margins + w[self._intercept_index]
        return np.asarray(margins).ravel()

    def predict_proba(self, X: sparse.csr_matrix) -> np.ndarray:
        """``P(y = +1 | x)`` per row."""
        margins = self.decision_function(X)
        return 1.0 / (1.0 + np.exp(-np.clip(margins, -500, 500)))

    def predict(self, X: sparse.csr_matrix, threshold: float = 0.5) -> np.ndarray:
        """Hard labels in {-1, +1} (paper's prediction threshold is 0.5)."""
        return np.where(self.predict_proba(X) >= threshold, 1, -1).astype(np.int8)

    def loss(self, X: sparse.csr_matrix, soft_targets: np.ndarray) -> float:
        """Noise-aware log loss on a dataset."""
        return expected_log_loss(
            clip_probabilities(self.predict_proba(X)), soft_targets
        )

    def nonzero_weights(self) -> int:
        return self._ftrl.nonzero_weights()
