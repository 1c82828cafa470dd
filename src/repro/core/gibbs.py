"""Gibbs-sampling trainer for the generative model (the baseline).

"The open-source Snorkel implementation uses a Gibbs sampler to compute
the gradient of this likelihood, but sampling is relatively CPU intensive
and complicated to distribute across compute nodes." (Section 5.2.)

This module reproduces that baseline so the speed comparison in the paper
(">100 steps per second" for the compute-graph model versus "<50 examples
per second" for a Gibbs sampler at 10 LFs / batch 64) can be re-measured.

Algorithm (Monte-Carlo EM, matching the original Snorkel trainer's
structure):

1. **Gibbs sweep** — for each example in the minibatch, sample
   ``Y_i ~ P(Y_i | Lambda_i, w)``. The conditional is computed per
   example with an explicit per-LF loop; this *is* the CPU cost the paper
   is measuring, so we intentionally do not vectorize it.
2. **Complete-data gradient step** — with sampled ``Y`` treated as
   observed, the likelihood factorizes and the gradient w.r.t.
   ``alpha_j``/``beta_j`` has the usual exponential-family
   observed-minus-expected form; take one SGD step.

Both trainers converge to the same accuracies on conditionally
independent data (asserted by the test suite); they differ in CPU cost,
which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.label_model import _INIT_ALPHA

__all__ = ["GibbsConfig", "GibbsLabelModel"]


@dataclass
class GibbsConfig:
    """Training configuration for :class:`GibbsLabelModel`."""

    n_epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.03
    burn_in_sweeps: int = 2
    seed: int = 0


class GibbsLabelModel:
    """MC-EM Gibbs trainer over the Section 5.2 model."""

    def __init__(self, config: GibbsConfig | None = None) -> None:
        self.config = config or GibbsConfig()
        self.alpha: np.ndarray | None = None
        self.beta: np.ndarray | None = None
        self.examples_processed: int = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, L: np.ndarray) -> "GibbsLabelModel":
        L = np.asarray(L)
        m, n = L.shape
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        self.alpha = np.full(n, _INIT_ALPHA, dtype=np.float64)
        observed_propensity = np.clip(np.abs(L).mean(axis=0), 1e-3, 1 - 1e-3)
        self.beta = np.log(observed_propensity / (1 - observed_propensity)) / 2.0

        for _ in range(cfg.n_epochs):
            order = rng.permutation(m)
            for start in range(0, m, cfg.batch_size):
                batch_idx = order[start:start + cfg.batch_size]
                batch = L[batch_idx]
                y_samples = self._gibbs_sweep(batch, rng)
                self._complete_data_step(batch, y_samples)
                self.examples_processed += len(batch)
        return self

    def _gibbs_sweep(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample Y for each example with explicit per-example loops.

        The loop structure (per example, per LF, in Python) mirrors the
        per-variable conditional computation a Gibbs sampler performs and
        carries the CPU cost the paper contrasts against.
        """
        cfg = self.config
        alpha = self.alpha
        samples = np.empty(len(batch), dtype=np.int8)
        for sweep in range(cfg.burn_in_sweeps + 1):
            for i in range(len(batch)):
                log_pos = 0.0
                log_neg = 0.0
                row = batch[i]
                for j in range(len(row)):
                    vote = row[j]
                    if vote == 0:
                        continue
                    # beta / Z terms are symmetric in Y and cancel in the
                    # conditional; only the accuracy terms matter.
                    if vote == 1:
                        log_pos += alpha[j]
                        log_neg -= alpha[j]
                    else:
                        log_pos -= alpha[j]
                        log_neg += alpha[j]
                p_pos = 1.0 / (1.0 + math.exp(min(max(log_neg - log_pos, -500), 500)))
                samples[i] = 1 if rng.random() < p_pos else -1
        return samples

    def _complete_data_step(self, batch: np.ndarray, y: np.ndarray) -> None:
        """One SGD step on the complete-data likelihood."""
        cfg = self.config
        B = len(batch)
        correct = (batch == y[:, None]) & (batch != 0)
        wrong = (batch == -y[:, None]) & (batch != 0)
        non_abstain = batch != 0

        p_correct, p_wrong, p_abstain = self._outcome_probs()
        # Observed-minus-expected sufficient statistics.
        grad_alpha = -(correct.sum(axis=0) - wrong.sum(axis=0)) + B * (
            p_correct - p_wrong
        )
        grad_beta = -non_abstain.sum(axis=0) + B * (1.0 - p_abstain)
        self.alpha = self.alpha - cfg.learning_rate * grad_alpha
        self.beta = self.beta - cfg.learning_rate * grad_beta
        # The sampling-free trainer's better-than-random anchor.
        self.alpha = np.maximum(self.alpha, 0.0)

    def _outcome_probs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        logits = np.stack([
            self.alpha + self.beta,
            -self.alpha + self.beta,
            np.zeros_like(self.alpha),
        ])
        peak = logits.max(axis=0)
        Z = peak + np.log(np.exp(logits - peak).sum(axis=0))
        probs = np.exp(logits - Z)
        return probs[0], probs[1], probs[2]

    # ------------------------------------------------------------------
    # inference (shared form with the sampling-free model)
    # ------------------------------------------------------------------
    def predict_proba(self, L: np.ndarray) -> np.ndarray:
        if self.alpha is None:
            raise RuntimeError("model is not fitted")
        a = np.asarray(L, dtype=np.float64) @ self.alpha
        return 1.0 / (1.0 + np.exp(-np.clip(2.0 * a, -500, 500)))

    def accuracies(self) -> np.ndarray:
        if self.alpha is None:
            raise RuntimeError("model is not fitted")
        return 1.0 / (1.0 + np.exp(-2.0 * self.alpha))

    def benchmark_examples_per_second(
        self, L: np.ndarray, budget_seconds: float = 1.0
    ) -> float:
        """Measure Gibbs throughput in examples/second (Section 5.2)."""
        import time

        if self.alpha is None:
            n = L.shape[1]
            self.alpha = np.full(n, _INIT_ALPHA)
            self.beta = np.zeros(n)
        rng = np.random.default_rng(self.config.seed)
        processed = 0
        # repro: allow[determinism] benchmark helper measures wall-clock throughput; never feeds label artifacts
        start = time.perf_counter()
        # repro: allow[determinism] wall-clock budget is this method's contract (budget_seconds)
        while time.perf_counter() - start < budget_seconds:
            idx = rng.integers(0, len(L), size=self.config.batch_size)
            batch = L[idx]
            y = self._gibbs_sweep(batch, rng)
            self._complete_data_step(batch, y)
            processed += len(batch)
        # repro: allow[determinism] elapsed time is the measurement itself, not a label input
        elapsed = time.perf_counter() - start
        return processed / elapsed
