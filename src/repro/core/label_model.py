"""Sampling-free generative label model (Section 5.2).

The model
---------
Binary labels ``Y_i in {-1, +1}`` and labeling-function votes
``Lambda_ij in {-1, 0, +1}`` (0 = abstain). The conditionally independent
generative model is::

    P_w(Lambda, Y) = prod_i P(Y_i) prod_j P(lambda_j(X_i) | Y_i)

with shared per-LF parameters, in log space for numeric stability exactly
as the paper specifies: ``alpha_j`` is the unnormalized log probability
that LF ``j`` votes *correctly* given it did not abstain, ``beta_j`` the
unnormalized log probability that it did not abstain, and::

    Z_j = log(exp(alpha_j + beta_j) + exp(-alpha_j + beta_j) + 1)

so that per (example, LF) the log-likelihood contribution is
``alpha_j + beta_j - Z_j`` for a correct vote, ``-alpha_j + beta_j - Z_j``
for an incorrect vote, and ``-Z_j`` for an abstain. The training
objective is the *marginal* negative log-likelihood ``-log P(Lambda)``,
marginalizing ``Y`` — no ground-truth labels are used anywhere.

Why sampling-free
-----------------
The open-source Snorkel of the time used a Gibbs sampler to estimate this
gradient; the paper replaces it with a static compute graph and exact
gradient steps ("hundreds of gradient steps per second on a single compute
node"). TensorFlow is not available here, so we implement the *same*
computation in NumPy: the closed-form objective below **is** the paper's
static graph, and the analytic gradients below are exactly what
TensorFlow's reverse-mode autodiff would produce for it.

Vectorized form used in this module (per minibatch ``L`` of shape
``(B, n)``)::

    a_i = sum_j L_ij * alpha_j              # since L in {-1,0,1}
    b_i = sum_j |L_ij| * beta_j
    log P(L_i, Y=+1) = a_i + b_i - sum_j Z_j
    log P(L_i, Y=-1) = -a_i + b_i - sum_j Z_j
    NLL = -sum_i [ b_i - sum_j Z_j
                   + logaddexp(a_i + log pi_+, -a_i + log pi_-) ]

with posterior ``P(Y_i=+1 | L_i) = sigmoid(2 a_i + logit(pi_+))``.
Gradients::

    dNLL/dalpha_j = -sum_i (2 p_i - 1) L_ij + B * (P_j(correct) - P_j(incorrect))
    dNLL/dbeta_j  = -sum_i |L_ij|          + B * (1 - P_j(abstain))

The class prior ``pi_+`` is uniform by default ("For simplicity, here we
assume that P(Y_i) is uniform, but we can also learn this distribution"),
and can be learned through a logit parameter.

One fit path
------------
Because the likelihood is a product over rows, it sees the matrix only
as a multiset of vote patterns. Every fit therefore runs on the
deduplicated ``(patterns, counts)`` form in one canonical pattern order
(:mod:`repro.core.patterns`): :meth:`SamplingFreeLabelModel.fit` is
``fit_compressed(compress_votes(L))``. A full-batch step costs
O(patterns × m) independent of ``n``; a minibatch step samples rows of
the count-ordered expansion and runs the same weighted gradient kernel
at unit weights. ``fit`` is thus invariant to row order, bit for bit,
and equals a row-wise fit of the expanded matrix — bitwise in the
minibatch regime, ≤ 1e-9 posteriors full-batch (summation order) —
which the differential harness in ``tests/test_fit_equivalence.py``
checks against an independent row-wise reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.optim import AdamState, sgd_step, adam_step
from repro.core.patterns import CompressedVotes, compress_votes

__all__ = ["LabelModelConfig", "SamplingFreeLabelModel"]


@dataclass
class LabelModelConfig:
    """Training configuration for :class:`SamplingFreeLabelModel`.

    Defaults mirror the paper's reported regime: minibatches of 64 and a
    step budget in the thousands (the paper reports >100 steps/second, so
    thousands of steps stay inside its "tens of minutes" envelope even at
    full scale).
    """

    n_steps: int = 6000
    batch_size: int = 64
    learning_rate: float = 0.003
    optimizer: str = "sgd"  # "sgd" | "adam"
    learn_class_prior: bool = False
    init_class_prior: float = 0.5
    l2: float = 0.0
    seed: int = 0
    init_alpha: float = 0.7
    init_beta: float = 0.0
    track_loss_every: int = 50
    min_alpha: float | None = 0.0
    """Lower bound on the accuracy parameters (projected after each
    step). The marginal likelihood is invariant to flipping the sign of
    any polarity-connected cluster of LFs, and with rare positives the
    flipped (anti-accurate) solution actually wins on conflict rows —
    so, like the original Snorkel's better-than-random accuracy priors,
    we anchor accuracies at >= 50% by default. Set to ``None`` to allow
    adversarial LFs (e.g. for the LF-triage diagnostics on symmetric
    data)."""


class SamplingFreeLabelModel:
    """The Section 5.2 generative model with exact-gradient training."""

    def __init__(self, config: LabelModelConfig | None = None) -> None:
        self.config = config or LabelModelConfig()
        self.alpha: np.ndarray | None = None
        self.beta: np.ndarray | None = None
        self.prior_logit: float = _logit(self.config.init_class_prior)
        self.loss_history: list[tuple[int, float]] = []
        self.n_lfs: int | None = None
        self.steps_taken: int = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, L: np.ndarray) -> "SamplingFreeLabelModel":
        """Estimate parameters from a label matrix ``L`` of shape (m, n).

        Only the votes are used; no ground truth enters the procedure.
        The matrix is deduplicated into ``(patterns, counts)`` and
        fitted by :meth:`fit_compressed`, so the result depends on the
        multiset of rows only — any row permutation of ``L`` fits to the
        same bits.
        """
        return self.fit_compressed(compress_votes(L))

    def fit_compressed(self, votes: CompressedVotes) -> "SamplingFreeLabelModel":
        """Estimate parameters from a pattern-compressed vote matrix.

        The multiplicity-weighted objective is *exact*: per-step results
        match fitting the expanded matrix. Two regimes:

        * **minibatch** (``batch_size < n_rows``): each step samples
          ``batch_size`` rows via :meth:`CompressedVotes.row_sampler` —
          uniform over the count-ordered expansion (bitwise a row-wise
          fit of ``votes.expand()``) — and takes a unit-weight gradient
          step on them.
        * **full-batch** (``batch_size >= n_rows``): exact
          multiplicity-weighted gradients at O(patterns × m) per step,
          independent of ``n_rows`` — agreeing with a row-wise fit to
          ≤ 1e-9 posteriors (summation order differs, so last-ulp drift
          is possible but bounded; gated by the fuzz harness).

        Args:
            votes: The compressed matrix (see
                :func:`repro.core.patterns.compress_votes`).

        Returns:
            ``self``, fitted.

        Raises:
            ValueError: If the patterns contain votes outside
                ``{-1, 0, 1}``.
        """
        cfg = self.config
        P = _validate_label_matrix(votes.patterns)
        weights = votes.weights.astype(np.float64, copy=False)
        total = float(votes.n_rows)
        rng = np.random.default_rng(cfg.seed)

        # Weighted fire counts are exact integers whenever the counts
        # are, so the warm start equals the row-wise np.abs(L).sum(0).
        self._init_fit(
            P.shape[1], (np.abs(P) * weights[:, None]).sum(axis=0), total
        )
        optimizer = self._optimizer_state()

        full_batch = cfg.batch_size >= total
        if not full_batch:
            draw = votes.row_sampler(rng, cfg.batch_size)
            weights = np.ones(cfg.batch_size)
            total = float(cfg.batch_size)

        for step in range(cfg.n_steps):
            batch = P if full_batch else P.take(draw(), axis=0)
            grads = self._gradients_weighted(batch, weights, total)
            loss = self._step_update(grads, optimizer)
            if cfg.track_loss_every and step % cfg.track_loss_every == 0:
                self.loss_history.append((step, loss / total))
        return self

    def _init_fit(
        self, n_lfs: int, fire_counts: np.ndarray, total: float
    ) -> None:
        """Reset parameters for a fresh fit.

        Initialize beta from observed propensities: beta enters only
        through P(abstain), so matching empirical abstain rates starts
        the optimizer near the likelihood ridge. This mirrors standard
        practice and shortens the step budget; alpha still starts from
        a weakly-optimistic prior ("LFs are better than random").
        """
        cfg = self.config
        self.n_lfs = n_lfs
        self.alpha = np.full(n_lfs, cfg.init_alpha, dtype=np.float64)
        self.prior_logit = _logit(cfg.init_class_prior)
        self.loss_history = []
        observed_propensity = np.clip(fire_counts / total, 1e-3, 1 - 1e-3)
        self.beta = np.log(observed_propensity / (1 - observed_propensity)) / 2.0

    def _optimizer_state(self) -> tuple[AdamState, AdamState, AdamState]:
        """Fresh per-fit Adam accumulators (unused under SGD)."""
        return (
            AdamState.like(self.alpha),
            AdamState.like(self.beta),
            AdamState.like(np.zeros(1)),
        )

    def _step_update(
        self,
        grads: tuple[np.ndarray, np.ndarray, float, float],
        optimizer: tuple[AdamState, AdamState, AdamState],
    ) -> float:
        """Apply one optimizer step from precomputed gradients.

        l2, the optimizer update, the ``min_alpha`` projection, and the
        step counter. Returns the (l2-adjusted) summed loss for
        tracking.
        """
        cfg = self.config
        adam_alpha, adam_beta, adam_prior = optimizer
        grad_alpha, grad_beta, grad_prior, loss = grads
        if cfg.l2 > 0.0:
            grad_alpha = grad_alpha + cfg.l2 * self.alpha
            grad_beta = grad_beta + cfg.l2 * self.beta
            loss += 0.5 * cfg.l2 * (
                float(self.alpha @ self.alpha) + float(self.beta @ self.beta)
            )

        if cfg.optimizer == "adam":
            self.alpha = adam_step(self.alpha, grad_alpha, adam_alpha, cfg.learning_rate)
            self.beta = adam_step(self.beta, grad_beta, adam_beta, cfg.learning_rate)
            if cfg.learn_class_prior:
                new = adam_step(
                    np.array([self.prior_logit]),
                    np.array([grad_prior]),
                    adam_prior,
                    cfg.learning_rate,
                )
                self.prior_logit = float(new[0])
        elif cfg.optimizer == "sgd":
            self.alpha = sgd_step(self.alpha, grad_alpha, cfg.learning_rate)
            self.beta = sgd_step(self.beta, grad_beta, cfg.learning_rate)
            if cfg.learn_class_prior:
                self.prior_logit -= cfg.learning_rate * grad_prior
        else:
            raise ValueError(f"unknown optimizer {cfg.optimizer!r}")

        if cfg.min_alpha is not None:
            self.alpha = np.maximum(self.alpha, cfg.min_alpha)
        self.steps_taken += 1
        return loss

    def partial_step(self, batch: np.ndarray) -> float:
        """Take one gradient step on a caller-supplied minibatch.

        Used by the speed benchmark (steps/second, Section 5.2) and by the
        distributed trainer in :mod:`repro.pipeline`, which shards batches
        across simulated nodes the way the paper notes TensorFlow's API
        makes easy.
        """
        if self.alpha is None or self.beta is None:
            raise RuntimeError("call fit() or init_params() before partial_step()")
        batch = _validate_label_matrix(batch)
        cfg = self.config
        grad_alpha, grad_beta, grad_prior, loss = self._gradients_weighted(
            batch, np.ones(len(batch)), float(len(batch))
        )
        self.alpha = self.alpha - cfg.learning_rate * grad_alpha
        self.beta = self.beta - cfg.learning_rate * grad_beta
        if cfg.learn_class_prior:
            self.prior_logit -= cfg.learning_rate * grad_prior
        if cfg.min_alpha is not None:
            self.alpha = np.maximum(self.alpha, cfg.min_alpha)
        self.steps_taken += 1
        return loss / len(batch)

    def init_params(self, n_lfs: int) -> None:
        """Initialize parameters without fitting (for step-wise training)."""
        cfg = self.config
        self.n_lfs = n_lfs
        self.alpha = np.full(n_lfs, cfg.init_alpha, dtype=np.float64)
        self.beta = np.full(n_lfs, cfg.init_beta, dtype=np.float64)
        self.prior_logit = _logit(cfg.init_class_prior)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Bit-exact snapshot of all mutable training state.

        ``steps_taken`` is part of the snapshot so step-count-dependent
        behavior (learning-rate schedules, loss-tracking cadence) never
        restarts from zero on a resumed stream. ``loss_history`` is
        reporting that every fit resets: only its last pair is kept.
        """
        from repro.dfs.records import encode_ndarray

        last_loss = self.loss_history[-1:]
        return {
            "alpha": None if self.alpha is None else encode_ndarray(self.alpha),
            "beta": None if self.beta is None else encode_ndarray(self.beta),
            "prior_logit": self.prior_logit,
            "n_lfs": self.n_lfs,
            "steps_taken": self.steps_taken,
            "loss_history": [[int(s), float(l)] for s, l in last_loss],
        }

    def load_state(self, state: dict) -> "SamplingFreeLabelModel":
        """Restore a :meth:`state_dict` snapshot onto this instance."""
        from repro.dfs.records import decode_ndarray

        self.alpha = (
            None if state["alpha"] is None else decode_ndarray(state["alpha"])
        )
        self.beta = (
            None if state["beta"] is None else decode_ndarray(state["beta"])
        )
        self.prior_logit = float(state["prior_logit"])
        self.n_lfs = state["n_lfs"]
        self.steps_taken = int(state["steps_taken"])
        self.loss_history = [
            (int(s), float(l)) for s, l in state["loss_history"]
        ]
        return self

    # ------------------------------------------------------------------
    # objective / gradient
    # ------------------------------------------------------------------
    def _gradients_weighted(
        self, P: np.ndarray, weights: np.ndarray, total: float
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Return (grad_alpha, grad_beta, grad_prior_logit, summed NLL).

        The module-docstring objective with row ``i`` of ``P`` counted
        ``weights[i]`` times: every per-row sum is a weighted sum and
        the batch-size factor ``B`` is the total row mass ``total`` —
        O(rows of P × m) whether ``P`` is a sampled minibatch (unit
        weights) or the distinct patterns (their counts). ``grad_beta``
        uses an explicit column sum, not a BLAS dot, so that at unit
        weights it equals the row-wise ``absL.sum(axis=0)`` bit for bit.
        """
        alpha, beta = self.alpha, self.beta
        absP = np.abs(P)
        a = P @ alpha                      # (k,)
        b = absP @ beta                    # (k,)
        p_correct, p_wrong, p_abstain, Z = self._z_components()
        z_sum = float(Z.sum())

        log_prior_pos = -np.logaddexp(0.0, -self.prior_logit)   # log sigmoid
        log_prior_neg = -np.logaddexp(0.0, self.prior_logit)
        lse = np.logaddexp(a + log_prior_pos, -a + log_prior_neg)
        nll = -float(np.sum(weights * (b - z_sum + lse)))

        # Posterior P(Y=+1 | L_i) = sigmoid(2 a_i + prior_logit).
        posterior = _sigmoid(2.0 * a + self.prior_logit)
        signed = 2.0 * posterior - 1.0       # E[Y_i | L_i]

        grad_alpha = -(P.T @ (weights * signed)) + total * (p_correct - p_wrong)
        grad_beta = (
            -(absP * weights[:, None]).sum(axis=0) + total * (1.0 - p_abstain)
        )
        # d(log prior terms)/d(prior_logit): E[Y]=2p-1 pushes the prior
        # toward the average posterior.
        grad_prior = -float(
            np.sum(weights * (posterior - _sigmoid(self.prior_logit)))
        )
        return grad_alpha, grad_beta, grad_prior, nll

    def _z_components(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-LF outcome probabilities and log partition ``Z_j``."""
        alpha, beta = self.alpha, self.beta
        logits = np.stack([alpha + beta, -alpha + beta, np.zeros_like(alpha)])
        Z = _logsumexp_rows(logits)
        probs = np.exp(logits - Z)
        return probs[0], probs[1], probs[2], Z

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_proba(self, L: np.ndarray) -> np.ndarray:
        """Posterior ``P(Y_i = +1 | Lambda_i)`` — the probabilistic
        training labels handed to the discriminative model."""
        self._check_fitted()
        L = _validate_label_matrix(L)
        a = L @ self.alpha
        return _sigmoid(2.0 * a + self.prior_logit)

    def predict(self, L: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels in {-1, +1} at a probability threshold.

        The inequality is strict: an all-abstain row has posterior exactly
        ``class_prior()`` (0.5 under the uniform prior), i.e. *no
        evidence*, and no-evidence rows must not be called positive.
        """
        proba = self.predict_proba(L)
        return np.where(proba > threshold, 1, -1).astype(np.int8)

    def nll(self, L: np.ndarray) -> float:
        """Full-dataset mean negative marginal log-likelihood."""
        self._check_fitted()
        L = _validate_label_matrix(L)
        _, _, _, total = self._gradients_weighted(
            L, np.ones(len(L)), float(len(L))
        )
        return total / len(L)

    # ------------------------------------------------------------------
    # learned quantities
    # ------------------------------------------------------------------
    def accuracies(self) -> np.ndarray:
        """``P(lambda_j correct | lambda_j != 0)`` for each LF.

        These are the independently-useful accuracy estimates the events
        team used to find "previously unknown low-quality sources"
        (Section 3.3): ``sigmoid(2 alpha_j)``.
        """
        self._check_fitted()
        return _sigmoid(2.0 * self.alpha)

    def propensities(self) -> np.ndarray:
        """``P(lambda_j != 0)`` for each LF."""
        self._check_fitted()
        p_correct, p_wrong, _, _ = self._z_components()
        return p_correct + p_wrong

    def class_prior(self) -> float:
        """``P(Y = +1)`` (0.5 unless the prior was learned)."""
        return float(_sigmoid(self.prior_logit))

    def _check_fitted(self) -> None:
        if self.alpha is None or self.beta is None:
            raise RuntimeError("model is not fitted; call fit() first")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _validate_label_matrix(L: np.ndarray) -> np.ndarray:
    L = np.asarray(L)
    if L.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {L.shape}")
    values = np.unique(L)
    if not np.all(np.isin(values, (-1, 0, 1))):
        raise ValueError(
            f"binary label matrix entries must be in {{-1, 0, 1}}, got {values}"
        )
    return L.astype(np.float64, copy=False)


def _sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1 - 1e-9)
    return float(np.log(p / (1 - p)))


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    """logsumexp over axis 0 of a (3, n) stack."""
    peak = logits.max(axis=0)
    return peak + np.log(np.exp(logits - peak).sum(axis=0))
