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
the count-ordered expansion and runs the same step kernel at unit
weights. ``fit`` is thus invariant to row order, bit for bit,
and equals a row-wise fit of the expanded matrix — bitwise in the
minibatch regime, ≤ 1e-9 posteriors full-batch (summation order) —
which the differential harness in ``tests/test_fit_equivalence.py``
checks against an independent row-wise reference.

One step kernel
---------------
The objective, its gradients and the SGD update are written once, in
:class:`_StepKernel`, which ``fit_compressed`` (both regimes),
``partial_step`` and ``nll`` all run. Measured on the benchmark's
21-pattern, 8-LF table (2-CPU container): 6,000 steps in 0.17 s, about
**35,000 steps per second** at batch 64 — against the paper's "> 100
steps per second" for its TensorFlow graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.core.patterns import CompressedVotes, compress_votes

__all__ = ["LabelModelConfig", "SamplingFreeLabelModel"]

#: Votes one minibatch draw-and-gather call fetches, for as many steps
#: as fit: 256 KB of float64, 64 steps of 64 rows x 8 LFs (the per-call
#: cost is amortized by then; 4x larger chunks time the same).
_CHUNK_VOTES = 1 << 15

#: Warm start of every accuracy parameter: a weakly-optimistic prior
#: ("LFs are better than random"), sigmoid(1.4) ~ 80% accurate.
_INIT_ALPHA = 0.7
#: Warm start of every propensity parameter when there are no votes to
#: match (:meth:`SamplingFreeLabelModel.init_params`).
_INIT_BETA = 0.0


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
    learn_class_prior: bool = False
    init_class_prior: float = 0.5
    seed: int = 0
    track_loss_every: int = 50


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
                ``{-1, 0, 1}``, ``votes`` holds no rows, or the config
                sets a negative ``n_steps`` or a ``batch_size`` below 1
                — raised before any state of a fitted model is reset.
        """
        cfg = self.config
        if cfg.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {cfg.n_steps}")
        if cfg.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
        if votes.n_rows < 1:
            raise ValueError(
                f"votes must hold at least one row, got n_rows={votes.n_rows}"
            )
        P = _validate_label_matrix(votes.patterns)
        weights = votes.weights.astype(np.float64, copy=False)
        total = float(votes.n_rows)

        # Weighted fire counts are exact integers whenever the counts
        # are, so the warm start equals the row-wise np.abs(L).sum(0) —
        # and they are every full-batch step's fire counts too.
        fire_counts = (np.abs(P) * weights[:, None]).sum(axis=0)
        self._init_fit(P.shape[1], fire_counts, total)

        if cfg.batch_size >= total:
            kernel = _StepKernel(self, len(P), weights, total)
            batches = repeat((P, fire_counts), cfg.n_steps)
        else:
            kernel = _StepKernel(self, cfg.batch_size)
            draw = votes.row_sampler(np.random.default_rng(cfg.seed), cfg.batch_size)
            batches = _minibatches(P, draw, cfg.batch_size, cfg.n_steps)
        every = cfg.track_loss_every
        for step, (batch, fired) in enumerate(batches):
            tracked = bool(every) and step % every == 0
            loss = kernel.step(batch, fired, want_loss=tracked)
            if tracked:
                self.loss_history.append((step, loss / kernel.total))
        kernel.publish(self, cfg.n_steps)
        return self

    def _init_fit(
        self, n_lfs: int, fire_counts: np.ndarray, total: float
    ) -> None:
        """Reset parameters for a fresh fit.

        Initialize beta from observed propensities: beta enters only
        through P(abstain), so matching empirical abstain rates starts
        SGD near the likelihood ridge. This mirrors standard practice
        and shortens the step budget; alpha still starts from
        ``_INIT_ALPHA``.
        """
        self.n_lfs = n_lfs
        self.alpha = np.full(n_lfs, _INIT_ALPHA, dtype=np.float64)
        self.prior_logit = _logit(self.config.init_class_prior)
        self.loss_history = []
        observed_propensity = np.clip(fire_counts / total, 1e-3, 1 - 1e-3)
        self.beta = np.log(observed_propensity / (1 - observed_propensity)) / 2.0

    def partial_step(self, batch: np.ndarray) -> float:
        """Take one gradient step on a caller-supplied minibatch.

        Used by the speed benchmark (steps/second, Section 5.2,
        :func:`repro.experiments.perf.run_speed`); the online model's
        incremental steps take the same kernel step on rows it has
        already validated.
        """
        if self.alpha is None or self.beta is None:
            raise RuntimeError("call fit() or init_params() before partial_step()")
        batch = _validate_label_matrix(batch)
        return self._sgd_steps(batch[None], want_loss=True) / len(batch)

    def _sgd_steps(self, batches: np.ndarray, want_loss: bool = False) -> float | None:
        """One kernel step per batch of a float64 ``(k, B, m)`` stack
        whose votes the caller has validated; returns the last batch's
        summed loss when asked for it."""
        kernel = _StepKernel(self, batches.shape[1])
        loss = None
        for batch, fire in zip(batches, np.abs(batches).sum(axis=1)):
            loss = kernel.step(batch, fire, want_loss)
        kernel.publish(self, len(batches))
        return loss

    def init_params(self, n_lfs: int) -> None:
        """Initialize parameters without fitting (for step-wise training)."""
        self.n_lfs = n_lfs
        self.alpha = np.full(n_lfs, _INIT_ALPHA, dtype=np.float64)
        self.beta = np.full(n_lfs, _INIT_BETA, dtype=np.float64)
        self.prior_logit = _logit(self.config.init_class_prior)

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
        return _StepKernel(self, len(L)).loss(L) / len(L)

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
        p_correct, p_wrong, _ = _StepKernel(self, 0).outcome_probs()
        return p_correct + p_wrong

    def class_prior(self) -> float:
        """``P(Y = +1)`` (0.5 unless the prior was learned)."""
        return float(_sigmoid(self.prior_logit))

    def _check_fitted(self) -> None:
        if self.alpha is None or self.beta is None:
            raise RuntimeError("model is not fitted; call fit() first")


# ----------------------------------------------------------------------
# the step kernel
# ----------------------------------------------------------------------
class _StepKernel:
    """The objective, its gradients and the update, written once.

    The module-docstring objective with row ``i`` of a batch counted
    ``weights[i]`` times: every per-row sum is a weighted sum and the
    batch-size factor ``B`` is the total row mass ``total`` — whether
    the batch is a sampled minibatch (``weights=None``: unit weights,
    never multiplied in) or the distinct patterns (their counts).

    One kernel serves one run of steps on batches of ``rows`` rows: it
    copies the model's parameters, steps them in place through buffers
    allocated once, and :meth:`publish` hands them back. A step is ~35
    NumPy calls on a few dozen elements each, so it costs its call
    count, not its arithmetic: the loss is evaluated only when asked
    for and the prior gradient only when the prior is learned. The two
    BLAS products keep the row-wise operand shapes and every elementwise
    expression its association (``y - x`` for ``-x + y`` is the same
    IEEE operation), so a step equals the row-wise step to the bit.
    """

    def __init__(self, model, rows, weights=None, total=None) -> None:
        cfg = model.config
        self.alpha, self.beta = model.alpha.copy(), model.beta.copy()
        self.prior_logit = model.prior_logit
        self.weights = weights
        self.total = float(rows) if total is None else total
        self.rate = cfg.learning_rate
        self.learn_prior = cfg.learn_class_prior
        n_lfs = len(self.alpha)
        self._logits = np.zeros((3, n_lfs))  # row 2, abstain, stays 0
        self._probs = np.empty((3, n_lfs))
        self._peak, self._Z, self._observed = np.empty((3, n_lfs))
        self._grad_alpha, self._grad_beta = np.empty((2, n_lfs))
        self._a, self._signed = np.empty((2, rows))

    def outcome_probs(self) -> np.ndarray:
        """Per-LF ``P(correct)``, ``P(wrong)``, ``P(abstain)`` as the
        rows of one array; the log partition ``Z_j`` stays in ``_Z``."""
        logits, probs, peak, Z = self._logits, self._probs, self._peak, self._Z
        np.add(self.alpha, self.beta, out=logits[0])
        np.subtract(self.beta, self.alpha, out=logits[1])
        # Z = logsumexp over the three outcomes.
        logits.max(axis=0, out=peak)
        np.exp(np.subtract(logits, peak, out=probs), out=probs)
        probs.sum(axis=0, out=Z)
        np.add(peak, np.log(Z, out=Z), out=Z)
        return np.exp(np.subtract(logits, Z, out=probs), out=probs)

    def loss(self, batch: np.ndarray) -> float:
        """Summed marginal NLL of ``batch`` at the current parameters."""
        a = np.matmul(batch, self.alpha, out=self._a)
        b = np.abs(batch) @ self.beta
        self.outcome_probs()
        z_sum = float(self._Z.sum())
        log_prior_pos = -np.logaddexp(0.0, -self.prior_logit)   # log sigmoid
        log_prior_neg = -np.logaddexp(0.0, self.prior_logit)
        rows = b - z_sum + np.logaddexp(a + log_prior_pos, -a + log_prior_neg)
        return -float(np.sum(rows if self.weights is None else self.weights * rows))

    def step(self, batch, fired, want_loss=False) -> float | None:
        """Take one exact-gradient step on the float64 ``(rows, m)``
        ``batch``, whose weighted per-LF fire counts are ``fired``;
        returns the summed pre-step :meth:`loss` when asked for it."""
        alpha, beta, weights = self.alpha, self.beta, self.weights
        loss = self.loss(batch) if want_loss else None
        a = np.matmul(batch, alpha, out=self._a)
        p_correct, p_wrong, p_abstain = self.outcome_probs()

        # Posterior P(Y=+1 | L_i) = sigmoid(2 a_i + prior_logit).
        posterior = np.multiply(a, 2.0, out=self._signed)
        _sigmoid(np.add(posterior, self.prior_logit, out=posterior), out=posterior)
        if self.learn_prior:
            # d(log prior terms)/d(prior_logit): E[Y]=2p-1 pushes the
            # prior toward the average posterior.
            pull = posterior - _sigmoid(self.prior_logit)
            grad_prior = -float(np.sum(pull if weights is None else weights * pull))
        signed = np.multiply(posterior, 2.0, out=posterior)  # E[Y_i | L_i]
        np.subtract(signed, 1.0, out=signed)
        if weights is not None:
            np.multiply(weights, signed, out=signed)

        # Each gradient is total * E[outcome] - observed outcome.
        grad_alpha = np.subtract(p_correct, p_wrong, out=self._grad_alpha)
        np.multiply(grad_alpha, self.total, out=grad_alpha)
        observed = np.matmul(batch.T, signed, out=self._observed)
        np.subtract(grad_alpha, observed, out=grad_alpha)
        grad_beta = np.subtract(1.0, p_abstain, out=self._grad_beta)
        np.multiply(grad_beta, self.total, out=grad_beta)
        np.subtract(grad_beta, fired, out=grad_beta)

        np.subtract(alpha, self.rate * grad_alpha, out=alpha)
        np.subtract(beta, self.rate * grad_beta, out=beta)
        if self.learn_prior:
            self.prior_logit -= self.rate * grad_prior
        # Project onto alpha >= 0. The marginal likelihood is invariant
        # to flipping the sign of any polarity-connected cluster of LFs,
        # and with rare positives the flipped (anti-accurate) solution
        # wins on conflict rows — so, like the original Snorkel's
        # better-than-random accuracy priors, accuracies stay >= 50%.
        np.maximum(alpha, 0.0, out=alpha)
        return loss

    def publish(self, model: SamplingFreeLabelModel, steps: int) -> None:
        """Hand the stepped parameters to ``model``; the kernel is spent."""
        model.alpha, model.beta = self.alpha, self.beta
        model.prior_logit = self.prior_logit
        model.steps_taken += steps


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


def _minibatches(P: np.ndarray, draw, batch_size: int, n_steps: int):
    """Yield each step's ``(batch, fire counts)``: rows of ``P`` drawn
    and gathered ``_CHUNK_VOTES`` votes — many steps — per NumPy call.
    Fire counts are sums of 0/1, exact in any order."""
    chunk = max(1, _CHUNK_VOTES // max(batch_size * P.shape[1], 1))
    for start in range(0, n_steps, chunk):
        batches = P.take(draw(min(chunk, n_steps - start)), axis=0)  # (k, B, m)
        yield from zip(batches, np.abs(batches).sum(axis=1))


def _sigmoid(
    x: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray | float:
    """``1 / (1 + exp(-clip(x, -500, 500)))``, in ``out`` when given."""
    # np.clip spelled as the two ufuncs it is defined as: a third of
    # its call cost on a 64-row batch.
    z = np.minimum(np.maximum(x, -500, out=out), 500, out=out)
    z = np.exp(np.negative(z, out=out), out=out)
    return np.divide(1.0, np.add(1.0, z, out=out), out=out)


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1 - 1e-9)
    return float(np.log(p / (1 - p)))
