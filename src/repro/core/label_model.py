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

The open-source Snorkel of the time estimated this gradient with a
Gibbs sampler; the paper uses a static compute graph and exact gradients
instead. The closed-form objective below is that graph in NumPy, and its
analytic gradients are what TensorFlow's autodiff would produce.

Vectorized form used in this module (per batch ``L`` of shape
``(B, m)``, row ``i`` counted ``w_i`` times)::

    a_i = sum_j L_ij * alpha_j              # since L in {-1,0,1}
    b_i = sum_j |L_ij| * beta_j
    log P(L_i, Y=+1) = a_i + b_i - sum_j Z_j
    log P(L_i, Y=-1) = -a_i + b_i - sum_j Z_j
    NLL = -sum_i w_i [ b_i - sum_j Z_j
                       + logaddexp(a_i + log pi_+, -a_i + log pi_-) ]

with posterior ``p_i = P(Y_i=+1 | L_i) = sigmoid(2 a_i + logit(pi_+))``
and ``W = sum_i w_i``. Gradients::

    dNLL/dalpha_j = -sum_i w_i (2 p_i - 1) L_ij + W (P_j(correct) - P_j(incorrect))
    dNLL/dbeta_j  = -sum_i w_i |L_ij|          + W (1 - P_j(abstain))

The Hessian is closed-form too: ``W`` times the covariance of the
outcome statistics ``(+-1, 1, 0)`` gives a 2x2 ``(alpha_j, beta_j)``
block per LF, and the posteriors add ``-sum_i w_i 4 p_i (1 - p_i) L_i
L_i^T`` to the alpha block, so the objective is not convex. The class
prior ``pi_+`` is uniform by default ("For simplicity, here we assume
that P(Y_i) is uniform, but we can also learn this distribution"), and
can be learned through a logit parameter.

One fit, one objective
----------------------
The likelihood sees the matrix only as a multiset of vote patterns, so
:meth:`SamplingFreeLabelModel.fit` is ``fit_compressed(compress_votes(L))``
on the canonical ``(patterns, counts)`` form (:mod:`repro.core.patterns`),
bitwise invariant to row order. ``fit_compressed`` minimises the *mean*
count-weighted NLL by deterministic projected Newton
(:meth:`_StepKernel.solve`), O(patterns x m) per iteration whatever ``n``
is: the paper's claim is about the objective, not the step rule, and
minibatches drawn from the table only put back noise the compression
removed. It is the only trainer: the streaming model
(:mod:`repro.core.online_label_model`) solves its pattern table with the
same call. On the benchmark's 20-pattern, 8-LF table (2-CPU container)
the solve takes 21-29 iterations and 6-12 ms; each iteration consumes
the whole table, well past the paper's "> 100 steps per second".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.patterns import CompressedVotes, compress_votes
from repro.types import require_fields, require_int

__all__ = ["LabelModelConfig", "SamplingFreeLabelModel"]

#: Warm start of every accuracy parameter: a weakly-optimistic prior
#: ("LFs are better than random"), sigmoid(1.4) ~ 80% accurate.
_INIT_ALPHA = 0.7

#: Cap on every accuracy parameter (sigmoid(10) ~ 99.995% accurate): the
#: likelihood is unbounded for a near-perfect LF. A cap of 3 cost product
#: Table 4 F1 1.5 points; 5 gained 0.8.
_MAX_ALPHA = 5.0
#: The solve stops at this projected-gradient infinity-norm, or after
#: ``_MAX_ITERATIONS`` (the benchmark's tables take 21-29).
_TOLERANCE = 1e-9
_MAX_ITERATIONS = 200
#: Line search: sufficient-decrease constant, the relative rounding of a
#: summed loss it forgives, and the step halvings it tries.
_ARMIJO = 1e-4
_ROUNDOFF = 4 * np.finfo(np.float64).eps
_MAX_HALVINGS = 40
#: Smallest curvature a Newton direction divides by.
_MIN_CURVATURE = 1e-8


@dataclass
class LabelModelConfig:
    """Configuration of :class:`SamplingFreeLabelModel`. The fit is a
    deterministic solve, so nothing reads ``seed``; it is kept so that
    configs built with one stay valid."""

    learn_class_prior: bool = False
    init_class_prior: float = 0.5
    seed: int = 0


class SamplingFreeLabelModel:
    """The Section 5.2 generative model with exact-gradient training."""

    def __init__(self, config: LabelModelConfig | None = None) -> None:
        self.config = config or LabelModelConfig()
        self.alpha: np.ndarray | None = None
        self.beta: np.ndarray | None = None
        self.prior_logit: float = _prior_logit(self.config)
        self.loss_history: list[tuple[int, float]] = []
        self.n_lfs: int | None = None
        self.steps_taken: int = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, L: np.ndarray) -> "SamplingFreeLabelModel":
        """Estimate parameters from the votes of a label matrix ``L``
        (no ground truth): :meth:`fit_compressed` on its ``(patterns,
        counts)``, so any row permutation of ``L`` fits to the same bits.
        """
        return self.fit_compressed(compress_votes(L))

    def fit_compressed(self, votes: CompressedVotes) -> "SamplingFreeLabelModel":
        """Estimate parameters from a pattern-compressed vote matrix:
        the deterministic solve of :meth:`_StepKernel.solve` from the
        propensity warm start. Afterwards ``loss_history`` is
        ``[(iterations, mean NLL)]`` and ``steps_taken`` has grown by
        the iterations.

        Args:
            votes: The compressed matrix (see
                :func:`repro.core.patterns.compress_votes`).

        Returns:
            ``self``, fitted.

        Raises:
            ValueError: If the patterns contain votes outside
                ``{-1, 0, 1}``, ``votes`` holds no rows, or the config's
                ``init_class_prior`` is outside (0, 1) — raised before
                any state of a fitted model is reset.
        """
        prior_logit = _prior_logit(self.config)
        if votes.n_rows < 1:
            raise ValueError(
                f"votes must hold at least one row, got n_rows={votes.n_rows}"
            )
        P = _validate_label_matrix(votes.patterns)
        total = float(votes.n_rows)
        # Weighted fire counts are exact integers whenever the counts
        # are, so the warm start equals the row-wise one.
        fire_rates = (np.abs(P) * votes.weights[:, None]).sum(axis=0) / total
        self.n_lfs = P.shape[1]
        self.alpha = np.full(self.n_lfs, _INIT_ALPHA)
        self.beta = _warm_beta(fire_rates)
        self.prior_logit = prior_logit
        kernel = _StepKernel(self, len(P), votes.weights / total, 1.0)
        iterations, loss = kernel.solve(P, fire_rates)
        kernel.publish(self, iterations)
        self.loss_history = [(iterations, loss)]
        return self

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Bit-exact snapshot of all mutable training state.

        ``steps_taken`` (solver iterations) is part of the snapshot so
        the counter never restarts from zero on a resumed stream;
        ``loss_history`` keeps its last pair.
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
        """Restore a :meth:`state_dict` snapshot onto this instance.

        Raises:
            ValueError: If ``state`` is not a dict holding every
                snapshot key, ``steps_taken`` or a ``loss_history`` step
                is not an ``int``, ``n_lfs`` is not an ``int`` >= 1 (it
                may be ``None`` only while ``alpha`` is), the prior or a
                loss is not a number, or an array is not an encoded
                array; nothing is restored then.
        """
        from repro.dfs.records import decode_ndarray

        require_fields(
            state,
            "label-model parameters",
            ("alpha", "beta", "prior_logit", "n_lfs", "steps_taken", "loss_history"),
        )
        steps_taken = require_int(state["steps_taken"], "steps_taken")
        try:
            prior_logit = float(state["prior_logit"])
            pairs = [(s, float(l)) for s, l in state["loss_history"]]
        except (TypeError, ValueError) as error:
            raise ValueError(f"label-model parameters are malformed: {error!r}") from error
        loss_history = [(require_int(s, "loss_history step"), l) for s, l in pairs]
        n_lfs = state["n_lfs"]
        if n_lfs is not None or state["alpha"] is not None:
            require_int(n_lfs, "n_lfs", minimum=1)
        alpha = None if state["alpha"] is None else decode_ndarray(state["alpha"])
        beta = None if state["beta"] is None else decode_ndarray(state["beta"])
        self.alpha = alpha
        self.beta = beta
        self.prior_logit = prior_logit
        self.n_lfs = n_lfs
        self.steps_taken = steps_taken
        self.loss_history = loss_history
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
# the objective kernel
# ----------------------------------------------------------------------
class _StepKernel:
    """The module-docstring objective, its gradient and Hessian, written
    once, and :meth:`solve` (projected Newton) moving the parameters on
    them.

    Row ``i`` of a batch counts ``weights[i]`` times (``None``: unit
    weights, for :meth:`loss` alone) and ``W`` is ``total``; the solve
    passes the patterns' shares of the table with ``total`` 1. A kernel
    copies the model's parameters, moves them in place through buffers
    allocated once for ``rows``-row batches, and :meth:`publish` hands
    them back.
    """

    def __init__(self, model, rows, weights=None, total=None) -> None:
        self.alpha, self.beta = model.alpha.copy(), model.beta.copy()
        self.prior_logit = model.prior_logit
        self.weights = weights
        self.total = float(rows) if total is None else total
        self.learn_prior = model.config.learn_class_prior
        n_lfs = len(self.alpha)
        self._logits = np.zeros((3, n_lfs))  # row 2, abstain, stays 0
        self._probs = np.empty((3, n_lfs))
        self._peak, self._Z, self._observed = np.empty((3, n_lfs))
        self._grad_alpha, self._grad_beta = np.empty((2, n_lfs))
        self._a, self._posterior, self._signed = np.empty((3, rows))

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

    def gradient(self, batch: np.ndarray, fired: np.ndarray) -> float | None:
        """The gradient of :meth:`loss` on the float64 ``(rows, m)``
        ``batch`` whose weighted per-LF fire counts are ``fired``: the
        alpha and beta parts land in ``_grad_alpha`` / ``_grad_beta``
        (posteriors in ``_posterior``); returns the prior part, or
        ``None`` when the prior is fixed. Rows carry ``weights``."""
        weights = self.weights
        a = np.matmul(batch, self.alpha, out=self._a)
        p_correct, p_wrong, p_abstain = self.outcome_probs()

        # Posterior P(Y=+1 | L_i) = sigmoid(2 a_i + prior_logit).
        posterior = np.multiply(a, 2.0, out=self._posterior)
        _sigmoid(np.add(posterior, self.prior_logit, out=posterior), out=posterior)
        grad_prior = None
        if self.learn_prior:
            # d(log prior terms)/d(prior_logit): E[Y]=2p-1 pushes the
            # prior toward the average posterior.
            pull = posterior - _sigmoid(self.prior_logit)
            grad_prior = -float(np.sum(weights * pull))
        signed = np.multiply(posterior, 2.0, out=self._signed)  # E[Y_i | L_i]
        np.subtract(signed, 1.0, out=signed)
        np.multiply(weights, signed, out=signed)

        # Each gradient is total * E[outcome] - observed outcome.
        grad_alpha = np.subtract(p_correct, p_wrong, out=self._grad_alpha)
        np.multiply(grad_alpha, self.total, out=grad_alpha)
        observed = np.matmul(batch.T, signed, out=self._observed)
        np.subtract(grad_alpha, observed, out=grad_alpha)
        grad_beta = np.subtract(1.0, p_abstain, out=self._grad_beta)
        np.multiply(grad_beta, self.total, out=grad_beta)
        np.subtract(grad_beta, fired, out=grad_beta)
        return grad_prior

    def hessian(self, batch: np.ndarray) -> np.ndarray:
        """The Hessian of the weighted :meth:`loss` at the point of the
        last :meth:`gradient` call, over ``(alpha, beta[, prior_logit])``."""
        p_correct, p_wrong, p_abstain = self._probs
        m = len(p_correct)
        hess = np.zeros((2 * m + self.learn_prior,) * 2)
        lf, fires, margin = np.arange(m), 1.0 - p_abstain, p_correct - p_wrong
        # Z_j: the covariance of the outcome statistics (+-1, 1, 0).
        hess[lf, lf] = self.total * (fires - margin * margin)
        hess[lf, lf + m] = hess[lf + m, lf] = self.total * margin * p_abstain
        hess[lf + m, lf + m] = self.total * fires * p_abstain
        curvature = self.weights * self._posterior * (1.0 - self._posterior)
        hess[:m, :m] -= 4.0 * (batch.T * curvature) @ batch
        if self.learn_prior:
            prior = _sigmoid(self.prior_logit)
            hess[:m, -1] = hess[-1, :m] = -2.0 * (batch.T @ curvature)
            hess[-1, -1] = self.total * prior * (1.0 - prior) - curvature.sum()
        return hess

    def solve(self, batch: np.ndarray, fired: np.ndarray) -> tuple[int, float]:
        """Minimise :meth:`loss` over ``0 <= alpha <= _MAX_ALPHA`` (beta
        and a learned prior are free); returns the accepted iterations
        and the final loss. Each iteration pins the variables on a bound
        that the gradient pushes outward, takes a Newton direction on
        the rest with the Hessian's eigenvalues made positive, and
        backtracks along its box projection until the Armijo condition
        holds. Every step descends, so the solve stays in the warm
        start's basin: in the likelihood's other one a correlated trio
        of LFs runs to the cap and label quality drops.
        """
        m, groups = len(self.alpha), 2 + self.learn_prior
        lower = np.full(2 * m + self.learn_prior, -np.inf)
        upper = -lower
        lower[:m], upper[:m] = 0.0, _MAX_ALPHA
        theta = np.concatenate([self.alpha, self.beta, [self.prior_logit]][:groups])
        loss = self.loss(batch)
        for iteration in range(_MAX_ITERATIONS):
            grad_prior = self.gradient(batch, fired)
            grad = np.concatenate([self._grad_alpha, self._grad_beta, [grad_prior]][:groups])
            projected = theta - np.clip(theta - grad, lower, upper)
            if np.max(np.abs(projected)) <= _TOLERANCE:
                return iteration, loss
            free = ~(((theta <= lower) & (grad > 0)) | ((theta >= upper) & (grad < 0)))
            values, vectors = np.linalg.eigh(self.hessian(batch)[np.ix_(free, free)])
            values = np.maximum(np.abs(values), _MIN_CURVATURE)
            direction = np.zeros_like(theta)
            direction[free] = -(vectors @ ((vectors.T @ grad[free]) / values))
            # Near the optimum a step lowers the loss by less than the
            # rounding of its sum: allow that much, or the solve stalls.
            slack = _ROUNDOFF * abs(loss)
            for halvings in range(_MAX_HALVINGS):
                trial = np.clip(theta + 0.5**halvings * direction, lower, upper)
                self._set_theta(trial)
                trial_loss = self.loss(batch)
                if trial_loss <= loss + _ARMIJO * float(grad @ (trial - theta)) + slack:
                    break
            else:  # no step lowers the loss at float precision
                self._set_theta(theta)
                return iteration, loss
            theta, loss = trial, trial_loss
        return _MAX_ITERATIONS, loss

    def _set_theta(self, theta: np.ndarray) -> None:
        m = len(self.alpha)
        self.alpha[:] = theta[:m]
        self.beta[:] = theta[m : 2 * m]
        if self.learn_prior:
            self.prior_logit = float(theta[-1])

    def publish(self, model: SamplingFreeLabelModel, steps: int) -> None:
        """Hand the moved parameters to ``model``; the kernel is spent."""
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


def _sigmoid(
    x: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray | float:
    """``1 / (1 + exp(-clip(x, -500, 500)))``, in ``out`` when given."""
    # np.clip spelled as the two ufuncs it is defined as: a third of
    # its call cost on a 64-row batch.
    z = np.minimum(np.maximum(x, -500, out=out), 500, out=out)
    z = np.exp(np.negative(z, out=out), out=out)
    return np.divide(1.0, np.add(1.0, z, out=out), out=out)


def _warm_beta(fire_rates: np.ndarray) -> np.ndarray:
    """The propensity warm start: beta enters only through P(abstain),
    so matching the observed fire rates starts near the likelihood
    ridge."""
    propensity = np.clip(fire_rates, 1e-3, 1 - 1e-3)
    return np.log(propensity / (1 - propensity)) / 2.0


def _prior_logit(config: LabelModelConfig) -> float:
    """``logit(init_class_prior)``; a prior outside (0, 1) is a
    ``ValueError``, not a clip to one class."""
    prior = config.init_class_prior
    if not 0.0 < prior < 1.0:
        raise ValueError(f"init_class_prior must be in (0, 1), got {prior!r}")
    return float(np.log(prior / (1 - prior)))
