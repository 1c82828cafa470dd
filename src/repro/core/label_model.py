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
(:meth:`_StepKernel.solve`), O(patterns x m^2 + m^3) per iteration
whatever ``n`` is: the paper's claim is about the objective, not the
step rule, and minibatches drawn from the table only put back noise the
compression removed. It is the only trainer: the streaming model
(:mod:`repro.core.online_label_model`) solves its pattern table with the
same call on every batch. On the benchmark's 15-21-pattern, 8-LF tables
(2-CPU container) the solve takes 17-32 iterations and about 1.5-4 ms
(:class:`_StepKernel` says where the time goes); each iteration
consumes the whole table, well past the paper's "> 100 steps per
second".
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
#: ``_MAX_ITERATIONS`` (the benchmark's tables take 17-32).
_TOLERANCE = 1e-9
_MAX_ITERATIONS = 200
#: Line search: sufficient-decrease constant, the relative rounding of a
#: summed loss it forgives, and the step scales it tries (1, 1/2, ...,
#: 2**-39), scored in chunks: half the iterations take the full step,
#: most of the rest pass within eight halvings.
_ARMIJO = 1e-4
_ROUNDOFF = 4 * np.finfo(np.float64).eps
_HALVINGS = tuple(0.5 ** np.arange(a, b) for a, b in ((0, 8), (8, 40)))
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
        learn_prior = self.config.learn_class_prior
        kernel = _StepKernel(votes, learn_prior, prior_logit)
        iterations, loss, theta = kernel.solve()
        m = self.n_lfs = kernel.n_lfs
        self.alpha, self.beta = theta[:m].copy(), theta[m : 2 * m].copy()
        self.prior_logit = float(theta[-1]) if learn_prior else prior_logit
        self.steps_taken += iterations
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
                is not an ``int`` >= 0, ``n_lfs`` is not an ``int`` >= 1
                (it may be ``None`` only while ``alpha`` is), the prior
                or a loss is not a finite number, ``alpha`` or ``beta``
                is neither ``None`` nor a finite float array of shape
                ``(n_lfs,)``, or an array is not an encoded array;
                nothing is restored then.
        """
        from repro.dfs.records import decode_ndarray

        require_fields(
            state,
            "label-model parameters",
            ("alpha", "beta", "prior_logit", "n_lfs", "steps_taken", "loss_history"),
        )
        steps_taken = require_int(state["steps_taken"], "steps_taken", minimum=0)
        try:
            prior_logit = float(state["prior_logit"])
            pairs = [(s, float(l)) for s, l in state["loss_history"]]
        except (TypeError, ValueError) as error:
            raise ValueError(f"label-model parameters are malformed: {error!r}") from error
        loss_history = [
            (require_int(s, "loss_history step", minimum=0), l) for s, l in pairs
        ]
        if not np.isfinite([prior_logit, *(l for _, l in loss_history)]).all():
            raise ValueError(
                "label-model parameters are malformed: the prior and every "
                "loss must be finite"
            )
        n_lfs = state["n_lfs"]
        if n_lfs is not None or state["alpha"] is not None:
            require_int(n_lfs, "n_lfs", minimum=1)
        alpha = None if state["alpha"] is None else decode_ndarray(state["alpha"])
        beta = None if state["beta"] is None else decode_ndarray(state["beta"])
        for name, array in (("alpha", alpha), ("beta", beta)):
            if array is not None and not (
                array.shape == (n_lfs,)
                and array.dtype.kind == "f"
                and np.isfinite(array).all()
            ):
                raise ValueError(
                    f"label-model parameters are malformed: {name} must be "
                    f"finite floats of shape ({n_lfs},), got {array.dtype} "
                    f"of shape {array.shape}"
                )
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
        kernel = _StepKernel(compress_votes(_validate_label_matrix(L)), False, self.prior_logit)
        return float(kernel.losses(np.concatenate([self.alpha, self.beta])[:, None])[0])

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
        Z = np.logaddexp(np.logaddexp(self.alpha + self.beta, self.beta - self.alpha), 0.0)
        return -np.expm1(-Z)

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
    """The module-docstring objective over one pattern table, and
    :meth:`solve` (projected Newton) on it.

    The parameters are one vector ``theta = (alpha, beta[,
    prior_logit])``; pattern ``i`` counts ``counts[i] / n``, so the loss
    is the mean NLL (``W = 1``). A solve is a few dozen iterations on
    arrays of a few dozen entries, so it costs its NumPy calls, not its
    arithmetic: the buffers are allocated once per table, a stack of
    candidates (one per column) is scored in one pass, and the gradient
    and Hessian read that pass's terms. Memory is O(patterns x m + m^2).
    """

    def __init__(self, votes: CompressedVotes, learn_prior: bool, prior_logit: float) -> None:
        P = self.patterns = _validate_label_matrix(votes.patterns)
        m = self.n_lfs = P.shape[1]
        size = self.size = 2 * m + learn_prior
        self.weights = votes.weights / votes.n_rows
        # Weighted fire counts are exact integers, so the fire rates do
        # not depend on the pattern order.
        self.fired = (np.abs(P) * votes.weights[:, None]).sum(axis=0) / votes.n_rows
        self.learn_prior, self.prior_logit = learn_prior, prior_logit
        self._log_prior = (-np.logaddexp(0.0, -prior_logit), -np.logaddexp(0.0, prior_logit))
        # The observed votes are 2 L^T (w p) - L^T w.
        self._votes2, self._vote_offset = 2.0 * P.T, P.T @ self.weights
        self._curvature_map = -4.0 * P.T
        # A candidate's loss: its stack column (theta, Z_j, mixture_i)
        # times (0, -fired, 0, 1, -w).
        self._loss_row = np.concatenate(
            (np.zeros(m), -self.fired, np.zeros(size - 2 * m), np.ones(m), -self.weights)
        )
        # Besides the alpha (and prior) block, the Hessian has four
        # diagonals: (alpha_j, alpha_j), (alpha_j, beta_j), (beta_j,
        # alpha_j) and (beta_j, beta_j).
        self._hessian = np.zeros((size, size))
        flat, stride = self._hessian.reshape(-1), size + 1
        self._diagonals = [flat[start::stride][:m] for start in (0, m, size * m, stride * m)]
        self._floor = _MIN_CURVATURE * np.eye(size)

    def losses(self, trials: np.ndarray) -> np.ndarray:
        """The loss at each column of the ``(size, K)`` ``trials``."""
        stack = np.empty((len(self._loss_row), trials.shape[1]))
        stack[: len(trials)] = trials
        return self.evaluate(stack, self._loss_row)

    def evaluate(self, stack: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """Write ``Z_j`` and the mixture terms under the candidates in
        the first ``size`` rows of ``stack``, keep each candidate's
        outcome probabilities and posterior terms for :meth:`gradient`,
        and return ``coefficients @ stack``."""
        m, size = self.n_lfs, self.size
        alpha, beta = stack[:m], stack[m : 2 * m]
        # Each LF's outcome logits (correct, wrong, abstain) and their
        # softmax, shifted by the peak (the first logit or 0: alpha >= 0).
        logits = np.zeros((3, m, stack.shape[1]))
        np.add(alpha, beta, out=logits[0])
        np.subtract(beta, alpha, out=logits[1])
        peak = np.maximum(logits[0], 0.0)
        shifted = np.exp(logits - peak)
        total = shifted.sum(axis=0)
        np.add(np.log(total), peak, out=stack[size : size + m])
        self._all_probs = shifted / total
        a = self.patterns @ alpha
        if self.learn_prior:
            prior = stack[size - 1]
            log_pos, log_neg = -np.logaddexp(0.0, -prior), -np.logaddexp(0.0, prior)
        else:
            log_pos, log_neg = self._log_prior
        self._positive = positive = a + log_pos
        self._mixture = np.logaddexp(positive, log_neg - a, out=stack[size + m :])
        return coefficients @ stack

    def gradient(self, theta: np.ndarray, column: int) -> np.ndarray:
        """The gradient at ``theta`` (alphas in the box), column
        ``column`` of the last :meth:`evaluate`."""
        m, weights = self.n_lfs, self.weights
        # Posterior P(Y=+1 | L_i) = sigmoid(2 a_i + prior_logit).
        posterior = np.exp(self._positive[:, column] - self._mixture[:, column])
        weighted = weights * posterior
        self._curvature = weighted - weighted * posterior
        self._probs = probs = self._all_probs[:, :, column]
        self._margin, self._fires = probs[0] - probs[1], 1.0 - probs[2]
        # Each gradient is E[outcome] - observed outcome.
        grad = np.empty(len(theta))
        np.subtract(self._margin, self._votes2 @ weighted - self._vote_offset, out=grad[:m])
        np.subtract(self._fires, self.fired, out=grad[m : 2 * m])
        if self.learn_prior:
            # d(log prior terms)/d(prior_logit): E[Y]=2p-1 pushes the
            # prior toward the average posterior.
            grad[-1] = _sigmoid(theta[-1]) * weights.sum() - weighted.sum()
        return grad

    def direction(self, theta: np.ndarray, grad: np.ndarray, pinned: list) -> np.ndarray:
        """The Newton direction at the last :meth:`gradient` call on the
        variables not ``pinned`` (alpha indices), with the free
        Hessian's eigenvalues made positive (at least
        :data:`_MIN_CURVATURE`). When they all clear the floor, which a
        Cholesky factorization of ``H - floor I`` (pinned rows and
        columns unit) decides, that is the plain Newton step; otherwise
        the eigendecomposition gives it."""
        m, size, hess = self.n_lfs, self.size, self._hessian
        margin, fires, p_abstain = self._margin, self._fires, self._probs[2]
        # The posteriors' part: -4 sum_i c_i L_i L_i^T on the alpha
        # block (a learned prior is a last column of 1/2 in L_i).
        curvature = self._curvature
        np.matmul(self._curvature_map * curvature, self.patterns, out=hess[:m, :m])
        if self.learn_prior:
            prior = _sigmoid(theta[-1])
            hess[:m, -1] = hess[-1, :m] = 0.5 * (self._curvature_map @ curvature)
            hess[-1, -1] = prior * (1.0 - prior) - curvature.sum()
        # Z_j's part: the covariance of the outcome statistics (+-1, 1, 0).
        alphas, alpha_beta, beta_alpha, betas = self._diagonals
        alphas += fires - margin * margin
        np.multiply(margin, p_abstain, out=alpha_beta)
        beta_alpha[:] = alpha_beta
        np.multiply(fires, p_abstain, out=betas)
        if pinned:
            grad = grad.copy()
            for j in pinned:
                hess[j], hess[:, j], grad[j] = 0.0, 0.0, 0.0
                hess[j, j] = 1.0
        try:
            np.linalg.cholesky(hess - self._floor)
        except np.linalg.LinAlgError:
            free = np.ones(size, dtype=bool)
            free[pinned] = False
            values, vectors = np.linalg.eigh(hess[np.ix_(free, free)])
            values = np.maximum(np.abs(values), _MIN_CURVATURE)
            direction = np.zeros(size)
            direction[free] = -(vectors @ ((vectors.T @ grad[free]) / values))
            return direction
        return np.linalg.solve(hess, -grad)

    def solve(self) -> tuple[int, float, np.ndarray]:
        """Minimise the loss over ``0 <= alpha <= _MAX_ALPHA`` (beta and
        a learned prior are free) from the warm start (alpha
        :data:`_INIT_ALPHA`, beta :func:`_warm_beta`, the configured
        prior); returns the accepted iterations, the final loss and
        ``theta``. Each iteration pins the alphas on a bound that the
        gradient pushes outward, takes :meth:`direction` on the rest,
        and backtracks along its box projection, halving the step, until
        the Armijo condition holds (the halvings are scored a chunk at a
        time; the first that passes is taken). Every step descends, so
        the solve stays in the warm start's basin: in the likelihood's
        other one a correlated trio of LFs runs to the cap and label
        quality drops.
        """
        m, size = self.n_lfs, self.size
        theta = np.full(size, self.prior_logit)
        theta[:m], theta[m : 2 * m] = _INIT_ALPHA, _warm_beta(self.fired)
        loss, column = float(self.losses(theta[:, None])[0]), 0
        # Row 0 sums a candidate's loss; row 1 also takes off the
        # Armijo slope, _ARMIJO grad . candidate.
        coefficients = np.vstack((self._loss_row, self._loss_row))
        for iteration in range(_MAX_ITERATIONS):
            grad = self.gradient(theta, column)
            alphas, slopes = theta[:m].tolist(), grad.tolist()
            pinned = [
                j
                for j, (x, g) in enumerate(zip(alphas, slopes))
                if (g > 0.0 and x <= 0.0) or (g < 0.0 and x >= _MAX_ALPHA)
            ]
            # The projected gradient, theta - clip(theta - grad).
            moves = [x - min(max(x - g, 0.0), _MAX_ALPHA) for x, g in zip(alphas, slopes)]
            if max(map(abs, moves + slopes[m:])) <= _TOLERANCE:
                return iteration, loss, theta
            direction = self.direction(theta, grad, pinned)
            # Armijo: loss(T) <= loss + _ARMIJO grad . (T - theta),
            # forgiving the rounding of a summed loss: near the optimum a
            # step lowers the loss by less, and the solve would stall.
            np.subtract(self._loss_row[:size], _ARMIJO * grad, out=coefficients[1, :size])
            bound = loss + _ROUNDOFF * abs(loss) - _ARMIJO * float(grad @ theta)
            origin = theta[:, None]
            for scales in _HALVINGS:
                stack = np.empty((len(self._loss_row), len(scales)))
                trials = np.add(origin, np.multiply.outer(direction, scales), out=stack[:size])
                np.minimum(np.maximum(trials[:m], 0.0, out=trials[:m]), _MAX_ALPHA, out=trials[:m])
                values = self.evaluate(stack, coefficients)
                passed = (values[1] <= bound).tolist()
                if True in passed:
                    break
            else:  # no step lowers the loss at float precision
                return iteration, loss, theta
            column = passed.index(True)
            theta, loss = trials[:, column], float(values[0, column])
        return _MAX_ITERATIONS, loss, theta


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _validate_label_matrix(L: np.ndarray) -> np.ndarray:
    L = np.asarray(L)
    if L.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {L.shape}")
    if ((L != 0) & (L != 1) & (L != -1)).any():
        raise ValueError(
            f"binary label matrix entries must be in {{-1, 0, 1}}, got {np.unique(L)}"
        )
    return L.astype(np.float64, copy=False)


def _sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


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
