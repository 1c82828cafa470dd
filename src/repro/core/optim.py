"""Tiny first-order optimizers for the generative models.

The paper trains its static compute graph with stochastic gradient
methods; we keep the optimizers explicit and dependency-free so the label
model's training loop reads like the math. Adam is the workhorse; plain
SGD is kept for the speed benchmark (one multiply-add per parameter,
closest to the per-step cost the paper reports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "adam_step", "sgd_step"]


@dataclass
class AdamState:
    """First/second-moment accumulators for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    learning_rate: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One Adam update; mutates ``state``, returns the new parameters
    (written into ``out``, which may be ``params``, when given)."""
    state.t += 1
    state.m = state.beta1 * state.m + (1 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1 - state.beta2) * grad * grad
    m_hat = state.m / (1 - state.beta1 ** state.t)
    v_hat = state.v / (1 - state.beta2 ** state.t)
    return np.subtract(
        params, learning_rate * m_hat / (np.sqrt(v_hat) + state.eps), out=out
    )


def sgd_step(
    params: np.ndarray,
    grad: np.ndarray,
    learning_rate: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One plain SGD update (written into ``out``, which may be
    ``params``, when given)."""
    return np.subtract(params, learning_rate * grad, out=out)
