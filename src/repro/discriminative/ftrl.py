"""FTRL-Proximal optimizer (McMahan et al., KDD 2013 — the paper's [22]).

Section 6.1 trains the content classifiers "using the FTLR optimization
algorithm, a variant of stochastic gradient descent that tunes
per-coordinate learning rates, with an initial step size of 0.2". This is
the "Follow The (Proximally) Regularized Leader" algorithm from the ad
click prediction paper; we implement the standard per-coordinate form:

    sigma_i  = (sqrt(n_i + g_i^2) - sqrt(n_i)) / alpha
    z_i     += g_i - sigma_i * w_i
    n_i     += g_i^2
    w_i      = 0                                  if |z_i| <= lambda1
             = -(z_i - sign(z_i) lambda1)
               / ((beta + sqrt(n_i)) / alpha + lambda2)   otherwise

The lazy, per-coordinate updates make it efficient on hashed sparse text
features; L1 gives the sparse final weight vectors production serving
likes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FTRLProximal"]


class FTRLProximal:
    """Per-coordinate FTRL-Proximal state for a linear model."""

    def __init__(
        self,
        dimension: int,
        alpha: float = 0.2,
        beta: float = 1.0,
        l1: float = 0.0,
        l2: float = 0.0,
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if alpha <= 0:
            raise ValueError("alpha (initial step size) must be positive")
        self.dimension = dimension
        self.alpha = alpha
        self.beta = beta
        self.l1 = l1
        self.l2 = l2
        self.z = np.zeros(dimension)
        self.n = np.zeros(dimension)
        self._w = np.zeros(dimension)
        self._dirty = np.zeros(dimension, dtype=bool)

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def weights_for(self, indices: np.ndarray) -> np.ndarray:
        """Current weights at the given coordinates (lazily materialized)."""
        self._materialize(indices)
        return self._w[indices]

    def dense_weights(self) -> np.ndarray:
        """Materialize and return the full weight vector."""
        self._materialize(np.arange(self.dimension))
        return self._w.copy()

    def _materialize(self, indices: np.ndarray) -> None:
        dirty = indices[self._dirty[indices]]
        if len(dirty) == 0:
            return
        z = self.z[dirty]
        n = self.n[dirty]
        w = np.zeros(len(dirty))
        active = np.abs(z) > self.l1
        if active.any():
            za = z[active]
            na = n[active]
            w[active] = -(za - np.sign(za) * self.l1) / (
                (self.beta + np.sqrt(na)) / self.alpha + self.l2
            )
        self._w[dirty] = w
        self._dirty[dirty] = False

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, indices: np.ndarray, gradients: np.ndarray) -> None:
        """Apply per-coordinate gradients at sparse positions."""
        indices = np.asarray(indices)
        gradients = np.asarray(gradients, dtype=np.float64)
        if indices.shape != gradients.shape:
            raise ValueError("indices and gradients must align")
        self._materialize(indices)
        g2 = gradients * gradients
        n = self.n[indices]
        sigma = (np.sqrt(n + g2) - np.sqrt(n)) / self.alpha
        self.z[indices] += gradients - sigma * self._w[indices]
        self.n[indices] = n + g2
        self._dirty[indices] = True

    def nonzero_weights(self) -> int:
        """Count of active (non-zero) weights — L1 sparsity measure."""
        return int(np.count_nonzero(self.dense_weights()))
