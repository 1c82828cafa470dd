"""The production model server.

Section 7: "products are composed of many services that are connected via
latency agreements. When engineers have to ensure that classifiers make
predictions within allotted times, they have to be very selective about
what features to use."

:class:`ProductionServer` is where that constraint is enforced in the
reproduction:

* it only loads *blessed* model versions from the registry,
* it refuses featurizers that read the non-servable view — the whole
  point of the cross-feature transfer is that non-servable resources
  never appear here,
* every request's virtual feature+inference latency is accounted against
  an SLA budget, and violations are reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.spec import NonServableAccessError
from repro.serving.model_registry import ModelRegistry, ModelVersion
from repro.types import Example

__all__ = ["ServingStats", "ProductionServer"]


@dataclass
class ServingStats:
    """Request accounting for one served model."""

    requests: int = 0
    total_latency_ms: float = 0.0
    sla_violations: int = 0

    @property
    def mean_latency_ms(self) -> float:
        """Mean virtual per-request latency; 0 before any request."""
        if self.requests == 0:
            return 0.0
        return self.total_latency_ms / self.requests


#: Virtual per-request model inference cost (ms) by model kind.
_INFERENCE_MS = {
    "NoiseAwareLogisticRegression": 0.05,
    "NoiseAwareMLP": 0.3,
}


def _model_input(features):
    """A featurizer's output as a model takes it: sparse stays sparse
    (scipy loads here, not with the module), anything else becomes an
    ndarray."""
    from scipy import sparse

    return features if sparse.issparse(features) else np.asarray(features)


class ProductionServer:
    """Serves the latest blessed version of one model."""

    def __init__(
        self,
        registry: ModelRegistry,
        model_name: str,
        sla_ms: float = 10.0,
    ) -> None:
        """Bind a server to one model name in a blessing registry.

        Args:
            registry: The versioned registry to deploy from.
            model_name: Which model's blessed versions to serve.
            sla_ms: Virtual per-request latency budget; requests whose
                accounted feature + inference cost exceeds it count as
                SLA violations.
        """
        self.registry = registry
        self.model_name = model_name
        self.sla_ms = sla_ms
        self.stats = ServingStats()
        self._loaded: ModelVersion | None = None

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def refresh(self) -> ModelVersion:
        """Load the newest blessed version (called on deploy/update).

        Returns:
            The loaded :class:`ModelVersion`.

        Raises:
            LookupError: If no blessed version exists.
            NonServableAccessError: If the blessed version's featurizer
                reads the non-servable view.
        """
        version = self.registry.latest_blessed(self.model_name)
        if version is None:
            raise LookupError(
                f"no blessed version of {self.model_name!r} to serve"
            )
        if not version.featurizer.spec.servable:
            raise NonServableAccessError(
                f"model {self.model_name!r} v{version.version} uses "
                f"non-servable featurizer {version.featurizer.spec.name!r}; "
                f"refusing to serve"
            )
        self._loaded = version
        return version

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def predict(self, example: Example) -> float:
        """Score one request; returns ``P(y = +1)``."""
        if self._loaded is None:
            self.refresh()
        assert self._loaded is not None
        featurizer = self._loaded.featurizer
        model = self._loaded.model

        features = _model_input(featurizer.transform([example]))
        score = float(model.predict_proba(features)[0])

        latency = featurizer.spec.latency_ms_per_example + _INFERENCE_MS.get(
            type(model).__name__, 0.1
        )
        self.stats.requests += 1
        self.stats.total_latency_ms += latency
        if latency > self.sla_ms:
            self.stats.sla_violations += 1
        return score

    def predict_batch(self, examples: list[Example]) -> np.ndarray:
        """Score a batch (offline backfill path)."""
        if self._loaded is None:
            self.refresh()
        assert self._loaded is not None
        features = _model_input(self._loaded.featurizer.transform(examples))
        scores = self._loaded.model.predict_proba(features)
        per_request = (
            self._loaded.featurizer.spec.latency_ms_per_example
            + _INFERENCE_MS.get(type(self._loaded.model).__name__, 0.1)
        )
        self.stats.requests += len(examples)
        self.stats.total_latency_ms += per_request * len(examples)
        return np.asarray(scores)
