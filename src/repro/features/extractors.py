"""Feature extractors for the discriminative models.

Two regimes from the paper:

* **content applications** (Sections 3.1/3.2): logistic regression "with
  servable features similar to those used in production" — reproduced as
  hashed token n-grams over the raw title/body plus cheap URL signals
  (:class:`HashedTextFeaturizer`);
* **real-time events** (Section 3.3): a DNN "over real-time event-level
  features" — reproduced as a dense vector of the event's servable
  signals (:class:`EventFeaturizer`).

Hashing uses a stable MD5-based bucket assignment so models serialize
and serve reproducibly across processes (Python's builtin ``hash`` is
salted per process and would silently break staged models).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.features.spec import FeatureView, FeaturizerSpec, NonServableAccessError
from repro.services.nlp_server import tokenize
from repro.types import Example

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["HashedTextFeaturizer", "EventFeaturizer", "DictVectorFeaturizer"]


def _bucket(token: str, num_buckets: int) -> int:
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_buckets


class HashedTextFeaturizer:
    """Hashed unigram+bigram bag-of-words over raw content fields.

    Produces L2-normalized sparse rows. The topic-classification task has
    "an order-of-magnitude more features than the product classification
    task" (Section 6.1); the per-application dimension is configured in
    :mod:`repro.applications` to preserve that ratio.
    """

    def __init__(
        self,
        num_buckets: int = 2 ** 18,
        fields: Sequence[str] = ("title", "body"),
        use_bigrams: bool = True,
        include_url_domain: bool = True,
        name: str = "hashed_text",
    ) -> None:
        self.num_buckets = num_buckets
        self.fields = tuple(fields)
        self.use_bigrams = use_bigrams
        self.include_url_domain = include_url_domain
        self.spec = FeaturizerSpec(
            name=name,
            view=FeatureView.RAW_CONTENT,
            dimension=num_buckets,
            latency_ms_per_example=0.2,
        )

    # ------------------------------------------------------------------
    def _tokens(self, example: Example) -> list[str]:
        tokens: list[str] = []
        for field in self.fields:
            tokens.extend(
                t.lower() for t in tokenize(str(example.fields.get(field, "")))
            )
        return tokens

    def transform_one(self, example: Example) -> dict[int, float]:
        """Sparse feature dict for one example."""
        tokens = self._tokens(example)
        counts: dict[int, float] = {}
        for token in tokens:
            key = _bucket("u:" + token, self.num_buckets)
            counts[key] = counts.get(key, 0.0) + 1.0
        if self.use_bigrams:
            for first, second in zip(tokens, tokens[1:]):
                key = _bucket(f"b:{first}_{second}", self.num_buckets)
                counts[key] = counts.get(key, 0.0) + 1.0
        if self.include_url_domain:
            url = str(example.fields.get("url", ""))
            if url:
                from repro.services.web_crawler import domain_of

                key = _bucket("d:" + domain_of(url), self.num_buckets)
                counts[key] = counts.get(key, 0.0) + 2.0
        norm = float(np.sqrt(sum(v * v for v in counts.values())))
        if norm > 0:
            counts = {k: v / norm for k, v in counts.items()}
        return counts

    def transform(self, examples: Sequence[Example]) -> sparse.csr_matrix:
        """CSR matrix of shape (n_examples, num_buckets)."""
        from scipy import sparse

        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for example in examples:
            row = self.transform_one(example)
            for key in sorted(row):
                indices.append(key)
                data.append(row[key])
            indptr.append(len(indices))
        return sparse.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
            shape=(len(examples), self.num_buckets),
        )


class EventFeaturizer:
    """Dense real-time event-level features (the servable view).

    Reads ``example.servable[signal]`` for a fixed signal list; refuses to
    read anything from the non-servable view by construction.
    """

    def __init__(self, signals: Sequence[str], name: str = "event_signals") -> None:
        if not signals:
            raise ValueError("event featurizer needs at least one signal")
        self.signals = tuple(signals)
        self.spec = FeaturizerSpec(
            name=name,
            view=FeatureView.SERVABLE,
            dimension=len(self.signals),
            latency_ms_per_example=0.02,
        )

    def transform(self, examples: Sequence[Example]) -> np.ndarray:
        out = np.zeros((len(examples), len(self.signals)))
        for i, example in enumerate(examples):
            for j, signal in enumerate(self.signals):
                out[i, j] = float(example.servable.get(signal, 0.0))
        return out

    def transform_one(self, example: Example) -> np.ndarray:
        return self.transform([example])[0]


class DictVectorFeaturizer:
    """Dense features from an explicit field list on a chosen view.

    The *non-servable* configuration exists so experiments can quantify
    the offline/online gap; attempting to use it at serving time raises
    :class:`NonServableAccessError` (enforced by the production server).
    """

    def __init__(
        self,
        fields: Sequence[str],
        view: FeatureView = FeatureView.SERVABLE,
        name: str = "dict_vector",
    ) -> None:
        self.fields = tuple(fields)
        self.view = view
        self.spec = FeaturizerSpec(
            name=name,
            view=view,
            dimension=len(self.fields),
            latency_ms_per_example=5.0
            if view is FeatureView.NON_SERVABLE
            else 0.02,
        )

    def transform(self, examples: Sequence[Example]) -> np.ndarray:
        out = np.zeros((len(examples), len(self.fields)))
        for i, example in enumerate(examples):
            if self.view is FeatureView.SERVABLE:
                source = example.servable
            elif self.view is FeatureView.NON_SERVABLE:
                source = example.non_servable
            else:
                raise NonServableAccessError(
                    "DictVectorFeaturizer only supports servable/non-servable views"
                )
            for j, field in enumerate(self.fields):
                out[i, j] = float(source.get(field, 0.0))
        return out

    def transform_one(self, example: Example) -> np.ndarray:
        return self.transform([example])[0]
