"""Simulated internal semantic topic model.

Section 3.1: "Heuristics based on a topic model maintained internally at
Google. This topic model output semantic categorizations far too
coarse-grained for the targeted task at hand, but which nonetheless could
be used as effective negative labeling heuristics."

The reproduction is a keyword-affinity categorizer over a fixed coarse
taxonomy. Its deliberate *coarseness* is the point: it can say a document
is about ``finance`` or ``entertainment``, never about the fine-grained
target class, so labeling functions use it exactly as the paper does —
to veto obviously-unrelated content.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.services.base import ModelServer
from repro.services.nlp_server import tokenize

__all__ = ["TopicScore", "TopicModel"]


@dataclass
class TopicScore:
    """One coarse category with its affinity score."""

    category: str
    score: float


class TopicModel(ModelServer):
    """Coarse semantic categorization service.

    Parameters
    ----------
    category_keywords:
        Mapping ``category -> keyword list``. Scores are normalized keyword
        hit rates with add-one smoothing; argmax wins. Documents with no
        category hits return an empty result (the real system similarly
        abstains on out-of-domain inputs).
    """

    #: Batch-maintained and applied "generally to incoming content"
    #: (Section 7), i.e. cheap to look up offline but not a real-time
    #: serving signal for new tasks.
    latency_ms = 8.0
    servable = False

    def __init__(self, category_keywords: dict[str, list[str]]) -> None:
        super().__init__(name="topic-model")
        if not category_keywords:
            raise ValueError("topic model needs at least one category")
        self._category_keywords = {
            cat: frozenset(kw.lower() for kw in kws)
            for cat, kws in category_keywords.items()
        }
        # Inverted keyword index for the fused LF kernel: token -> categories.
        index: dict[str, tuple[str, ...]] = {}
        for cat, keywords in self._category_keywords.items():
            for keyword in keywords:
                index[keyword] = index.get(keyword, ()) + (cat,)
        self._keyword_index = index

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def categorize(self, text: str, top_k: int = 3) -> list[TopicScore]:
        """Return up to ``top_k`` coarse categories sorted by score."""
        self._track()
        tokens = [t.lower() for t in tokenize(text)]
        if not tokens:
            return []
        token_set = set(tokens)
        scores = []
        for category, keywords in self._category_keywords.items():
            hits = len(token_set & keywords)
            if hits:
                scores.append(TopicScore(category, hits / len(token_set)))
        scores.sort(key=lambda s: (-s.score, s.category))
        return scores[:top_k]

    def top_category(self, text: str) -> str | None:
        """The argmax category, or ``None`` when nothing matches."""
        scores = self.categorize(text, top_k=1)
        return scores[0].category if scores else None

    @property
    def categories(self) -> list[str]:
        return sorted(self._category_keywords)

    @property
    def keyword_index(self) -> dict[str, tuple[str, ...]]:
        """Inverted ``keyword -> categories`` index, read by
        :class:`repro.lf.templates.FusedPlan` when it compiles a
        :class:`~repro.lf.templates.TopicVetoSpec`.

        Probing it per document and taking the highest hit count (ties
        to the smallest category name) gives :meth:`top_category`'s
        argmax, because every category shares the document's
        distinct-token denominator. Readers bypass per-call accounting
        and must report usage via :meth:`record_batch_calls`.
        """
        return self._keyword_index
