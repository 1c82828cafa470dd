"""Simulated general-purpose NLP model server.

The paper's ``NLPLabelingFunction`` integrates with "Google's
general-purpose natural language processing (NLP) models", which are "too
computationally expensive to run for all content" — hence launched as a
model server on each MapReduce compute node (Section 5.1). The motivating
code example uses the named-entity-recognition output:

    if (nlp.entities.people.size() == 0) return NEGATIVE;

We reproduce a deterministic lexicon + rule NER tagger that provides the
same interface surface:

* tokenization,
* entity mentions grouped by type (``people``, ``organizations``,
  ``products``, ``locations``) via longest-match lexicon lookup,
* a capitalization fallback for out-of-lexicon person names ("Xx Xx"
  bigrams), mirroring how statistical NER generalizes beyond gazetteers.

The lexicons come from the synthetic world (:mod:`repro.datasets.vocab`),
so entity tags correlate with the latent labels exactly as a real NER
system's tags correlate with topical content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.services.base import ModelServer

__all__ = ["NLPResult", "NLPServer", "tokenize"]


def tokenize(text: str) -> list[str]:
    """Whitespace tokenizer; punctuation is stripped from token edges."""
    tokens = []
    for raw in text.split():
        token = raw.strip(".,;:!?()[]{}\"'")
        if token:
            tokens.append(token)
    return tokens


@dataclass
class NLPResult:
    """Annotation output, shaped like the paper's ``NLPResult``."""

    tokens: list[str] = field(default_factory=list)
    people: list[str] = field(default_factory=list)
    organizations: list[str] = field(default_factory=list)
    products: list[str] = field(default_factory=list)
    locations: list[str] = field(default_factory=list)

    @property
    def entities(self) -> dict[str, list[str]]:
        """Entity mentions grouped by type."""
        return {
            "people": self.people,
            "organizations": self.organizations,
            "products": self.products,
            "locations": self.locations,
        }

    def to_record(self) -> dict[str, object]:
        return {"tokens": self.tokens, **self.entities}


_TYPE_FIELDS = {
    "person": "people",
    "organization": "organizations",
    "product": "products",
    "location": "locations",
}


class NLPServer(ModelServer):
    """Lexicon + rule named-entity tagger behind the model-server protocol.

    Parameters
    ----------
    lexicon:
        Mapping from surface form (possibly multi-token, lowercase) to
        entity type (``person`` / ``organization`` / ``product`` /
        ``location``).
    infer_capitalized_people:
        Enable the "Xx Xx" person fallback rule.
    """

    #: Expensive by construction — this is the canonical non-servable model.
    latency_ms = 40.0
    servable = False

    def __init__(
        self,
        lexicon: dict[str, str] | None = None,
        infer_capitalized_people: bool = True,
    ) -> None:
        super().__init__(name="nlp-server")
        self._raw_lexicon = dict(lexicon or {})
        self._infer_people = infer_capitalized_people
        self._index: dict[str, tuple[str, str]] = {}
        self._max_len = 1

    def _on_start(self) -> None:
        # "Loading the model": build the longest-match lookup index.
        self._index = {}
        self._max_len = 1
        for surface, etype in self._raw_lexicon.items():
            if etype not in _TYPE_FIELDS:
                raise ValueError(f"unknown entity type {etype!r} for {surface!r}")
            key = surface.lower()
            self._index[key] = (surface, etype)
            self._max_len = max(self._max_len, len(key.split()))

    def _on_stop(self) -> None:
        self._index = {}

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def annotate(self, text: str) -> NLPResult:
        """Tokenize and tag entities in ``text``."""
        self._track()
        tokens = tokenize(text)
        result = NLPResult(tokens=tokens)
        lowered = [t.lower() for t in tokens]
        matched = [False] * len(tokens)

        # Longest-match lexicon pass.
        i = 0
        while i < len(tokens):
            hit = None
            for length in range(min(self._max_len, len(tokens) - i), 0, -1):
                candidate = " ".join(lowered[i:i + length])
                entry = self._index.get(candidate)
                if entry is not None:
                    hit = (entry[0], entry[1], length)
                    break
            if hit is None:
                i += 1
                continue
            surface, etype, length = hit
            getattr(result, _TYPE_FIELDS[etype]).append(surface)
            for k in range(i, i + length):
                matched[k] = True
            i += length

        # Capitalization fallback: adjacent unmatched capitalized bigrams
        # are probably person names.
        if self._infer_people:
            for i in range(len(tokens) - 1):
                if matched[i] or matched[i + 1]:
                    continue
                first, second = tokens[i], tokens[i + 1]
                if _looks_like_name(first) and _looks_like_name(second):
                    result.people.append(f"{first} {second}")
                    matched[i] = matched[i + 1] = True
        return result


def _looks_like_name(token: str) -> bool:
    return len(token) > 1 and token[0].isupper() and token[1:].islower()
