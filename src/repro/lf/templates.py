"""Factory helpers for the recurring weak-supervision patterns.

Section 3 catalogues the labeling-function types used across the three
Google applications: keyword and pattern heuristics over content,
URL-based source heuristics, topic-model vetoes, Knowledge-Graph keyword
translations, internal-model score thresholds, crawler-derived signals,
and aggregate-statistic thresholds. Each factory here returns a
:class:`repro.lf.default.LabelingFunction` wired with the right metadata
(category, servability, resources) so registries, the Figure 2 census,
and the Table 3 ablation all see a consistent inventory.

Every factory wires both template slots of the batched execution engine:
the per-example ``fn`` (the engineer-facing code, unchanged from the
paper) and a vectorized ``batch_fn`` used by ``label_batch`` and the
block-based MapReduce mapper. The two are semantically identical — the
equivalence suite asserts vote-for-vote agreement — but the batch
kernels tokenize each field once per kernel pass (once per example
across every LF of a fused plan), probe keyword sets with one hashed set
intersection instead of per-surface scans, and threshold model scores
as NumPy arrays. Kernels read an ``Example`` and never write to it:
tokens live only as long as the probe that reads them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.lf.default import LabelingFunction
from repro.lf.registry import LFCategory, LFInfo
from repro.services.aggregates import AggregateStore
from repro.services.knowledge_graph import KnowledgeGraph
from repro.services.nlp_server import tokenize
from repro.services.topic_model import TopicModel
from repro.services.web_crawler import WebCrawler, domain_of
from repro.types import ABSTAIN, Example

__all__ = [
    "keyword_lf",
    "url_domain_lf",
    "pattern_lf",
    "topic_model_lf",
    "kg_translation_lf",
    "kg_category_lf",
    "model_score_lf",
    "crawler_lf",
    "aggregate_threshold_lf",
    "TokenMatchSpec",
    "TopicVetoSpec",
    "FusedPlan",
    "apply_fused_batch_specs",
]


def _text_of(example: Example, fields: Sequence[str]) -> str:
    return " ".join(str(example.fields.get(f, "")) for f in fields)


def _contains_any(text: str, surfaces: Iterable[str]) -> bool:
    tokens = set(t.lower() for t in tokenize(text))
    lowered = None
    for surface in surfaces:
        surface = surface.lower()
        if " " in surface:
            if lowered is None:
                lowered = " ".join(t.lower() for t in tokenize(text))
            if surface in lowered:
                return True
        elif surface in tokens:
            return True
    return False


# ----------------------------------------------------------------------
# batch-kernel machinery
# ----------------------------------------------------------------------
#: Edge punctuation stripped by :func:`tokenize`.
_PUNCT = ".,;:!?()[]{}\"'"


def _fast_tokens(lowered_text: str) -> list[str]:
    """One-pass lexer equivalent to ``tokenize(text)`` on lowered text.

    ``split``, ``strip``, and the empty-token filter all run as C loops
    (``map`` with an unbound method and two iterables), which is what
    lets the batch engine tokenize a 20k-example block in tens of
    milliseconds. ``test_batch_equivalence`` asserts agreement with the
    NLP service's :func:`tokenize`.
    """
    return list(
        filter(None, map(str.strip, lowered_text.split(), repeat(_PUNCT)))
    )


def _field_tokens(example: Example, fields_key: tuple[str, ...]) -> list[str]:
    """Lowercased tokens of one example's content fields, in field order.

    Field texts are joined with a single space before tokenization in
    the scalar path, so the token stream of a multi-field key is exactly
    the concatenation of the per-field token streams — which is how it
    is built here. Nothing is kept on the example.
    """
    fields = example.fields
    tokens: list[str] = []
    for field in fields_key:
        tokens += _fast_tokens(str(fields.get(field, "")).lower())
    return tokens


class _SurfaceMatcher:
    """Keyword-surface matching against pre-tokenized examples.

    Mirrors :func:`_contains_any` exactly: single-token surfaces match by
    set membership (here: one hashed probe of the token stream instead
    of a scan over every surface), multi-token surfaces match as
    substrings of the space-joined lowercased token stream.
    """

    def __init__(self, surfaces: Iterable[str]) -> None:
        lowered = [s.lower() for s in surfaces]
        self.counts = Counter(s for s in lowered if " " not in s)
        self.single = frozenset(self.counts)
        self.multi = tuple(dict.fromkeys(s for s in lowered if " " in s))

    def matches(self, tokens: list[str]) -> bool:
        if not self.single.isdisjoint(tokens):
            return True
        if self.multi:
            joined = " ".join(tokens)
            return any(m in joined for m in self.multi)
        return False

    def hit_count(self, tokens: list[str]) -> int:
        """Surface occurrences found among the tokens.

        Matches the per-example ``min_hits`` semantics: duplicate
        surfaces count once each per duplicate, and multi-token surfaces
        never match a (single-token) token.
        """
        counts = self.counts
        return sum(counts[s] for s in self.single.intersection(tokens))


def _keyword_batch_votes(
    examples: Sequence[Example],
    matcher: _SurfaceMatcher,
    fields_key: tuple[str, ...],
    vote: int,
    min_hits: int = 1,
) -> np.ndarray:
    votes = np.zeros(len(examples), dtype=np.int8)
    if min_hits <= 1:
        for i, example in enumerate(examples):
            if matcher.matches(_field_tokens(example, fields_key)):
                votes[i] = vote
    else:
        for i, example in enumerate(examples):
            if matcher.hit_count(_field_tokens(example, fields_key)) >= min_hits:
                votes[i] = vote
    return votes


@dataclass(frozen=True)
class TokenMatchSpec:
    """Declarative form of a keyword-style LF for the fused executor.

    Factories whose vote is a pure function of the example's token
    stream (keyword and Knowledge-Graph LFs) attach one of these to the
    :class:`LabelingFunction` they build. The in-memory batch applier
    then *fuses* all such LFs in a suite: one tokenization pass and one
    inverted-index probe per example fills every fused LF's column at
    once, instead of m independent scans. ``get_surfaces`` is resolved
    lazily at execution time, after the LF's resources are running
    (Knowledge-Graph closures are computed by the live service).
    """

    fields: tuple[str, ...]
    get_surfaces: Callable[[], Iterable[str]]
    vote: int
    min_hits: int = 1


@dataclass(frozen=True)
class TopicVetoSpec:
    """Declarative form of a topic-model veto LF for the fused executor.

    The fused pass probes the topic model's inverted keyword index
    alongside the keyword LFs' surfaces — one probe per distinct token —
    and resolves the argmax category per example at the end, reporting
    usage through :meth:`~repro.services.base.ModelServer.record_batch_calls`
    so the virtual-cost accounting matches one model call per document.
    """

    fields: tuple[str, ...]
    topic_model: TopicModel
    veto: frozenset[str]
    vote: int


class FusedPlan:
    """The fused token-driven LFs of one suite, compiled once per run.

    Built from the suite's :class:`TokenMatchSpec` / :class:`TopicVetoSpec`
    list and :meth:`apply`-ed to any number of example blocks. Specs are
    grouped by their content-field tuple; each field of an example is
    tokenized once for every group, and each group probes its combined
    inverted index with one set intersection, so cost is O(tokens) per
    example instead of O(tokens x LFs) — and the index itself is built
    once, not per block.

    The plan iterates as (and has the length and truthiness of) the
    suite column indices of its specs, which is what
    :func:`repro.lf.applier.fused_lf_columns` returns it as.

    Lifetime: one started run. Construction touches no resource; the
    index is filled on the first :meth:`apply`, which the caller contract
    places after ``start_lf_resources`` — the only time Knowledge-Graph
    surfaces can be resolved. Restarting resources means a new plan.
    """

    def __init__(
        self,
        specs: Sequence[TokenMatchSpec | TopicVetoSpec],
        columns: Sequence[int] | None = None,
        width: int | None = None,
    ) -> None:
        """Describe the plan; compiles nothing.

        Args:
            specs: One declarative spec per fused LF.
            columns: Output column of each spec in the vote matrix;
                ``None`` means ``0..len(specs)-1``.
            width: Columns of the vote matrix :meth:`apply` returns;
                ``None`` means ``len(specs)``.
        """
        self.specs = tuple(specs)
        self.columns = (
            list(range(len(self.specs))) if columns is None else list(columns)
        )
        self.width = len(self.specs) if width is None else width
        #: Vote-matrix columns the plan leaves to ``label_batch`` kernels.
        self.unfused = tuple(sorted(set(range(self.width)) - set(self.columns)))
        self._topic_models = tuple(
            spec.topic_model
            for spec in self.specs
            if isinstance(spec, TopicVetoSpec)
        )
        self._groups: tuple | None = None

    def __iter__(self):
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def _compile(self) -> tuple:
        """Build the per-field-group indexes from the (started) specs."""
        by_fields: dict[tuple[str, ...], list[int]] = {}
        for k, spec in enumerate(self.specs):
            by_fields.setdefault(spec.fields, []).append(k)

        groups = []
        for fields_key, members in by_fields.items():
            # One combined inverted index for the whole group:
            # token -> (direct, counted, topic) action lists, where
            #   direct:  [(column, vote)]          any-hit keyword specs
            #   counted: [(column, weight)]        min_hits keyword specs
            #   topic:   [(topic slot, categories)] topic-model specs
            combined: dict[str, tuple[list, list, list]] = {}

            def _entry(token: str) -> tuple[list, list, list]:
                entry = combined.get(token)
                if entry is None:
                    entry = combined[token] = ([], [], [])
                return entry

            thresholds: list[tuple[int, int, int]] = []  # (column, min_hits, vote)
            multis: list[tuple[int, int, tuple[str, ...]]] = []  # (column, vote, surfaces)
            topics: list[tuple[int, frozenset[str], int]] = []  # (column, veto, vote)
            for k in members:
                spec, col = self.specs[k], self.columns[k]
                if isinstance(spec, TopicVetoSpec):
                    slot = len(topics)
                    for keyword, cats in spec.topic_model.keyword_index.items():
                        _entry(keyword)[2].append((slot, cats))
                    topics.append((col, spec.veto, spec.vote))
                    continue
                lowered = [s.lower() for s in spec.get_surfaces()]
                singles = [s for s in lowered if " " not in s]
                multi = tuple(dict.fromkeys(s for s in lowered if " " in s))
                if spec.min_hits <= 1:
                    for s in set(singles):
                        _entry(s)[0].append((col, spec.vote))
                    if multi:
                        multis.append((col, spec.vote, multi))
                else:
                    for s, c in Counter(singles).items():
                        _entry(s)[1].append((col, c))
                    thresholds.append((col, spec.min_hits, spec.vote))
            groups.append(
                (fields_key, frozenset(combined), combined, thresholds, multis, topics)
            )
        return tuple(groups)

    def apply(self, examples: Sequence[Example]) -> np.ndarray:
        """Vote every fused LF on one block.

        Returns an ``(n_examples, width)`` int8 matrix whose fused
        columns are vote-for-vote identical to running each spec's LF
        alone (asserted by the equivalence suite); other columns abstain.
        Topic-model usage is accounted on every call — one tracked call
        per document — so a stopped topic model still raises.
        """
        groups = self._groups
        if groups is None:
            # Built into locals and published with one assignment:
            # MapReduce block mappers share a plan across threads, and a
            # racing second build is identical and harmless.
            groups = self._groups = self._compile()
        for topic_model in self._topic_models:
            topic_model.record_batch_calls(len(examples))
        votes = np.zeros((len(examples), self.width), dtype=np.int8)
        for i, example in enumerate(examples):
            fields = example.fields
            # Each field is tokenized once per example and shared by the
            # groups that read it; nothing outlives this iteration.
            field_tokens: dict[str, list[str]] = {}
            for fields_key, keys, combined, thresholds, multis, topics in groups:
                tokens: list[str] = []
                for field in fields_key:
                    part = field_tokens.get(field)
                    if part is None:
                        part = field_tokens[field] = _fast_tokens(
                            str(fields.get(field, "")).lower()
                        )
                    tokens += part
                counts: dict[int, int] | None = None
                topic_hits: list[dict[str, int] | None] | None = None
                # One probe, in C: each distinct indexed token once, in
                # hash order. No action depends on order: direct actions
                # write one constant per column, and counted and topic
                # actions sum integers.
                for token in keys.intersection(tokens):
                    direct, counted, topical = combined[token]
                    for col, vote in direct:
                        votes[i, col] = vote
                    if counted:
                        if counts is None:
                            counts = {}
                        for col, weight in counted:
                            counts[col] = counts.get(col, 0) + weight
                    if topical:
                        if topic_hits is None:
                            topic_hits = [None] * len(topics)
                        for slot, cats in topical:
                            hits = topic_hits[slot]
                            if hits is None:
                                hits = topic_hits[slot] = {}
                            for cat in cats:
                                hits[cat] = hits.get(cat, 0) + 1
                if counts is not None:
                    for col, min_hits, vote in thresholds:
                        if counts.get(col, 0) >= min_hits:
                            votes[i, col] = vote
                if topic_hits is not None:
                    for hits, (col, veto, vote) in zip(topic_hits, topics):
                        if hits:
                            # Same argmax + (score desc, category asc)
                            # tie-break as TopicModel.top_category: the
                            # score denominator (distinct token count) is
                            # shared by all categories.
                            top = min(hits, key=lambda cat: (-hits[cat], cat))
                            if top.lower() in veto:
                                votes[i, col] = vote
                joined: str | None = None
                for col, vote, surfaces in multis:
                    if votes[i, col] == ABSTAIN:
                        if joined is None:
                            joined = " ".join(tokens)
                        if any(m in joined for m in surfaces):
                            votes[i, col] = vote
        return votes


def apply_fused_batch_specs(
    specs: Sequence[TokenMatchSpec | TopicVetoSpec],
    examples: Sequence[Example],
) -> np.ndarray:
    """Compile a throwaway :class:`FusedPlan` and apply it to one block:
    the ``(n_examples, len(specs))`` votes of ``specs``."""
    return FusedPlan(specs).apply(examples)


def keyword_lf(
    name: str,
    keywords: Iterable[str],
    vote: int,
    fields: Sequence[str] = ("title", "body"),
    min_hits: int = 1,
    description: str = "",
) -> LabelingFunction:
    """Vote when at least ``min_hits`` keywords appear in the content.

    Keyword heuristics run on raw content, which is available at serving
    time — they are the archetypal *servable* LF (Table 3's "Servable
    LFs" arm is exactly these pattern-based rules).
    """
    surfaces = [k.lower() for k in keywords]
    if not surfaces:
        raise ValueError(f"keyword LF {name!r} needs at least one keyword")
    matcher = _SurfaceMatcher(surfaces)
    fields_key = tuple(fields)

    def fn(example: Example) -> int:
        text = _text_of(example, fields)
        if min_hits <= 1:
            return vote if _contains_any(text, surfaces) else ABSTAIN
        tokens = set(t.lower() for t in tokenize(text))
        hits = sum(1 for s in surfaces if s in tokens)
        return vote if hits >= min_hits else ABSTAIN

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        return _keyword_batch_votes(examples, matcher, fields_key, vote, min_hits)

    info = LFInfo(
        name=name,
        category=LFCategory.CONTENT_HEURISTIC,
        servable=True,
        description=description or f"keyword match -> {vote:+d}",
    )
    lf = LabelingFunction(info, fn, batch_fn=batch_fn)
    lf.fused_spec = TokenMatchSpec(fields_key, lambda: surfaces, vote, min_hits)
    return lf


def url_domain_lf(
    name: str,
    domains: Iterable[str],
    vote: int,
    description: str = "",
) -> LabelingFunction:
    """Vote based on the linked URL's domain (Section 3.1 "URL-based").

    The URL string itself is a cheap servable signal; heuristics that need
    *crawled* URL content are built with :func:`crawler_lf` instead.
    """
    domain_set = frozenset(d.lower() for d in domains)

    def fn(example: Example) -> int:
        url = str(example.fields.get("url", ""))
        if not url:
            return ABSTAIN
        return vote if domain_of(url) in domain_set else ABSTAIN

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        votes = np.zeros(len(examples), dtype=np.int8)
        # URL pools repeat domains heavily; memoize parses within a block.
        domain_memo: dict[str, str] = {}
        for i, example in enumerate(examples):
            url = str(example.fields.get("url", ""))
            if not url:
                continue
            domain = domain_memo.get(url)
            if domain is None:
                domain = domain_memo[url] = domain_of(url)
            if domain in domain_set:
                votes[i] = vote
        return votes

    info = LFInfo(
        name=name,
        category=LFCategory.SOURCE_HEURISTIC,
        servable=True,
        description=description or f"url domain in list -> {vote:+d}",
    )
    return LabelingFunction(info, fn, batch_fn=batch_fn)


def pattern_lf(
    name: str,
    predicate: Callable[[Example], bool],
    vote: int,
    category: LFCategory = LFCategory.CONTENT_HEURISTIC,
    servable: bool = True,
    description: str = "",
) -> LabelingFunction:
    """Generic predicate heuristic: vote when the predicate holds."""

    def fn(example: Example) -> int:
        return vote if predicate(example) else ABSTAIN

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        # The predicate is arbitrary user code, so the kernel is a tight
        # loop rather than true vectorization — it still skips the
        # per-example applier dispatch and vote validation.
        return np.fromiter(
            (vote if predicate(example) else ABSTAIN for example in examples),
            dtype=np.int8,
            count=len(examples),
        )

    info = LFInfo(
        name=name,
        category=category,
        servable=servable,
        description=description or f"predicate -> {vote:+d}",
    )
    return LabelingFunction(info, fn, batch_fn=batch_fn)


def topic_model_lf(
    name: str,
    topic_model: TopicModel,
    veto_categories: Iterable[str],
    vote: int = -1,
    fields: Sequence[str] = ("title", "body"),
    description: str = "",
) -> LabelingFunction:
    """Use the coarse internal topic model as a negative heuristic.

    Section 3.1: the topic model's categorizations are "far too
    coarse-grained for the targeted task at hand, but ... could be used as
    effective negative labeling heuristics" — vote (default NEGATIVE) when
    the argmax category is in the veto set.
    """
    veto = frozenset(c.lower() for c in veto_categories)

    def fn(example: Example) -> int:
        top = topic_model.top_category(_text_of(example, fields))
        if top is not None and top.lower() in veto:
            return vote
        return ABSTAIN

    fields_key = tuple(fields)

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        # One tracked model call per example, exactly like the
        # per-example path — the topic model's virtual-latency accounting
        # is part of the cost model and must not be short-circuited — but
        # through the pre-tokenized batch API and the fast lexer.
        top_from_tokens = topic_model.top_category_from_tokens
        votes = np.zeros(len(examples), dtype=np.int8)
        for i, example in enumerate(examples):
            top = top_from_tokens(_field_tokens(example, fields_key))
            if top is not None and top.lower() in veto:
                votes[i] = vote
        return votes

    info = LFInfo(
        name=name,
        category=LFCategory.MODEL_BASED,
        servable=False,
        description=description or "coarse topic model veto",
        resources=("topic-model",),
    )
    lf = LabelingFunction(info, fn, resources=[topic_model], batch_fn=batch_fn)
    lf.fused_spec = TopicVetoSpec(fields_key, topic_model, veto, vote)
    return lf


def kg_translation_lf(
    name: str,
    kg: KnowledgeGraph,
    keywords: Iterable[str],
    languages: Iterable[str],
    vote: int = 1,
    fields: Sequence[str] = ("title", "body"),
    description: str = "",
) -> LabelingFunction:
    """Match Knowledge-Graph keyword translations (Section 3.2).

    "we queried Google's Knowledge Graph for translations of keywords in
    ten languages" — the surface set is the translation closure of the
    keyword list, computed once per run when the resource starts.
    """
    keyword_list = list(keywords)
    language_list = list(languages)
    cache: dict[str, object] = {}
    fields_key = tuple(fields)

    def surfaces() -> frozenset[str]:
        if "surfaces" not in cache:
            cache["surfaces"] = frozenset(
                kg.translation_closure(keyword_list, language_list)
            )
        return cache["surfaces"]

    def matcher() -> _SurfaceMatcher:
        # Built once per run: the translation closure is hundreds of
        # surfaces, exactly where hashed-set matching pays off most.
        if "matcher" not in cache:
            cache["matcher"] = _SurfaceMatcher(surfaces())
        return cache["matcher"]

    def fn(example: Example) -> int:
        text = _text_of(example, fields)
        return vote if _contains_any(text, surfaces()) else ABSTAIN

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        return _keyword_batch_votes(examples, matcher(), fields_key, vote)

    info = LFInfo(
        name=name,
        category=LFCategory.GRAPH_BASED,
        servable=False,
        description=description
        or f"KG translations of {len(keyword_list)} keywords, "
        f"{len(language_list)} languages",
        resources=("knowledge-graph",),
    )
    lf = LabelingFunction(info, fn, resources=[kg], batch_fn=batch_fn)
    lf.fused_spec = TokenMatchSpec(fields_key, surfaces, vote)
    return lf


def kg_category_lf(
    name: str,
    kg: KnowledgeGraph,
    category: str,
    vote: int = 1,
    include_accessories: bool = True,
    fields: Sequence[str] = ("title", "body"),
    description: str = "",
) -> LabelingFunction:
    """Match products the Knowledge Graph files under a category."""
    cache: dict[str, object] = {}
    fields_key = tuple(fields)

    def surfaces() -> frozenset[str]:
        if "surfaces" not in cache:
            cache["surfaces"] = frozenset(
                kg.products_in_category(category, include_accessories)
            )
        return cache["surfaces"]

    def matcher() -> _SurfaceMatcher:
        if "matcher" not in cache:
            cache["matcher"] = _SurfaceMatcher(surfaces())
        return cache["matcher"]

    def fn(example: Example) -> int:
        text = _text_of(example, fields)
        return vote if _contains_any(text, surfaces()) else ABSTAIN

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        return _keyword_batch_votes(examples, matcher(), fields_key, vote)

    info = LFInfo(
        name=name,
        category=LFCategory.GRAPH_BASED,
        servable=False,
        description=description or f"KG products under {category!r}",
        resources=("knowledge-graph",),
    )
    lf = LabelingFunction(info, fn, resources=[kg], batch_fn=batch_fn)
    lf.fused_spec = TokenMatchSpec(fields_key, surfaces, vote)
    return lf


def model_score_lf(
    name: str,
    field: str,
    threshold: float,
    vote: int,
    above: bool = True,
    view: str = "non_servable",
    description: str = "",
) -> LabelingFunction:
    """Threshold the score of an existing internal model.

    Section 3.3: "Several smaller models that had previously been
    developed over various feature sets were also used as weak labelers."
    The score is read from the example's servable or non-servable feature
    view; scores computed by expensive offline inference live in the
    non-servable view (the default).
    """
    if view not in ("servable", "non_servable"):
        raise ValueError(f"view must be servable|non_servable, got {view!r}")

    def fn(example: Example) -> int:
        source = example.servable if view == "servable" else example.non_servable
        value = source.get(field)
        if value is None:
            return ABSTAIN
        crosses = value >= threshold if above else value <= threshold
        return vote if crosses else ABSTAIN

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        # The genuinely vectorized kernel: gather the score column once,
        # then one NumPy comparison for the whole block.
        if view == "servable":
            raw = [example.servable.get(field) for example in examples]
        else:
            raw = [example.non_servable.get(field) for example in examples]
        present = np.array([value is not None for value in raw], dtype=bool)
        values = np.array(
            [0.0 if value is None else value for value in raw], dtype=np.float64
        )
        crosses = values >= threshold if above else values <= threshold
        return np.where(present & crosses, np.int8(vote), np.int8(ABSTAIN))

    info = LFInfo(
        name=name,
        category=LFCategory.MODEL_BASED,
        servable=(view == "servable"),
        description=description
        or f"{field} {'>=' if above else '<='} {threshold} -> {vote:+d}",
    )
    return LabelingFunction(info, fn, batch_fn=batch_fn)


def crawler_lf(
    name: str,
    crawler: WebCrawler,
    target_categories: Iterable[str],
    vote: int,
    min_quality: float = 0.0,
    description: str = "",
) -> LabelingFunction:
    """Vote from crawled page profiles (high-latency, non-servable)."""
    targets = frozenset(c.lower() for c in target_categories)

    def classify(result) -> int:
        if not result.reachable or result.site_category is None:
            return ABSTAIN
        if (
            result.site_category.lower() in targets
            and result.quality_score >= min_quality
        ):
            return vote
        return ABSTAIN

    def fn(example: Example) -> int:
        url = str(example.fields.get("url", ""))
        if not url:
            return ABSTAIN
        return classify(crawler.crawl(url))

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        # One crawl per example with a URL, matching the per-example
        # path's virtual-latency accounting (crawls dominate this LF's
        # cost by design; batching does not pretend otherwise).
        votes = np.zeros(len(examples), dtype=np.int8)
        crawl = crawler.crawl
        for i, example in enumerate(examples):
            url = str(example.fields.get("url", ""))
            if url:
                votes[i] = classify(crawl(url))
        return votes

    info = LFInfo(
        name=name,
        category=LFCategory.SOURCE_HEURISTIC,
        servable=False,
        description=description or "crawled site profile",
        resources=("web-crawler",),
    )
    return LabelingFunction(info, fn, resources=[crawler], batch_fn=batch_fn)


def aggregate_threshold_lf(
    name: str,
    store: AggregateStore,
    stat: str,
    threshold: float,
    vote: int,
    above: bool = True,
    key_field: str = "source_id",
    category: LFCategory = LFCategory.OTHER_HEURISTIC,
    description: str = "",
) -> LabelingFunction:
    """Threshold an offline aggregate statistic for the event's source.

    The incumbent approach for real-time events (Section 3.3) classifies
    "based on offline (or non-servable) features such as aggregate
    statistics"; these heuristics become weak labelers in DryBell.
    """

    def judge(row) -> int:
        if row is None:
            return ABSTAIN
        value = row.stats.get(stat)
        if value is None:
            return ABSTAIN
        crosses = value >= threshold if above else value <= threshold
        return vote if crosses else ABSTAIN

    def fn(example: Example) -> int:
        key = str(example.fields.get(key_field, ""))
        if not key:
            return ABSTAIN
        return judge(store.lookup(key))

    def batch_fn(examples: Sequence[Example]) -> np.ndarray:
        votes = np.zeros(len(examples), dtype=np.int8)
        lookup = store.lookup
        for i, example in enumerate(examples):
            key = str(example.fields.get(key_field, ""))
            if key:
                votes[i] = judge(lookup(key))
        return votes

    info = LFInfo(
        name=name,
        category=category,
        servable=False,
        description=description
        or f"aggregate {stat} {'>=' if above else '<='} {threshold}",
        resources=("aggregate-store",),
    )
    return LabelingFunction(info, fn, resources=[store], batch_fn=batch_fn)
