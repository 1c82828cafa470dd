"""Simulated Knowledge Graph service.

Section 3.2: "In order to increase coverage across the many languages for
which this classifier is used, we queried Google's Knowledge Graph for
translations of keywords in ten languages." Graph-based labeling functions
also derive labels from entity/category relationships (Figure 2).

The reproduction is a directed multigraph with typed nodes and edges,
kept as plain out- and in-adjacency dicts in insertion order:

* ``keyword`` nodes with ``TRANSLATION`` edges (attributed with a language
  code) to translated surface forms,
* ``product`` nodes with ``IS_A`` edges to ``category`` nodes,
* ``brand`` nodes with ``MAKES`` edges to products,
* ``ACCESSORY_OF`` edges from accessory products to category nodes.

The query API covers everything the product-classification labeling
functions need: keyword translation closure, category membership
(including accessories), and brand→product expansion.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.services.base import ModelServer

__all__ = ["KnowledgeGraph"]


class KnowledgeGraph(ModelServer):
    """Entity graph with translation and category-membership queries."""

    #: KG lookups are internal RPCs — fine for offline LF execution, not
    #: part of the cheap servable feature set.
    latency_ms = 12.0
    servable = False

    def __init__(self) -> None:
        super().__init__(name="knowledge-graph")
        #: Node attributes (``kind``, ``accessory``, ``language``) by key.
        self._nodes: dict[str, dict] = {}
        #: ``source -> target -> [edge data]`` and its mirror image
        #: ``target -> source -> [edge data]``; parallel edges keep their
        #: insertion order.
        self._out: dict[str, dict[str, list[dict]]] = {}
        self._in: dict[str, dict[str, list[dict]]] = {}

    def _add_node(self, key: str, **attrs) -> None:
        self._nodes.setdefault(key, {}).update(attrs)

    def _add_edge(self, source: str, target: str, **data) -> None:
        self._nodes.setdefault(source, {})
        self._nodes.setdefault(target, {})
        self._out.setdefault(source, {}).setdefault(target, []).append(data)
        self._in.setdefault(target, {}).setdefault(source, []).append(data)

    @staticmethod
    def _edges(
        adjacency: dict[str, dict[str, list[dict]]], key: str
    ) -> Iterator[tuple[str, dict]]:
        """``(neighbour, edge data)`` for every edge of ``key``."""
        for neighbour, edges in adjacency.get(key, {}).items():
            for data in edges:
                yield neighbour, data

    # ------------------------------------------------------------------
    # construction API (used by the dataset world builder)
    # ------------------------------------------------------------------
    def add_category(self, category: str) -> None:
        self._add_node(category.lower(), kind="category")

    def add_product(
        self,
        product: str,
        category: str,
        accessory: bool = False,
    ) -> None:
        """Register a product (or accessory/part) under a category."""
        product_key = product.lower()
        category_key = category.lower()
        if category_key not in self._nodes:
            self.add_category(category_key)
        self._add_node(product_key, kind="product", accessory=accessory)
        relation = "ACCESSORY_OF" if accessory else "IS_A"
        self._add_edge(product_key, category_key, relation=relation)

    def add_brand(self, brand: str, products: Iterable[str]) -> None:
        brand_key = brand.lower()
        self._add_node(brand_key, kind="brand")
        for product in products:
            product_key = product.lower()
            if product_key not in self._nodes:
                raise KeyError(f"unknown product {product!r}; add it first")
            self._add_edge(brand_key, product_key, relation="MAKES")

    def add_translation(self, keyword: str, language: str, translated: str) -> None:
        """Record that ``keyword`` translates to ``translated`` in ``language``."""
        source = keyword.lower()
        target = translated.lower()
        self._add_node(source, kind=self._nodes.get(source, {}).get("kind", "keyword"))
        self._add_node(target, kind="keyword", language=language)
        self._add_edge(source, target, relation="TRANSLATION", language=language)

    # ------------------------------------------------------------------
    # query API (used by labeling functions)
    # ------------------------------------------------------------------
    def translations(
        self, keyword: str, languages: Iterable[str] | None = None
    ) -> dict[str, str]:
        """Translations of a keyword, as ``{language: surface form}``."""
        self._track()
        wanted = set(languages) if languages is not None else None
        out: dict[str, str] = {}
        key = keyword.lower()
        for target, data in self._edges(self._out, key):
            if data.get("relation") != "TRANSLATION":
                continue
            language = data.get("language")
            if wanted is None or language in wanted:
                out[language] = target
        return out

    def translation_closure(
        self, keywords: Iterable[str], languages: Iterable[str] | None = None
    ) -> set[str]:
        """All surface forms for a keyword set across languages,
        including the original forms — the exact expansion the
        product-classification KG labeling function performs."""
        surfaces: set[str] = set()
        for keyword in keywords:
            surfaces.add(keyword.lower())
            surfaces.update(self.translations(keyword, languages).values())
        return surfaces

    def products_in_category(
        self, category: str, include_accessories: bool = True
    ) -> set[str]:
        """Products (optionally accessories/parts) filed under a category."""
        self._track()
        category_key = category.lower()
        out: set[str] = set()
        for source, data in self._edges(self._in, category_key):
            relation = data.get("relation")
            if relation == "IS_A":
                out.add(source)
            elif relation == "ACCESSORY_OF" and include_accessories:
                out.add(source)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def languages(self) -> set[str]:
        """All language codes present on translation edges."""
        return {
            data["language"]
            for targets in self._out.values()
            for edges in targets.values()
            for data in edges
            if data.get("relation") == "TRANSLATION"
        }
