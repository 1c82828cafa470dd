"""Labeling-function metadata and taxonomy.

Figure 2 of the paper plots the distribution of weak-supervision types per
application using four coarse buckets; Section 6.3's ablation needs to
know which LFs "depend on non-servable resources". Both facts are
metadata about labeling functions, captured here as :class:`LFInfo` and
aggregated by :class:`LFRegistry`.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

__all__ = ["LFCategory", "LFInfo", "LFRegistry"]


class LFCategory(enum.Enum):
    """The paper's coarse-grained weak-supervision buckets (Section 3)."""

    SOURCE_HEURISTIC = "source heuristic"
    CONTENT_HEURISTIC = "content heuristic"
    MODEL_BASED = "model-based"
    GRAPH_BASED = "graph-based"
    OTHER_HEURISTIC = "other heuristic"


@dataclass(frozen=True)
class LFInfo:
    """Descriptive metadata for one labeling function.

    ``servable`` marks whether every resource the LF touches is available
    in the production serving path (Section 4); the Table 3 ablation keeps
    only servable LFs.
    """

    name: str
    category: LFCategory
    servable: bool
    description: str = ""
    resources: tuple[str, ...] = ()


class LFRegistry:
    """A named collection of LF metadata for one application."""

    def __init__(self, application: str) -> None:
        self.application = application
        self._infos: dict[str, LFInfo] = {}

    def register(self, info: LFInfo) -> LFInfo:
        """Add one LF's metadata and return it; a taken name is a
        ``ValueError``."""
        if info.name in self._infos:
            raise ValueError(
                f"labeling function {info.name!r} already registered for "
                f"{self.application}"
            )
        self._infos[info.name] = info
        return info

    def __len__(self) -> int:
        return len(self._infos)

    def __contains__(self, name: str) -> bool:
        return name in self._infos

    def info(self, name: str) -> LFInfo:
        """The metadata registered under ``name`` (``KeyError`` if none)."""
        return self._infos[name]

    def names(self) -> list[str]:
        """Every registered LF name, sorted."""
        return sorted(self._infos)

    def servable_names(self) -> list[str]:
        """LFs usable in the Table 3 'Servable LFs' ablation arm."""
        return sorted(n for n, i in self._infos.items() if i.servable)

    def category_counts(self) -> dict[LFCategory, int]:
        """LF count per category — the data behind Figure 2."""
        counts: Counter[LFCategory] = Counter(
            info.category for info in self._infos.values()
        )
        return dict(counts)

    @staticmethod
    def figure2_table(registries: Iterable["LFRegistry"]) -> list[dict[str, object]]:
        """Rows of (application, category, count, fraction) across
        applications — the Figure 2 dataset."""
        rows = []
        for registry in registries:
            counts = registry.category_counts()
            total = sum(counts.values())
            for category in LFCategory:
                count = counts.get(category, 0)
                if count == 0:
                    continue
                rows.append(
                    {
                        "application": registry.application,
                        "category": category.value,
                        "count": count,
                        "fraction": count / total,
                    }
                )
        return rows
