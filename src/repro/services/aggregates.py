"""Simulated offline aggregate-statistics store.

Section 3.3: for real-time event classification, "a common approach is to
classify events based on offline (or non-servable) features such as
aggregate statistics and relationship graphs. However, this approach
induces latency between when an event occurs and when it is identified."

The reproduction is a batch-updated key/value store mapping an entity key
(an event source) to a vector of monthly aggregate statistics. Reads are
cheap but the *data* is stale by construction — the store records the
batch timestamp each key was computed at, so experiments can reason about
the detection-latency gap the paper motivates. The serving layer refuses
to read it (it is non-servable), which is exactly why the cross-feature
transfer to real-time features matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.services.base import ModelServer

__all__ = ["AggregateStore", "AggregateRow"]


@dataclass
class AggregateRow:
    """Aggregate statistics for one source entity."""

    key: str
    stats: dict[str, float]
    batch_id: int


class AggregateStore(ModelServer):
    """Batch-maintained aggregate statistics, keyed by source entity."""

    latency_ms = 5.0
    servable = False

    def __init__(self) -> None:
        super().__init__(name="aggregate-store")
        self._rows: dict[str, AggregateRow] = {}
        self._batch_id = 0

    # ------------------------------------------------------------------
    # batch-update API (dataset generator / offline jobs)
    # ------------------------------------------------------------------
    def load_batch(self, rows: Mapping[str, Mapping[str, float]]) -> int:
        """Replace/insert aggregates for the given keys; returns batch id."""
        self._batch_id += 1
        for key, stats in rows.items():
            self._rows[key] = AggregateRow(
                key=key,
                stats={name: float(v) for name, v in stats.items()},
                batch_id=self._batch_id,
            )
        return self._batch_id

    # ------------------------------------------------------------------
    # read API (labeling functions)
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> AggregateRow | None:
        """Fetch aggregates for one source; ``None`` when never aggregated
        (new sources have no history — an inherent weakness of the
        offline approach that the real-time model fixes)."""
        self._track()
        return self._rows.get(key)

    def stat(self, key: str, name: str, default: float = 0.0) -> float:
        """Read one named statistic with a default."""
        row = self.lookup(key)
        if row is None:
            return default
        return row.stats.get(name, default)

    def keys(self) -> list[str]:
        return sorted(self._rows)
