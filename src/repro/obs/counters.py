"""Counter and gauge storage behind :class:`repro.obs.registry.MetricsRegistry`.

Named counters aggregated across workers, as Google MapReduce exposes
them: :class:`CounterSet` holds monotonic sums (votes emitted, abstains,
model-server calls, batches). :class:`Gauge` holds level quantities
that rise and fall — records resident in the streaming pipeline,
requests pending at the label server — with their high-water mark.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Iterable, Mapping

__all__ = ["CounterSet", "Gauge"]


class CounterSet:
    """A thread-safe bag of named integer counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to counter ``name``."""
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        with self._lock:
            self._counts[name] += amount

    def value(self, name: str) -> int:
        """Counter ``name``'s total (0 if never incremented)."""
        with self._lock:
            return self._counts.get(name, 0)

    def merge(self, other: "CounterSet") -> None:
        """Fold another worker's counters into this set."""
        with other._lock:
            snapshot = dict(other._counts)
        with self._lock:
            self._counts.update(snapshot)

    def merge_mapping(self, mapping: Mapping[str, int]) -> None:
        """Fold a plain ``name -> amount`` mapping into this set.

        Amounts obey the same invariant as :meth:`increment`: counters
        only go up, so negative values are rejected *before* anything
        is applied — a mapping with one bad entry changes nothing.
        """
        negatives = {k: v for k, v in mapping.items() if v < 0}
        if negatives:
            raise ValueError(
                "counter merge amounts must be non-negative, got "
                f"{dict(sorted(negatives.items()))}"
            )
        with self._lock:
            self._counts.update(mapping)

    def as_dict(self) -> dict[str, int]:
        """A ``name -> total`` copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def names(self) -> list[str]:
        """Every counter name, sorted."""
        with self._lock:
            return sorted(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterSet({self.as_dict()!r})"

    @classmethod
    def merged(cls, parts: Iterable["CounterSet"]) -> "CounterSet":
        """A new set holding the sum of ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total


class Gauge:
    """A thread-safe level meter that remembers its high-water mark.

    Counters only go up; a gauge tracks a *current* level (records
    resident in a pipeline, batches queued) that rises and falls, plus
    the peak it ever reached. The streaming benchmarks assert their
    bounded-memory claim against :attr:`peak`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current = 0
        self._peak = 0

    def add(self, amount: int) -> int:
        """Raise the level; returns the new value."""
        if amount < 0:
            raise ValueError("use subtract() to lower a gauge")
        with self._lock:
            self._current += amount
            if self._current > self._peak:
                self._peak = self._current
            return self._current

    def subtract(self, amount: int) -> int:
        """Lower the level; returns the new value."""
        if amount < 0:
            raise ValueError("gauge decrements must be non-negative")
        with self._lock:
            if amount > self._current:
                raise ValueError(
                    f"gauge cannot go negative ({self._current} - {amount})"
                )
            self._current -= amount
            return self._current

    @property
    def current(self) -> int:
        """The level now."""
        with self._lock:
            return self._current

    @property
    def peak(self) -> int:
        """The highest level ever reached."""
        with self._lock:
            return self._peak

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge's level in: currents add, peaks take max.

        The aggregation a fleet view wants — total resident load is the
        sum of per-node levels, while the merged peak is the highest
        any contributor ever reached (an upper bound on each node,
        not a statement about simultaneity).
        """
        with other._lock:
            current, peak = other._current, other._peak
        with self._lock:
            self._current += current
            self._peak = max(self._peak, peak)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(current={self.current}, peak={self.peak})"
