"""Counter and gauge storage behind :class:`repro.obs.registry.MetricsRegistry`.

Named counters, as Google MapReduce exposes them: :class:`CounterSet`
holds monotonic sums (votes emitted, abstains, model-server calls,
batches). :class:`Gauge` holds level quantities that rise and fall —
records resident in the streaming pipeline, requests pending at the
label server — with their high-water mark.
"""

from __future__ import annotations

import threading
from collections import Counter

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

    def as_dict(self) -> dict[str, int]:
        """A ``name -> total`` copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterSet({self.as_dict()!r})"


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(current={self.current}, peak={self.peak})"
