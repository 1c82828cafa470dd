"""Log-bucketed latency histograms.

The repo's counters (:class:`repro.obs.counters.CounterSet`) sum
durations — great for totals, useless for tails. :class:`Histogram`
closes that gap with the HdrHistogram idea scaled down to this
codebase: values land in exponentially sized buckets (:data:`GROWTH`
per step → ≤ 5% relative quantile error), so the whole distribution of
millions of samples is a small dict of bucket counts.

``record`` takes an internal lock, so the threads that share a
registry (a server's callers, the exporter's owner) share one
histogram. A histogram lives in the process that records into it: the
process pool hands its two per-block timings back as plain ints and the
parent records them (:mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import math
import threading

__all__ = ["Histogram", "GROWTH"]

#: Bucket growth factor. Bucket ``i`` covers ``[GROWTH**i,
#: GROWTH**(i+1))``; reporting the geometric midpoint bounds the
#: relative quantile error at ``sqrt(GROWTH) - 1`` (~4.9%).
GROWTH = 1.1

_INV_LOG_GROWTH = 1.0 / math.log(GROWTH)


class Histogram:
    """A thread-safe log-bucketed histogram.

    Values must be finite and non-negative (they are durations or
    sizes); zero gets its own exact bucket. Memory is bounded by the
    number of *distinct magnitudes* observed, never the sample count —
    recording a billion latencies costs the same few hundred buckets as
    recording a thousand.
    """

    __slots__ = (
        "_lock",
        "_buckets",
        "_zero",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one observation.

        Raises:
            ValueError: On a negative or non-finite value — histograms
                hold durations and sizes, and a silent clamp would skew
                every quantile downstream.
        """
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"histogram values must be finite and >= 0, got {value}"
            )
        with self._lock:
            if value == 0.0:
                self._zero += 1
            else:
                index = math.floor(math.log(value) * _INV_LOG_GROWTH)
                self._buckets[index] = self._buckets.get(index, 0) + 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total observations recorded."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    @property
    def min(self) -> float | None:
        """Smallest observed value; ``None`` when empty."""
        with self._lock:
            return self._min

    @property
    def max(self) -> float | None:
        """Largest observed value; ``None`` when empty."""
        with self._lock:
            return self._max

    @property
    def mean(self) -> float:
        """Arithmetic mean; 0.0 when empty."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0 <= q <= 1).

        Walks the buckets in value order and returns the geometric
        midpoint of the bucket holding the target rank, clamped to the
        exact observed ``[min, max]`` — so single-sample histograms
        answer exactly, and the relative error is bounded by
        ``sqrt(GROWTH) - 1`` everywhere else.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._count:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            seen = self._zero
            if seen >= rank:
                return 0.0
            value = self._max
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if seen >= rank:
                    value = GROWTH ** (index + 0.5)
                    break
            assert self._min is not None and self._max is not None
            return min(self._max, max(self._min, value))

    def summary(self) -> dict:
        """Deterministic scalar digest: count, sum, mean, min/max, tails."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, mean={self.mean:.1f}, "
            f"p99={self.quantile(0.99):.1f})"
        )

