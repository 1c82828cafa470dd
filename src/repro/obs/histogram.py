"""Mergeable log-bucketed latency histograms.

The repo's counters (:class:`repro.obs.counters.CounterSet`) sum
durations — great for totals, useless for tails. :class:`Histogram`
closes that gap with the HdrHistogram idea scaled down to this
codebase: values land in exponentially sized buckets (``growth`` per
step, default ~1.1 → ≤ 5% relative quantile error), so the whole
distribution of millions of samples is a small dict of bucket counts.

Three properties make it the telemetry primitive:

* **thread-safe** — ``record`` and ``merge`` take an internal lock, so
  producer/consumer/batcher threads share one histogram;
* **picklable** — the lock is dropped and rebuilt across pickling, so
  a histogram crosses process boundaries like a plain dict;
* **mergeable** — bucket counts add commutatively, so per-worker
  histograms fold into a global one in any order with an identical
  result (exactly the ``CounterSet.merge`` contract, asserted by the
  determinism tests).

Serialization (:meth:`Histogram.to_bytes` / :func:`encode_histograms`)
is canonical JSON, which rides the parallel executor's existing
bytes-only IPC without touching the vote payload format.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterable, Mapping

__all__ = [
    "Histogram",
    "DEFAULT_GROWTH",
    "encode_histograms",
    "decode_histograms",
]

#: Default bucket growth factor. Bucket ``i`` covers
#: ``[growth**i, growth**(i+1))``; reporting the geometric midpoint
#: bounds the relative quantile error at ``sqrt(growth) - 1`` (~4.9%).
DEFAULT_GROWTH = 1.1


class Histogram:
    """A thread-safe, picklable, mergeable log-bucketed histogram.

    Values must be finite and non-negative (they are durations or
    sizes); zero gets its own exact bucket. Memory is bounded by the
    number of *distinct magnitudes* observed, never the sample count —
    recording a billion latencies costs the same few hundred buckets as
    recording a thousand.
    """

    __slots__ = (
        "growth",
        "_inv_log_growth",
        "_lock",
        "_buckets",
        "_zero",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.growth = float(growth)
        self._inv_log_growth = 1.0 / math.log(self.growth)
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
    def _bucket_index(self, value: float) -> int:
        return math.floor(math.log(value) * self._inv_log_growth)

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
                index = self._bucket_index(value)
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
        """Total observations recorded (including merged-in ones)."""
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
        ``sqrt(growth) - 1`` everywhere else.
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
                    value = self.growth ** (index + 0.5)
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

    # ------------------------------------------------------------------
    # merge + serialization
    # ------------------------------------------------------------------
    def _state(self) -> dict:
        """Lock-consistent snapshot of the mutable fields."""
        with self._lock:
            return {
                "growth": self.growth,
                "buckets": dict(self._buckets),
                "zero": self._zero,
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's buckets into this one.

        Merging is commutative and associative — any merge order over
        any partition of the samples yields identical buckets (and
        therefore identical quantiles), which is what lets per-worker
        histograms travel the bytes-only IPC and land in one registry.

        Raises:
            ValueError: When the growth factors differ (the bucket
                boundaries would not line up).
        """
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth {other.growth} "
                f"into growth {self.growth}"
            )
        snapshot = other._state()
        with self._lock:
            for index, n in snapshot["buckets"].items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            self._zero += snapshot["zero"]
            self._count += snapshot["count"]
            self._sum += snapshot["sum"]
            for bound, pick in (("min", min), ("max", max)):
                theirs = snapshot[bound]
                if theirs is None:
                    continue
                ours = getattr(self, f"_{bound}")
                setattr(
                    self,
                    f"_{bound}",
                    theirs if ours is None else pick(ours, theirs),
                )

    @classmethod
    def merged(cls, parts: Iterable["Histogram"]) -> "Histogram":
        """One histogram holding every part's samples."""
        parts = list(parts)
        total = cls(parts[0].growth if parts else DEFAULT_GROWTH)
        for part in parts:
            total.merge(part)
        return total

    def as_dict(self) -> dict:
        """JSON-safe state (bucket keys become strings)."""
        state = self._state()
        state["buckets"] = {
            str(index): n for index, n in sorted(state["buckets"].items())
        }
        return state

    @classmethod
    def from_dict(cls, data: Mapping) -> "Histogram":
        """Inverse of :meth:`as_dict`."""
        hist = cls(data["growth"])
        hist._buckets = {int(k): int(v) for k, v in data["buckets"].items()}
        hist._zero = int(data["zero"])
        hist._count = int(data["count"])
        hist._sum = float(data["sum"])
        hist._min = None if data["min"] is None else float(data["min"])
        hist._max = None if data["max"] is None else float(data["max"])
        return hist

    def to_bytes(self) -> bytes:
        """Canonical JSON encoding for cross-process transport."""
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Histogram":
        """Inverse of :meth:`to_bytes`."""
        return cls.from_dict(json.loads(blob.decode("utf-8")))

    # ------------------------------------------------------------------
    # pickling (drop the lock, rebuild on restore)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Picklable state: everything but the lock."""
        return self._state()

    def __setstate__(self, state: dict) -> None:
        """Rebuild the lock alongside the restored buckets."""
        self.growth = state["growth"]
        self._inv_log_growth = 1.0 / math.log(self.growth)
        self._lock = threading.Lock()
        self._buckets = dict(state["buckets"])
        self._zero = state["zero"]
        self._count = state["count"]
        self._sum = state["sum"]
        self._min = state["min"]
        self._max = state["max"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, mean={self.mean:.1f}, "
            f"p99={self.quantile(0.99):.1f})"
        )


def encode_histograms(histograms: Mapping[str, Histogram]) -> bytes:
    """Encode a named histogram family as one bytes payload.

    This is the worker side of the executor's bytes-only IPC: the
    parent decodes with :func:`decode_histograms` and merges into its
    registry.
    """
    return json.dumps(
        {name: hist.as_dict() for name, hist in sorted(histograms.items())},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def decode_histograms(blob: bytes) -> dict[str, Histogram]:
    """Inverse of :func:`encode_histograms`."""
    return {
        name: Histogram.from_dict(data)
        for name, data in json.loads(blob.decode("utf-8")).items()
    }
