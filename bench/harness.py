"""Measurement plumbing shared by every workload: clock, spans, statistics.

Nothing here imports ``repro``: the ruler must not change when the code
under test does.

Calibrated time
---------------
The 2-CPU hosts this benchmark runs on change effective speed by up to
2x, at every timescale from a fraction of a second to minutes (the same
pure-Python loop reads 72, 92, 117 or 142 ms depending on when it runs;
CPU time tracks wall time, so it is the core that slows, not the
scheduler that steals). A 10 s wall-clock figure therefore spreads ~25%
between runs of identical code, which no regression bound survives.

:class:`Clock` measures the host's speed the whole time: a sampler
thread executes a fixed stdlib kernel (under 1 ms of JSON framing, CRC,
tokenising and set probes) every ``SAMPLE_PERIOD_S`` and times it in
thread CPU time, which is blind to GIL waits but not to a slow core. A
segment's duration is divided by ``mean kernel time during the segment /
NOMINAL_KERNEL_S``: the result is the time the segment would have taken
on a host where the kernel takes exactly ``NOMINAL_KERNEL_S`` —
"calibrated seconds". Every sample comes from the same context (the
sampler thread, just woken), because the same kernel reads 2x faster in
a hot loop than after a 10 ms sleep. The sampler costs the measured code
~2% of the GIL, the same on every commit. Durations dominated by timed
waits (the serving flush window) are reported raw: dividing a sleep by
CPU speed adds noise instead of removing it.
"""

from __future__ import annotations

import bisect
import json
import resource
import statistics
import threading
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NOMINAL_KERNEL_S",
    "Clock",
    "Segment",
    "Span",
    "Tracer",
    "median",
    "percentile",
    "spread",
    "peak_rss_mb",
]

#: Thread-CPU time of one :func:`_kernel` pass on the reference host
#: state. Calibrated seconds equal wall seconds whenever the sampler reads
#: exactly this.
NOMINAL_KERNEL_S = 0.00065

#: Pause between kernel samples.
SAMPLE_PERIOD_S = 0.04

_DOC = {
    "example_id": "product-17",
    "fields": {
        "title": "sale carbon frame today",
        "body": " ".join(f"w{i % 37}" for i in range(40)),
    },
    "servable": {"doc_length": 40.0},
    "label": None,
}
_WANTED = frozenset({"w1", "w5", "zz"})


def _kernel() -> float:
    """Thread-CPU seconds of one calibration pass: the instruction mix of
    the labeling path (JSON framing, CRC, tokenising, set probes). Pure
    stdlib and GIL-holding throughout, so a process forked while the
    sampler runs inherits no lock it held."""
    start = time.thread_time()
    acc = 0
    for _ in range(50):
        body = json.dumps(_DOC, separators=(",", ":"), sort_keys=True).encode()
        acc ^= zlib.crc32(body)
        tokens = json.loads(body)["fields"]["body"].lower().split()
        acc += len(_WANTED.intersection(tokens))
    return time.thread_time() - start


@dataclass
class Segment:
    """One timed segment: raw wall seconds and the host-speed factor."""

    wall: float = 0.0
    speed: float = 1.0
    """``mean kernel time / NOMINAL_KERNEL_S`` during the segment
    (> 1 = slow host)."""

    @property
    def calibrated(self) -> float:
        return self.wall / self.speed


class Clock:
    """Times segments in calibrated seconds (see the module docstring)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._taken_at: list[float] = []
        self._stop = threading.Event()
        self._sampler = threading.Thread(
            target=self._sample, name="bench-clock-sampler", daemon=True
        )
        self._sampler.start()
        while len(self._taken_at) < 2:
            time.sleep(SAMPLE_PERIOD_S)

    def _sample(self) -> None:
        while not self._stop.is_set():
            self.samples.append(_kernel())
            self._taken_at.append(time.perf_counter())
            time.sleep(SAMPLE_PERIOD_S)

    def close(self) -> None:
        """Stop the sampler thread and wait for it."""
        self._stop.set()
        self._sampler.join()

    def speed(self, start: float, end: float) -> float:
        """Host-speed factor over ``[start, end]``: the samples taken
        inside it, plus the one before it (all of a short interval has).
        The slowest tenth is dropped before averaging: a sample that was
        pre-empted mid-kernel reads up to 10x and says nothing about the
        core's speed."""
        first = max(0, bisect.bisect_left(self._taken_at, start) - 1)
        last = max(first + 1, bisect.bisect_right(self._taken_at, end))
        window = sorted(self.samples[first:last])
        kept = window[: max(1, round(0.9 * len(window)))]
        return sum(kept) / len(kept) / NOMINAL_KERNEL_S

    @contextmanager
    def segment(self, tracer: "Tracer | None" = None):
        """Time the body; spans the body records inherit the speed factor."""
        first_span = len(tracer.spans) if tracer is not None else 0
        segment = Segment()
        start = time.perf_counter()
        try:
            yield segment
        finally:
            end = time.perf_counter()
            segment.wall = end - start
            segment.speed = self.speed(start, end)
            if tracer is not None:
                for span in tracer.spans[first_span:]:
                    span.speed = segment.speed


@dataclass
class Span:
    """One traced call: who, when, and under which parent."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    run: str = ""
    speed: float = 1.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Calibrated duration."""
        return (self.end - self.start) / self.speed


_NULL = nullcontext()


class Tracer:
    """In-memory span recorder; written out once, at exit.

    Spans nest per thread (each thread keeps its own parent stack) and
    share the tracer's run id. A disabled tracer hands back one shared
    no-op context, so the untraced arm of an overhead comparison pays a
    method call and nothing else.
    """

    def __init__(self, run: str, enabled: bool = True) -> None:
        self.run = run
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL
        return self._record(name, attrs)

    @contextmanager
    def _record(self, name: str, attrs: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = Span(
                span_id=len(self.spans),
                parent=stack[-1] if stack else None,
                name=name,
                start=0.0,
                run=self.run,
                attrs=attrs,
            )
            self.spans.append(span)
        stack.append(span.span_id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Position to pass as ``since`` to see only later spans."""
        return len(self.spans)

    def named(self, name: str, since: int = 0) -> list[Span]:
        return [span for span in self.spans[since:] if span.name == name]

    def total(self, name: str, since: int = 0) -> float:
        """Calibrated seconds summed over the spans called ``name``."""
        return sum(span.seconds for span in self.named(name, since))

    def _child_seconds(self) -> dict[int, float]:
        """``{span id: calibrated seconds its direct children cover}``."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        return covered

    def self_seconds(self) -> dict[str, float]:
        """Per-name self time: each span's duration minus its children's."""
        covered = self._child_seconds()
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - covered.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def coverage(self) -> float:
        """Share of the time of spans that have children which those
        children account for (1.0 = no untraced glue between calls)."""
        covered = self._child_seconds()
        parent_time = sum(self.spans[i].seconds for i in covered)
        return sum(covered.values()) / parent_time if parent_time else 0.0

    def dump(self, path: str) -> None:
        """Write one JSON object per span (raw clock readings + speed)."""
        with open(path, "w") as handle:
            for span in self.spans:
                json.dump(
                    {
                        "id": span.span_id,
                        "parent": span.parent,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "run": span.run,
                        "speed": span.speed,
                        **span.attrs,
                    },
                    handle,
                    sort_keys=True,
                )
                handle.write("\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Exact percentile over raw samples (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def spread(values) -> float:
    """Interquartile distance as a share of the median — the driver's
    repeatability statistic."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus reaped children), in MB."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0
