#!/usr/bin/env python
"""Telemetry snapshot inspector.

Two modes, one per flag:

* ``--snapshot FILE`` — pretty-print a telemetry snapshot: either a
  single JSON object or a JSONL file of exporter lines (the
  :class:`~repro.obs.TelemetryExporter` ``path=`` artifact), in which
  case the *last* line is shown. Counters, gauges, and histogram
  digests (count / mean / p50 / p90 / p99 / max) come out as aligned
  tables.
* ``--demo`` — exercise the live telemetry layer end to end: record a
  synthetic workload into a fresh
  :class:`~repro.obs.MetricsRegistry`, publish one exporter snapshot,
  and pretty-print it. Used by the CI smoke job as a zero-dependency
  sanity check of the snapshot pipeline.

Exactly one mode is required. Exit status is non-zero on missing or
malformed input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def load_snapshot(path: Path) -> dict:
    """Parse ``path`` as one JSON object, or the last line of a JSONL file.

    Raises:
        ValueError: When the file is empty or holds no JSON object.
    """
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"{path}: empty file")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.strip()]
        return json.loads(lines[-1])


def format_snapshot(snapshot: dict) -> list[str]:
    """Aligned, deterministic text rendering of one registry snapshot."""
    out: list[str] = []
    namespace = snapshot.get("namespace", "?")
    seq = snapshot.get("seq")
    header = f"telemetry snapshot  namespace={namespace}"
    if seq is not None:
        header += f"  seq={seq}"
    if "unix" in snapshot:
        header += f"  unix={snapshot['unix']}"
    out.append(header)

    counters = snapshot.get("counters", {})
    if counters:
        out.append("")
        out.append("counters")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            out.append(f"  {name:<{width}}  {counters[name]:>14,}")

    gauges = snapshot.get("gauges", {})
    if gauges:
        out.append("")
        out.append("gauges" + " " * 24 + f"{'current':>14} {'peak':>14}")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            gauge = gauges[name]
            out.append(
                f"  {name:<{width}}  "
                f"{gauge['current']:>14,} {gauge['peak']:>14,}"
            )

    histograms = snapshot.get("histograms", {})
    if histograms:
        out.append("")
        width = max(len(name) for name in histograms)
        out.append(
            f"{'histograms':<{width + 2}}"
            f"{'count':>10} {'mean':>12} {'p50':>12} "
            f"{'p90':>12} {'p99':>12} {'max':>12}"
        )
        for name in sorted(histograms):
            digest = histograms[name]
            out.append(
                f"  {name:<{width}}"
                f"{digest['count']:>10,}"
                + "".join(
                    f" {digest[key]:>12,.1f}"
                    for key in ("mean", "p50", "p90", "p99", "max")
                )
            )
    if not (counters or gauges or histograms):
        out.append("  (empty snapshot)")
    return out


def run_demo() -> dict:
    """Record a synthetic workload and publish one exporter snapshot."""
    import tempfile

    from repro.obs import MetricsRegistry, TelemetryExporter, Tracer

    registry = MetricsRegistry()
    tracer = Tracer()
    with tracer.span("demo.run", mode="synthetic"):
        for i in range(1, 1001):
            registry.record("demo/latency_us", float(i))
            registry.counter("demo/requests")
        registry.gauge("demo/resident").add(42)
    tracer.close()
    with tempfile.NamedTemporaryFile(mode="w", suffix=".jsonl") as handle:
        entry = TelemetryExporter(registry, path=handle.name).export_now()
    entry["spans_written"] = tracer.spans_written
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metrics_dump",
        description="Pretty-print telemetry snapshots.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--snapshot",
        metavar="FILE",
        help="snapshot JSON, or exporter JSONL (last line is shown)",
    )
    group.add_argument(
        "--demo",
        action="store_true",
        help="record a synthetic workload and print its snapshot",
    )
    args = parser.parse_args(argv)

    if args.demo:
        entry = run_demo()
        print("\n".join(format_snapshot(entry)))
        print(f"\nspans written: {entry['spans_written']}")
        return 0

    path = Path(args.snapshot)
    if not path.exists():
        print(f"metrics_dump: no such file: {path}", file=sys.stderr)
        return 1
    try:
        snapshot = load_snapshot(path)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"metrics_dump: {exc}", file=sys.stderr)
        return 1
    print("\n".join(format_snapshot(snapshot)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
