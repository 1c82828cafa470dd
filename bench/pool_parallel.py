"""``pool_parallel`` — the same kernels behind ``repro.parallel``.

One warmed ``ParallelLabelExecutor(spec, min(nproc, 4))`` is reused for
every round of (a) ``apply_lfs_in_memory(..., executor=...)`` over fresh
clones and (b) ``MicroBatchPipeline(batch_size=1024,
max_resident_batches=workers + 2, executor=..., sinks=[VoteSink])`` over
the staged shards; a serial arm of each runs in the same round as the
single-threaded baseline.

Why it exists: IPC encode/decode and reassembly dominate here; ``core``
and ``serving`` are idle, and a pool change must leave the serial
workloads unmoved.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

import probes
from harness import Clock, Tracer, median, percentile
from inputs import (
    BATCH_SIZE,
    Inputs,
    Sizes,
    TimedSource,
    batch_latencies,
    build_inputs,
    clone_examples,
    read_vote_shards,
    suite_spec,
    tree_bytes,
    tree_digest,
)
from repro.lf.applier import apply_lfs_in_memory
from repro.parallel import ParallelLabelExecutor
from repro.streaming import MicroBatchPipeline, RecordStreamSource, VoteSink

NAME = "pool_parallel"

#: Per-layer names this workload never enters (reported as 0).
IDLE = (
    "mapreduce.",
    "core.",
    "serving.",
    "serve_",
    "deploy_to_active_s",
    "streaming.sink_labels",
    "streaming.checkpoint",
    "streaming.manifest",
    "streaming.overlap_ratio",
)


@dataclass
class Context:
    inputs: Inputs
    workers: int
    executor: ParallelLabelExecutor
    processes: set
    rounds_run: int = 0
    reference: dict = field(default_factory=dict)


def _start_pool(seed: int, workers: int):
    """A started executor plus the worker processes it spawned."""
    before = set(multiprocessing.active_children())
    executor = ParallelLabelExecutor(suite_spec(seed), workers).start()
    return executor, set(multiprocessing.active_children()) - before


def _stop_pool(executor: ParallelLabelExecutor, processes) -> None:
    """Close the pool and wait until every worker process has ended."""
    executor.close()
    for child in processes:
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10.0)


def setup(seed: int, sizes: Sizes) -> Context:
    inputs = build_inputs(seed, sizes)
    workers = min(os.cpu_count() or 1, 4)
    executor, processes = _start_pool(seed, workers)
    # Warm-up: first blocks pay lazy matcher builds in each worker.
    executor.label_examples(clone_examples(inputs.pool[: 256 * workers]), 256)
    return Context(inputs, workers, executor, processes)


def close(ctx: Context) -> None:
    _stop_pool(ctx.executor, ctx.processes)


def _stream_arm(ctx: Context, clock: Clock, root: str, pooled: bool):
    inputs = ctx.inputs
    source = TimedSource(RecordStreamSource(inputs.dfs, inputs.shard_paths))
    sink = VoteSink(inputs.dfs, root, inputs.lf_names)
    with clock.segment() as seg:
        pipeline = MicroBatchPipeline(
            inputs.lfs,
            batch_size=BATCH_SIZE,
            max_resident_batches=ctx.workers + 2 if pooled else 2,
            executor=ctx.executor if pooled else None,
            sinks=[sink],
        )
        report = pipeline.run(source)
    return seg, report, batch_latencies(source, inputs.dfs, sink.shard_path)


def _round(ctx: Context, clock: Clock) -> dict:
    """Serial and pooled arms of both paths, each its own segment."""
    inputs = ctx.inputs
    ctx.rounds_run += 1
    base = f"/bench/pool/run-{ctx.rounds_run:04d}"
    out = {"serial_root": f"{base}/serial", "pool_root": f"{base}/pool"}

    clones = clone_examples(inputs.pool)
    with clock.segment() as seg:
        out["serial_votes"] = apply_lfs_in_memory(inputs.lfs, clones)
    out["inmem_serial_s"] = seg.calibrated
    clones = clone_examples(inputs.pool)
    with clock.segment() as seg:
        out["pool_votes"] = apply_lfs_in_memory(
            inputs.lfs, clones, executor=ctx.executor
        )
    out["inmem_pool_s"] = seg.calibrated

    seg, _, _ = _stream_arm(ctx, clock, out["serial_root"], pooled=False)
    out["stream_serial_s"] = seg.calibrated
    seg, report, latencies = _stream_arm(ctx, clock, out["pool_root"], pooled=True)
    out["stream_pool_s"] = seg.calibrated
    out["report"] = report
    out["latencies"] = [s / seg.speed for s in latencies]
    out["sink_votes_us"] = (
        report.counters.get("sink/votes/us", 0) / seg.speed / max(1, report.batches)
    )
    return out


def _check(ctx: Context, out: dict) -> int:
    """Pooled examples that differ from their serial arm."""
    inputs = ctx.inputs
    n = len(inputs.pool)
    serial, pooled = out["serial_votes"], out["pool_votes"]
    bad = int(np.any(serial.matrix != pooled.matrix, axis=1).sum())
    if serial.example_ids != pooled.example_ids:
        bad = n
    serial_digest = tree_digest(inputs.dfs, out["serial_root"], ("votes",))
    pool_digest = tree_digest(inputs.dfs, out["pool_root"], ("votes",))
    if len(pool_digest) != -(-n // BATCH_SIZE):
        raise RuntimeError(f"expected {-(-n // BATCH_SIZE)} vote shards per arm")
    if serial_digest != pool_digest:
        return bad + n
    if "digest" not in ctx.reference:
        # Shards are byte-identical across arms and rounds; decode once.
        ids, votes = read_vote_shards(
            inputs.dfs, inputs.dfs.list(out["pool_root"] + "/votes/")
        )
        row_of = {eid: i for i, eid in enumerate(serial.example_ids)}
        rows = [row_of[eid] for eid in ids]
        bad += int(np.any(votes != serial.matrix[rows], axis=1).sum())
        ctx.reference["digest"] = pool_digest
    elif pool_digest != ctx.reference["digest"]:
        bad += n
    return bad


def measure(ctx: Context, seconds: float, clock: Clock, min_rounds: int | None = None) -> dict:
    inputs = ctx.inputs
    min_rounds = min_rounds or inputs.sizes.min_rounds
    n = len(inputs.pool)
    rounds, latencies, failed, durable = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        out = _round(ctx, clock)
        failed += _check(ctx, out)
        durable = tree_bytes(inputs.dfs, out["pool_root"])
        for root in (out["serial_root"], out["pool_root"]):
            inputs.dfs.delete_recursive(root + "/")
        latencies.extend(out.pop("latencies"))
        for key in ("serial_votes", "pool_votes"):
            del out[key]
        rounds.append(out)
    stream_s = median(r["stream_pool_s"] for r in rounds)
    inmem_s = median(r["inmem_pool_s"] for r in rounds)
    report = rounds[-1]["report"]
    p50 = 1e3 * median(latencies)
    return {
        "attempted": 2 * n * len(rounds),
        "failed": failed,
        "round_s": stream_s,
        "metrics": {
            "examples_per_s": n / stream_s,
            "latency_p50_ms": p50,
            "batch_latency_p50_ms": p50,
            "durable_bytes_per_example": durable / n,
            "inmem_examples_per_s": n / inmem_s,
            "parallel.speedup_inmem": median(
                r["inmem_serial_s"] / r["inmem_pool_s"] for r in rounds
            ),
            "parallel.speedup_stream": median(
                r["stream_serial_s"] / r["stream_pool_s"] for r in rounds
            ),
            "parallel.pool_restarts": ctx.executor.pool_restarts,
            "streaming.batch_latency_p90_ms": 1e3 * percentile(latencies, 90),
            "streaming.sink_votes_us_per_batch": median(
                r["sink_votes_us"] for r in rounds
            ),
            "streaming.backpressure_waits": report.backpressure_waits,
            "streaming.peak_resident_records": report.peak_resident_records,
        },
    }


def _roundtrips(ctx: Context, clock: Clock, tracer: Tracer) -> tuple[float, float]:
    """One block at a time through the pool; returns calibrated
    (total seconds, seconds not spent labeling inside a worker)."""
    total = ipc = 0.0
    clones = clone_examples(ctx.inputs.pool)
    for seq, start in enumerate(range(0, len(clones), BATCH_SIZE)):
        block = clones[start:start + BATCH_SIZE]
        with clock.segment(tracer) as seg, tracer.span("parallel.roundtrip", seq=seq):
            ctx.executor.submit(seq, block)
            _, _, _, label_us = ctx.executor.next_completed()
        total += seg.calibrated
        ipc += (seg.wall - label_us / 1e6) / seg.speed
    return total, ipc


def trace(ctx: Context, seconds: float, clock: Clock, tracer: Tracer) -> dict:
    inputs = ctx.inputs
    n = len(inputs.pool)
    measured = measure(ctx, seconds / 2.0, clock, min_rounds=1)

    cold, layer = probes.probe_dfs(inputs, tracer, clock)
    _, lf_metrics = probes.probe_lf(inputs, cold, tracer, clock)
    layer.update(lf_metrics)

    with clock.segment(tracer), tracer.span("parallel.pool_start"):
        spare = _start_pool(inputs.seed, ctx.workers)
    _stop_pool(*spare)
    quiet_s, _ = _roundtrips(ctx, clock, Tracer(NAME, enabled=False))
    traced_s, ipc_s = _roundtrips(ctx, clock, tracer)
    layer.update({
        "parallel.pool_start_s": tracer.total("parallel.pool_start"),
        "parallel.roundtrip_us_per_example": 1e6 * ipc_s / n,
        "trace_overhead_ratio": traced_s / quiet_s,
    })
    measured["layer"] = layer
    return measured
