"""``stream_durable`` — the continuous counterpart, one stream per round.

Several id-suffixed epochs of the pool run through
``CheckpointedStream(batch_size=1024, max_resident_batches=2,
checkpoint_every=1, write_labels=True, refit_every=...)``: vote and
label shards plus one manifest per micro-batch.

Why it exists: sinks, manifest publish (``state_dict`` grows with the
stream), ``observe``/refit and the pipeline's decode/label overlap carry
weight here and nowhere else, and the same ``dfs`` serves writes beside
reads — a decode win that costs the write path shows on this row.

The traced run cannot put spans inside the pipeline from outside, so it
is a *stepwise replay*: the benchmark drives source -> label -> observe
-> predict -> sinks -> snapshot -> manifest itself, one span per call
under a per-batch parent, checks that the replay wrote the same shard
bytes as the real pipeline, and times one real ``run()`` beside it.
"""

from __future__ import annotations

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
    online_config,
    read_vote_shards,
    reference_votes,
    tree_bytes,
    tree_digest,
)
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModel
from repro.lf.applier import (
    fused_lf_columns,
    label_example_block,
    start_lf_resources,
    stop_lf_resources,
)
from repro.streaming import (
    CheckpointedStream,
    CheckpointManager,
    LabelSink,
    RecordStreamSource,
    VoteSink,
)

NAME = "stream_durable"

#: Per-layer names this workload never enters (reported as 0).
IDLE = (
    "mapreduce.",
    "parallel.",
    "serving.",
    "serve_",
    "deploy_to_active_s",
    "inmem_examples_per_s",
)

#: Batches per calibrated segment of the stepwise replay.
REPLAY_GROUP = 4


@dataclass
class Context:
    inputs: Inputs
    examples: int
    rounds_run: int = 0
    reference: dict = field(default_factory=dict)


def setup(seed: int, sizes: Sizes) -> Context:
    inputs = build_inputs(seed, sizes, epochs=sizes.stream_epochs)
    return Context(inputs, examples=sizes.pool * sizes.stream_epochs)


def close(ctx: Context) -> None:
    pass


def _root(ctx: Context) -> str:
    ctx.rounds_run += 1
    return f"/bench/stream/run-{ctx.rounds_run:04d}"


def _stream(ctx: Context, root: str) -> CheckpointedStream:
    inputs = ctx.inputs
    return CheckpointedStream(
        inputs.dfs,
        inputs.lfs,
        root,
        batch_size=BATCH_SIZE,
        max_resident_batches=2,
        online_config=online_config(inputs.seed, inputs.sizes.refit_every),
        checkpoint_every=1,
        write_labels=True,
    )


def _round(ctx: Context, clock: Clock, root: str):
    """One whole stream; returns (segment, stream, report, latencies)."""
    inputs = ctx.inputs
    source = TimedSource(RecordStreamSource(inputs.dfs, inputs.shard_paths))
    with clock.segment() as seg:
        stream = _stream(ctx, root)
        report = stream.run(source)
    manager = stream.manager
    latencies = batch_latencies(source, inputs.dfs, manager.manifest_path)
    return seg, stream, report, latencies


def _check(ctx: Context, root: str, stream: CheckpointedStream) -> int:
    """Examples of one finished stream that are wrong.

    The first stream is checked in full (votes against the in-memory
    reference, posteriors after the final refit against an offline fit,
    shard and manifest counts); later streams must reproduce its vote and
    label shards byte for byte.
    """
    inputs = ctx.inputs
    digest = tree_digest(inputs.dfs, root, ("votes", "labels"))
    if "digest" in ctx.reference:
        return 0 if digest == ctx.reference["digest"] else ctx.examples
    batches = -(-ctx.examples // BATCH_SIZE)
    manifests = stream.manager.manifest_paths()
    if len(digest) != 2 * batches or len(manifests) != batches:
        raise RuntimeError(
            f"expected {batches} vote, label and manifest files under {root}"
        )
    ids, votes = read_vote_shards(inputs.dfs, inputs.dfs.list(f"{root}/votes/"))
    expected = reference_votes(inputs, ids)
    bad = np.any(votes != expected, axis=1)
    offline = SamplingFreeLabelModel(LabelModelConfig(seed=inputs.seed)).fit(expected)
    gap = np.abs(
        offline.predict_proba(expected) - stream.online.refit().predict_proba(expected)
    )
    bad |= gap > 1e-6
    ctx.reference.update(digest=digest, votes=expected)
    return int(bad.sum())


def measure(ctx: Context, seconds: float, clock: Clock, min_rounds: int | None = None) -> dict:
    inputs = ctx.inputs
    min_rounds = min_rounds or inputs.sizes.min_rounds
    rounds, latencies, failed, durable = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        root = _root(ctx)
        seg, stream, report, batch_s = _round(ctx, clock, root)
        rounds.append(seg.calibrated)
        latencies.extend(s / seg.speed for s in batch_s)
        failed += _check(ctx, root, stream)
        durable = tree_bytes(inputs.dfs, root)
        inputs.dfs.delete_recursive(root + "/")
    round_s = median(rounds)
    p50 = 1e3 * median(latencies)
    return {
        "attempted": ctx.examples * len(rounds),
        "failed": failed,
        "round_s": round_s,
        "report": report,
        "latency_samples": len(latencies),
        "metrics": {
            "examples_per_s": ctx.examples / round_s,
            "latency_p50_ms": p50,
            "batch_latency_p50_ms": p50,
            "durable_bytes_per_example": durable / ctx.examples,
            "streaming.batch_latency_p90_ms": 1e3 * percentile(latencies, 90),
        },
    }


def _replay(ctx: Context, clock: Clock, tracer: Tracer, root: str) -> float:
    """Drive every per-batch stage by hand; returns calibrated seconds."""
    inputs = ctx.inputs
    lfs, dfs = inputs.lfs, inputs.dfs
    fused_cols = fused_lf_columns(lfs)
    online = OnlineLabelModel(online_config(inputs.seed, refit_every=None))
    cadence = inputs.sizes.refit_every
    vote_sink = VoteSink(dfs, root, inputs.lf_names)
    proba_box = []
    label_sink = LabelSink(dfs, root, lambda _votes: proba_box[0])
    manager = CheckpointManager(dfs, root)
    pairs = RecordStreamSource(dfs, inputs.shard_paths).iter_with_cursor()
    total, seq, cursor, done = 0.0, 0, 0, False
    start_lf_resources(lfs)
    try:
        while not done:
            with clock.segment(tracer) as seg:
                for _ in range(REPLAY_GROUP):
                    with tracer.span("batch", seq=seq):
                        with tracer.span("dfs.decode"):
                            examples = []
                            for example, position in pairs:
                                examples.append(example)
                                if len(examples) == BATCH_SIZE:
                                    break
                        if not examples:
                            done = True
                            break
                        with tracer.span("lf.block"):
                            votes = label_example_block(lfs, examples, fused_cols)
                        with tracer.span("core.observe"):
                            online.observe(votes)
                        if online.batches_observed % cadence == 0:
                            with tracer.span("core.refit"):
                                online.refit()
                        with tracer.span("core.predict"):
                            proba_box[:] = [online.predict_proba(votes)]
                        with tracer.span("streaming.sink_votes"):
                            vote_sink(seq, examples, votes)
                        with tracer.span("streaming.sink_labels"):
                            label_sink(seq, examples, votes)
                        with tracer.span("core.state_dict"):
                            state = online.state_dict()
                        cursor += len(examples)
                        with tracer.span("streaming.checkpoint_write", seq=seq):
                            manager.write(
                                seq, cursor, state, meta=position.as_meta()
                            )
                    seq += 1
            total += seg.calibrated
    finally:
        stop_lf_resources(lfs)
    return total


def trace(ctx: Context, seconds: float, clock: Clock, tracer: Tracer) -> dict:
    inputs = ctx.inputs
    dfs = inputs.dfs
    measured = measure(ctx, seconds / 3.0, clock, min_rounds=1)
    report = measured["report"]

    cold, layer = probes.probe_dfs(inputs, tracer, clock)
    _, lf_metrics = probes.probe_lf(inputs, cold[: inputs.sizes.pool], tracer, clock)
    layer.update(lf_metrics)
    layer.update(probes.probe_core(inputs, ctx.reference["votes"], tracer, clock))

    # Tracing overhead: the same replay with spans off, then on.
    quiet_root, traced_root = _root(ctx), _root(ctx)
    quiet_s = _replay(ctx, clock, Tracer(NAME, enabled=False), quiet_root)
    dfs.delete_recursive(quiet_root + "/")
    mark = tracer.mark()
    traced_s = _replay(ctx, clock, tracer, traced_root)
    replay_digest = tree_digest(dfs, traced_root, ("votes", "labels"))
    measured["attempted"] += ctx.examples
    if replay_digest != ctx.reference["digest"]:
        measured["failed"] += ctx.examples

    writes = [s.seconds for s in tracer.named("streaming.checkpoint_write", mark)]
    decile = max(1, len(writes) // 10)
    manager = CheckpointManager(dfs, traced_root)
    manifests = manager.manifest_paths()
    with clock.segment(tracer), tracer.span("streaming.checkpoint_load"):
        manager.load(manifests[-1])
    stage_s = sum(
        s.seconds for s in tracer.spans[mark:] if s.parent is not None
        and tracer.spans[s.parent].name == "batch"
    )
    layer.update({
        "streaming.sink_votes_us_per_batch": 1e6
        * median(s.seconds for s in tracer.named("streaming.sink_votes", mark)),
        "streaming.sink_labels_us_per_batch": 1e6
        * median(s.seconds for s in tracer.named("streaming.sink_labels", mark)),
        "streaming.checkpoint_write_ms_first_decile": 1e3 * median(writes[:decile]),
        "streaming.checkpoint_write_ms_last_decile": 1e3 * median(writes[-decile:]),
        "streaming.manifest_bytes_first": dfs.size(manifests[0]),
        "streaming.manifest_bytes_last": dfs.size(manifests[-1]),
        "streaming.checkpoint_load_ms": 1e3
        * tracer.total("streaming.checkpoint_load", mark),
        "streaming.overlap_ratio": stage_s / measured["round_s"],
        "streaming.backpressure_waits": report.stream.backpressure_waits,
        "streaming.peak_resident_records": report.stream.peak_resident_records,
        "trace_overhead_ratio": traced_s / quiet_s,
    })
    dfs.delete_recursive(traced_root + "/")
    measured["layer"] = layer
    return measured
