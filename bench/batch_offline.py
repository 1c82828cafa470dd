"""``batch_offline`` — the paper's pipeline, one job per round.

Staged shards -> ``LFApplier.apply`` (MapReduce, one fused map job) ->
``SamplingFreeLabelModel.fit`` -> ``predict_proba`` -> probabilistic
labels written as record shards.

Why it exists: record decode, the MapReduce substrate, the LF kernels
and the 6000-step fit do nearly all the work here; streaming, pool and
serving code do none, so a change to those must leave this row flat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import probes
from harness import Clock, Tracer, median
from inputs import Inputs, Sizes, build_inputs, reference_votes, tree_bytes
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.dfs.filesystem import shard_name
from repro.dfs.records import RecordReader, write_records
from repro.lf.applier import LFApplier

NAME = "batch_offline"

#: Per-layer names this workload never enters (reported as 0).
IDLE = (
    "streaming.",
    "parallel.",
    "serving.",
    "serve_",
    "deploy_to_active_s",
    "inmem_examples_per_s",
    "batch_latency_p50_ms",
)


@dataclass
class Context:
    inputs: Inputs
    rounds_run: int = 0
    reference: dict = field(default_factory=dict)


def setup(seed: int, sizes: Sizes) -> Context:
    return Context(build_inputs(seed, sizes))


def close(ctx: Context) -> None:
    pass


def _run_root(ctx: Context) -> str:
    ctx.rounds_run += 1
    return f"/bench/batch/run-{ctx.rounds_run:04d}"


def _write_labels(ctx: Context, root: str, ids, proba) -> list[str]:
    """Probabilistic labels as record shards, strided like the input."""
    shards = ctx.inputs.sizes.shards
    paths = []
    for shard in range(shards):
        path = shard_name(f"{root}/labels", shard, shards)
        write_records(
            ctx.inputs.dfs,
            path,
            (
                {"example_id": ids[i], "proba": float(proba[i])}
                for i in range(shard, len(ids), shards)
            ),
        )
        paths.append(path)
    return paths


def _round(ctx: Context, clock: Clock, tracer: Tracer, root: str):
    """One job, staged shards to label shards, as one calibrated segment."""
    inputs = ctx.inputs
    with clock.segment(tracer) as seg:
        with tracer.span("mapreduce.apply"):
            report = LFApplier(
                inputs.dfs, inputs.shard_paths, root, parallelism=1
            ).apply(inputs.lfs)
        matrix = report.label_matrix.matrix
        with tracer.span("core.fit"):
            model = SamplingFreeLabelModel(LabelModelConfig(seed=inputs.seed)).fit(matrix)
        with tracer.span("core.predict"):
            proba = model.predict_proba(matrix)
        with tracer.span("dfs.write_labels"):
            label_paths = _write_labels(
                ctx, root, report.label_matrix.example_ids, proba
            )
    return seg.calibrated, report.label_matrix, proba, label_paths


def _check(ctx: Context, label_matrix, proba, label_paths) -> int:
    """Examples whose votes, posterior or written label are wrong."""
    inputs = ctx.inputs
    ids = label_matrix.example_ids
    if "votes" not in ctx.reference:
        votes = reference_votes(inputs, ids)
        ctx.reference["votes"] = votes
        ctx.reference["proba"] = (
            SamplingFreeLabelModel(LabelModelConfig(seed=inputs.seed))
            .fit(votes)
            .predict_proba(votes)
        )
    bad = np.any(label_matrix.matrix != ctx.reference["votes"], axis=1)
    bad |= proba != ctx.reference["proba"]
    if len(label_paths) != inputs.sizes.shards:
        raise RuntimeError(f"expected {inputs.sizes.shards} label shards")
    written = {
        record["example_id"]: record["proba"]
        for path in label_paths
        for record in RecordReader(inputs.dfs, path)
    }
    expected = dict(zip(ids, ctx.reference["proba"].tolist()))
    bad |= np.array([written.get(eid) != expected[eid] for eid in ids])
    return int(bad.sum())


def measure(ctx: Context, seconds: float, clock: Clock, min_rounds: int | None = None) -> dict:
    inputs = ctx.inputs
    min_rounds = min_rounds or inputs.sizes.min_rounds
    null = Tracer(NAME, enabled=False)
    n = len(inputs.pool)
    rounds, failed, durable = [], 0, 0
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        root = _run_root(ctx)
        wall, label_matrix, proba, label_paths = _round(ctx, clock, null, root)
        rounds.append(wall)
        failed += _check(ctx, label_matrix, proba, label_paths)
        durable = tree_bytes(inputs.dfs, root)
        inputs.dfs.delete_recursive(root + "/")
    round_s = median(rounds)
    return {
        "attempted": n * len(rounds),
        "failed": failed,
        "rounds": len(rounds),
        "round_s": round_s,
        "metrics": {
            "examples_per_s": n / round_s,
            "latency_p50_ms": 1e3 * round_s,
            "durable_bytes_per_example": durable / n,
        },
    }


def trace(ctx: Context, seconds: float, clock: Clock, tracer: Tracer) -> dict:
    inputs = ctx.inputs
    n = len(inputs.pool)
    measured = measure(ctx, seconds / 2.0, clock, min_rounds=1)

    cold, layer = probes.probe_dfs(inputs, tracer, clock)
    votes, lf_metrics = probes.probe_lf(inputs, cold, tracer, clock)
    layer.update(lf_metrics)
    layer.update(probes.probe_core(inputs, votes, tracer, clock))

    mark = tracer.mark()
    root = _run_root(ctx)
    traced_s, label_matrix, proba, label_paths = _round(ctx, clock, tracer, root)
    measured["failed"] += _check(ctx, label_matrix, proba, label_paths)
    measured["attempted"] += n
    inputs.dfs.delete_recursive(root + "/")

    apply_us = 1e6 * tracer.total("mapreduce.apply", mark) / n
    layer["mapreduce.apply_us_per_example"] = apply_us
    layer["mapreduce.overhead_us_per_example"] = (
        apply_us - layer["dfs.decode_us_per_record"] - layer["lf.block_us_per_example"]
    )
    layer["trace_overhead_ratio"] = traced_s / measured["round_s"]
    measured["layer"] = layer
    return measured
