"""``serve_mixed`` — closed-loop label serving through four phases.

Set-up streams the pool with one manifest per micro-batch and starts a
``LabelServer`` (default ``ServeConfig`` except ``timeout_ms=60000``,
``poll_ms=5``) on an *empty* live root. The measured phases:

* ``degraded``  — 64 requests before any manifest is deployed
  (correctness only: every answer is the class prior, flagged degraded);
* ``solo``      — one client, sequential requests, no swaps;
* ``swap``      — the solo client keeps going while successively newer
  manifests are deployed; each deploy is timed from ``dfs.write_file``
  returning to the first response carrying the new generation;
* ``saturated`` — ``nproc`` clients, no swaps.

Callers block in ``LabelServer.predict``, so every client is closed-loop
by construction; an open-loop fixed-rate arm needs a non-blocking submit
API and is left to the PR that adds one.

Why it exists: the flush window, batcher hand-off and registry refit
decide these numbers while the LF and fit kernels are a small share —
the opposite mix to the three batch workloads. Latencies and QPS are
reported in raw wall time: the flush window is a timed wait, which
host-speed calibration would distort.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import probes
from harness import Clock, Tracer, median, percentile
from inputs import (
    Inputs,
    Sizes,
    build_inputs,
    build_lfs,
    clone_examples,
    online_config,
    reference_votes,
    tree_bytes,
)
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.dfs.records import RecordReader
from repro.lf.applier import (
    fused_lf_columns,
    label_example_block,
    start_lf_resources,
    stop_lf_resources,
)
from repro.serving import (
    CheckpointModelRegistry,
    LabelServer,
    ServeConfig,
    ServeTimeout,
)
from repro.streaming import CheckpointedStream, CheckpointManager, RecordStreamSource

NAME = "serve_mixed"

#: Per-layer names this workload never enters (reported as 0).
IDLE = (
    "mapreduce.",
    "parallel.",
    "inmem_examples_per_s",
    "batch_latency_p50_ms",
    "streaming.sink",
    "streaming.checkpoint_write",
    "streaming.batch_latency",
    "streaming.overlap_ratio",
    "streaming.backpressure_waits",
    "streaming.peak_resident_records",
)

STREAM_ROOT = "/bench/serve/stream"
LIVE_ROOT = "/bench/serve/live"
DEGRADED_REQUESTS = 64
WORK_ROWS = 256
TRACED_REQUESTS = 200
_PAD_ROWS = 32


@dataclass
class Context:
    inputs: Inputs
    releases: list[str]
    """Manifests to deploy, oldest first (generation k = releases[k-1])."""
    registry: CheckpointModelRegistry
    server: LabelServer
    issued: int = 0
    reference: dict = field(default_factory=dict)


def setup(seed: int, sizes: Sizes) -> Context:
    inputs = build_inputs(seed, sizes)
    config = online_config(seed, refit_every=None)
    stream = CheckpointedStream(
        inputs.dfs,
        inputs.lfs,
        STREAM_ROOT,
        batch_size=sizes.corpus_batch,
        online_config=config,
        checkpoint_every=1,
        write_labels=False,
    )
    stream.run(RecordStreamSource(inputs.dfs, inputs.shard_paths))
    manifests = stream.manager.manifest_paths()
    count = sizes.deploys + 1
    if len(manifests) < count:
        raise RuntimeError(f"need {count} manifests, the stream wrote {len(manifests)}")
    releases = [manifests[(k + 1) * len(manifests) // count - 1] for k in range(count)]
    registry = CheckpointModelRegistry(inputs.dfs, LIVE_ROOT, online_config=config)
    # The server owns a suite of its own: starting and stopping
    # ``inputs.lfs`` (references, probes) must not stop its services.
    server = LabelServer(
        registry, build_lfs(seed), ServeConfig(timeout_ms=60_000.0, poll_ms=5.0)
    )
    server.start()
    return Context(inputs, releases, registry, server)


def close(ctx: Context) -> None:
    ctx.server.stop()


def _deploy(ctx: Context, manifest_path: str) -> float:
    """Release one manifest into the live root; returns the instant the
    write returned."""
    dfs = ctx.inputs.dfs
    name = manifest_path.rsplit("/", 1)[1]
    dfs.write_file(f"{LIVE_ROOT}/checkpoints/{name}", dfs.read_file(manifest_path))
    return time.perf_counter()


def _request(ctx: Context, index: int, responses: list):
    """One closed-loop request on a cold clone; returns (result, seconds,
    finished-at), or ``None`` for the result when it timed out."""
    pool = ctx.inputs.pool
    row = index % len(pool)
    example = clone_examples(pool[row:row + 1])[0]
    start = time.perf_counter()
    try:
        result = ctx.server.predict(example)
    except ServeTimeout:
        result = None
    end = time.perf_counter()
    responses.append((row, result))
    return result, end - start, end


def _solo(ctx: Context, responses: list, until) -> list[float]:
    """Sequential requests until ``until(result, finished_at)`` is true."""
    latencies = []
    while True:
        result, seconds, end = _request(ctx, ctx.issued, responses)
        ctx.issued += 1
        latencies.append(seconds)
        if until(result, end):
            return latencies


def _saturated(ctx: Context, responses: list, seconds: float, clients: int):
    """``clients`` closed-loop threads for ``seconds``; returns
    (latencies, wall seconds from release to the last response)."""
    barrier = threading.Barrier(clients + 1)
    per_client = [([], []) for _ in range(clients)]
    last_end = [0.0] * clients
    deadline = [0.0]

    def client(c: int) -> None:
        latencies, local = per_client[c]
        index = ctx.issued + c
        barrier.wait()
        while time.perf_counter() < deadline[0]:
            _, took, end = _request(ctx, index, local)
            latencies.append(took)
            last_end[c] = end
            index += clients

    threads = [
        threading.Thread(target=client, args=(c,), name=f"bench-client-{c}")
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline[0] = start + seconds
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    latencies = [s for lat, _ in per_client for s in lat]
    for _, local in per_client:
        responses.extend(local)
    ctx.issued += len(latencies)
    return latencies, max(last_end) - start


def _expected(ctx: Context) -> dict[int, np.ndarray]:
    """Per generation: the offline fit of the release's stream prefix,
    scoring every pool row (indexed by pool position)."""
    inputs = ctx.inputs
    ids = [
        record["example_id"]
        for path in inputs.shard_paths
        for record in RecordReader(inputs.dfs, path)
    ]
    votes = reference_votes(inputs, ids)
    ctx.reference["votes"] = votes
    pool_row = {e.example_id: i for i, e in enumerate(inputs.pool)}
    order = np.empty(len(ids), dtype=np.int64)
    order[[pool_row[eid] for eid in ids]] = np.arange(len(ids))
    manager = CheckpointManager(inputs.dfs, STREAM_ROOT)
    expected = {}
    for generation, path in enumerate(ctx.releases, start=1):
        cursor = manager.load(path).cursor
        model = SamplingFreeLabelModel(LabelModelConfig(seed=inputs.seed))
        model.fit(votes[:cursor])
        expected[generation] = model.predict_proba(votes)[order]
    return expected


def _failures(ctx: Context, responses: list) -> tuple[int, int]:
    """(requests answered wrongly or not at all, degraded under load)."""
    expected = _expected(ctx)
    failed = degraded = 0
    for row, result in responses:
        if result is None:
            failed += 1
        elif result.degraded:
            degraded += 1
        elif result.posterior != expected[result.generation][row]:
            failed += 1
    return failed + degraded, degraded


def measure(ctx: Context, seconds: float, clock: Clock) -> dict:
    """The four phases, once. ``solo`` and ``saturated`` each get 30% of
    ``seconds``; ``swap`` takes as long as its deploys take."""
    inputs = ctx.inputs
    server, registry = ctx.server, ctx.registry
    clients = os.cpu_count() or 1
    failed = 0

    prior = registry.abstain_prior()
    for i in range(DEGRADED_REQUESTS):
        result = server.predict(inputs.pool[i % len(inputs.pool)])
        if not result.degraded or result.posterior != prior:
            failed += 1

    responses: list = []
    _deploy(ctx, ctx.releases[0])
    _solo(ctx, responses, lambda result, end: result is None or not result.degraded)
    responses.clear()  # answers served while generation 1 was still loading

    solo_until = time.perf_counter() + 0.3 * seconds
    solo = _solo(ctx, responses, lambda _result, end: end >= solo_until)

    deploys = []
    for generation, path in enumerate(ctx.releases[1:], start=2):
        written = _deploy(ctx, path)
        give_up = written + 60.0
        activated = [0.0]

        def active(result, end, generation=generation) -> bool:
            activated[0] = end
            return end >= give_up or (
                result is not None and result.generation == generation
            )

        _solo(ctx, responses, active)
        if registry.generation != generation:
            raise RuntimeError(f"generation {generation} never activated")
        deploys.append(activated[0] - written)

    before = dict(registry.counters.as_dict())
    saturated, wall = _saturated(ctx, responses, 0.3 * seconds, clients)
    after = registry.counters.as_dict()

    bad, degraded = _failures(ctx, responses)
    batches = after.get("serving/batches", 0) - before.get("serving/batches", 0)
    requests = after.get("serving/requests", 0) - before.get("serving/requests", 0)
    solo_p50 = 1e3 * median(solo)
    qps = len(saturated) / wall
    return {
        "attempted": DEGRADED_REQUESTS + len(responses),
        "failed": failed + bad,
        "solo_samples": len(solo),
        "saturated_samples": len(saturated),
        "clients": clients,
        "metrics": {
            "examples_per_s": qps,
            "latency_p50_ms": solo_p50,
            "durable_bytes_per_example": tree_bytes(inputs.dfs, STREAM_ROOT)
            / len(inputs.pool),
            "serve_solo_p50_ms": solo_p50,
            "serve_p50_ms": 1e3 * median(saturated),
            "serve_qps": qps,
            "deploy_to_active_s": median(deploys),
            "serving.sat_p90_ms": 1e3 * percentile(saturated, 90),
            "serving.sat_p99_ms": 1e3 * percentile(saturated, 99),
            "serving.mean_batch_size": requests / max(1, batches),
            "serving.timeouts": after.get("serving/timeouts", 0),
            "serving.backpressure_waits": after.get("serving/backpressure_waits", 0),
            "serving.degraded_in_load": degraded,
        },
    }


def _traced_solo(ctx: Context, tracer: Tracer) -> float:
    """Raw p50 of a short solo pass with one span per request."""
    responses: list = []
    latencies = []
    for _ in range(TRACED_REQUESTS):
        with tracer.span("serving.request"):
            _, seconds, _ = _request(ctx, ctx.issued, responses)
        ctx.issued += 1
        latencies.append(seconds)
    return median(latencies)


def trace(ctx: Context, seconds: float, clock: Clock, tracer: Tracer) -> dict:
    inputs = ctx.inputs
    dfs, lfs = inputs.dfs, inputs.lfs
    measured = measure(ctx, 0.6 * seconds, clock)
    metrics = measured["metrics"]

    cold, layer = probes.probe_dfs(inputs, tracer, clock)
    _, lf_metrics = probes.probe_lf(inputs, cold, tracer, clock)
    layer.update(lf_metrics)
    layer.update(probes.probe_core(inputs, ctx.reference["votes"], tracer, clock))

    manager = CheckpointManager(dfs, STREAM_ROOT)
    manifests = manager.manifest_paths()
    with clock.segment(tracer), tracer.span("streaming.checkpoint_load"):
        manager.load(manifests[-1])
    fresh = CheckpointModelRegistry(
        dfs, STREAM_ROOT, online_config=online_config(inputs.seed, refit_every=None)
    )
    with clock.segment(tracer), tracer.span("serving.refresh"):
        fresh.refresh()

    generation = ctx.registry.active()
    fused_cols = fused_lf_columns(lfs)
    pad = np.zeros((_PAD_ROWS - 1, len(lfs)), dtype=np.int8)
    start_lf_resources(lfs)
    try:
        with clock.segment(tracer), tracer.span("probe.serving.work"):
            for example in clone_examples(inputs.pool[:WORK_ROWS]):
                with tracer.span("serving.work"):
                    votes = label_example_block(lfs, [example], fused_cols)
                    generation.label_model.predict_proba(np.vstack([votes, pad]))
    finally:
        stop_lf_resources(lfs)
    work = tracer.named("serving.work")
    work_raw_us = 1e6 * median(s.end - s.start for s in work)

    quiet = _traced_solo(ctx, Tracer(NAME, enabled=False))
    traced = _traced_solo(ctx, tracer)
    layer.update({
        "streaming.checkpoint_load_ms": 1e3 * tracer.total("streaming.checkpoint_load"),
        "streaming.manifest_bytes_first": dfs.size(manifests[0]),
        "streaming.manifest_bytes_last": dfs.size(manifests[-1]),
        "serving.refresh_s": tracer.total("serving.refresh"),
        "serving.work_us_per_request": 1e6 * median(s.seconds for s in work),
        "serving.wait_share": 1.0 - work_raw_us / (1e3 * metrics["serve_solo_p50_ms"]),
        "serving.qps_vs_kernel_ratio": metrics["serve_qps"]
        * layer["lf.block_us_per_example"] / 1e6,
        "trace_overhead_ratio": traced / quiet,
    })
    measured["layer"] = layer
    return measured
