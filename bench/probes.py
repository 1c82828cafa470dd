"""Direct-call probes of the three kernel layers: ``dfs``, ``lf``, ``core``.

These layers are pure functions of their inputs, so the traced run of
every workload times them from outside on that workload's own inputs —
one span per call, grouped under a per-probe parent. The orchestration
layers (``mapreduce``, ``streaming``, ``parallel``, ``serving``) are
traced by each workload's own replay instead.

A probe pass is short (0.1-2 s), so one pass reads a noisy host; every
probe makes ``Sizes.probe_passes`` passes over fresh clones and reports
the per-metric median.
"""

from __future__ import annotations

import numpy as np

from harness import Clock, Tracer, median
from inputs import BATCH_SIZE, Inputs, clone_examples, online_config
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModel
from repro.core.patterns import compress_votes
from repro.dfs.records import RecordReader, encode_record
from repro.lf.applier import (
    fused_lf_columns,
    label_example_block,
    start_lf_resources,
    stop_lf_resources,
)
from repro.lf.templates import apply_fused_batch_specs
from repro.types import Example

__all__ = ["probe_dfs", "probe_lf", "probe_core", "LF_SLICE"]

#: Examples each per-LF / fused / single-row probe labels (cold clones).
LF_SLICE = 2048
SINGLE_ROWS = 256


def _blocks(items, size: int = BATCH_SIZE):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _median_of(passes: list[dict]) -> dict:
    return {name: median(each[name] for each in passes) for name in passes[0]}


def probe_dfs(inputs: Inputs, tracer: Tracer, clock: Clock):
    """Record codec cost on the staged shards; returns the decoded
    (cold) examples plus the ``dfs.*`` metrics."""
    passes = []
    for _ in range(inputs.sizes.probe_passes):
        decoded: list[Example] = []
        encoded_bytes = 0
        mark = tracer.mark()
        with clock.segment(tracer), tracer.span("probe.dfs"):
            for path in inputs.shard_paths:
                with tracer.span("dfs.decode", path=path):
                    decoded.extend(
                        Example.from_record(record)
                        for record in RecordReader(inputs.dfs, path)
                    )
            for block in _blocks(decoded):
                with tracer.span("dfs.encode", records=len(block)):
                    encoded_bytes += sum(
                        len(encode_record(example.to_record())) for example in block
                    )
        n = len(decoded)
        passes.append({
            "dfs.decode_us_per_record": 1e6 * tracer.total("dfs.decode", mark) / n,
            "dfs.encode_us_per_record": 1e6 * tracer.total("dfs.encode", mark) / n,
            "dfs.bytes_per_record": encoded_bytes / n,
        })
    return decoded, _median_of(passes)


def probe_lf(inputs: Inputs, cold: list[Example], tracer: Tracer, clock: Clock):
    """LF kernel cost: whole-suite blocks, the fused executor, each LF
    alone, and one-row blocks. Returns the block votes plus ``lf.*``."""
    lfs = inputs.lfs
    fused_cols = fused_lf_columns(lfs)
    specs = [lfs[j].fused_spec for j in fused_cols]
    sample = inputs.pool[:LF_SLICE]
    passes = []
    start_lf_resources(lfs)
    try:
        for _ in range(inputs.sizes.probe_passes):
            votes = []
            mark = tracer.mark()
            clones = clone_examples(cold)
            with clock.segment(tracer), tracer.span("probe.lf.block"):
                for block in _blocks(clones):
                    with tracer.span("lf.block", records=len(block)):
                        votes.append(label_example_block(lfs, block, fused_cols))
            clones = clone_examples(sample)
            with clock.segment(tracer), tracer.span("probe.lf.fused"):
                for block in _blocks(clones):
                    with tracer.span("lf.fused", records=len(block)):
                        apply_fused_batch_specs(specs, block)
            metrics = {}
            for lf in lfs:
                clones = clone_examples(sample)
                with clock.segment(tracer), tracer.span(f"lf.batch.{lf.name}"):
                    lf.label_batch(clones)
                metrics[f"lf.batch_us_per_example.{lf.name}"] = (
                    1e6 * tracer.total(f"lf.batch.{lf.name}", mark) / len(sample)
                )
            clones = clone_examples(sample[:SINGLE_ROWS])
            with clock.segment(tracer), tracer.span("probe.lf.single"):
                for example in clones:
                    with tracer.span("lf.single"):
                        label_example_block(lfs, [example], fused_cols)
            metrics.update({
                "lf.block_us_per_example": 1e6 * tracer.total("lf.block", mark) / len(cold),
                "lf.fused_us_per_example": 1e6 * tracer.total("lf.fused", mark) / len(sample),
                "lf.single_us_per_example": 1e6
                * median(span.seconds for span in tracer.named("lf.single", mark)),
            })
            passes.append(metrics)
    finally:
        stop_lf_resources(lfs)
    matrix = np.vstack(votes)
    metrics = _median_of(passes)
    metrics["lf.vote_patterns"] = compress_votes(matrix).n_patterns
    return matrix, metrics


def probe_core(inputs: Inputs, votes: np.ndarray, tracer: Tracer, clock: Clock):
    """Label-model cost on ``votes`` (the workload's stream, in order):
    offline fit both ways, scoring, and the online model's per-batch
    update, refit and snapshot round trip."""
    seed = inputs.seed
    n = len(votes)
    passes = []
    for _ in range(inputs.sizes.probe_passes):
        mark = tracer.mark()
        with clock.segment(tracer), tracer.span("core.compress"):
            compressed = compress_votes(votes)
        with clock.segment(tracer), tracer.span("core.fit"):
            model = SamplingFreeLabelModel(LabelModelConfig(seed=seed)).fit(votes)
        with clock.segment(tracer), tracer.span("core.fit_compressed"):
            SamplingFreeLabelModel(LabelModelConfig(seed=seed)).fit_compressed(compressed)
        with clock.segment(tracer), tracer.span("core.predict"):
            model.predict_proba(votes)

        online = OnlineLabelModel(online_config(seed, refit_every=None))
        state_spans = []
        with clock.segment(tracer), tracer.span("probe.core.online"):
            for k, block in enumerate(_blocks(votes)):
                with tracer.span("core.observe", batch=k):
                    online.observe(block)
                if k == 0 or (k + 1) * BATCH_SIZE >= n:
                    with tracer.span("core.state_dict", batch=k) as span:
                        state = online.state_dict()
                    state_spans.append(span)
        with clock.segment(tracer), tracer.span("core.refit"):
            online.refit()
        with clock.segment(tracer), tracer.span("core.load_state"):
            OnlineLabelModel(online_config(seed, refit_every=None)).load_state(state)
        passes.append({
            "core.compress_ms": 1e3 * tracer.total("core.compress", mark),
            "core.fit_s": tracer.total("core.fit", mark),
            "core.fit_compressed_s": tracer.total("core.fit_compressed", mark),
            "core.predict_us_per_example": 1e6 * tracer.total("core.predict", mark) / n,
            "core.observe_us_per_batch": 1e6
            * median(span.seconds for span in tracer.named("core.observe", mark)),
            "core.refit_s": tracer.total("core.refit", mark),
            "core.state_dict_ms_first": 1e3 * state_spans[0].seconds,
            "core.state_dict_ms_last": 1e3 * state_spans[-1].seconds,
            "core.load_state_ms": 1e3 * tracer.total("core.load_state", mark),
        })
    return _median_of(passes)
