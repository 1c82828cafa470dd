#!/usr/bin/env python
"""Streaming weak supervision: label a live micro-batch stream.

Stages a toy corpus as DFS record shards, then runs the continuous
pipeline: chunked record ingestion -> micro-batch LF execution (fused
token-match executor) -> online generative model -> FTRL end model —
every example seen exactly once, with one micro-batch of records
resident at a time. Finishes by verifying the streaming run
against the offline batch pipeline: identical votes, identical
probabilistic labels after the final refit.

Run:  python examples/streaming_pipeline.py
"""

import numpy as np

from repro.core import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
    SamplingFreeLabelModel,
)
from repro.core.label_model import LabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.discriminative.logistic import (
    LogisticConfig,
    NoiseAwareLogisticRegression,
)
from repro.discriminative.metrics import binary_metrics
from repro.features.extractors import HashedTextFeaturizer
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.lf.templates import keyword_lf, url_domain_lf
from repro.streaming import (
    CheckpointedStream,
    MicroBatchPipeline,
    RecordStreamSource,
    SimulatedCrash,
)

try:
    from examples.quickstart import make_documents
except ImportError:  # run as `python examples/streaming_pipeline.py`
    from quickstart import make_documents


def build_lfs():
    """Module-level factory so worker processes can rebuild the suite
    from a picklable spec (`LFSuiteSpec` points here by name)."""
    return [
        keyword_lf("kw_sports", ["match", "league", "goal"], vote=1),
        keyword_lf("kw_cooking", ["recipe", "oven", "chef"], vote=-1),
        url_domain_lf("url_sports_site", ["pitchside.example"], vote=1),
    ]


def main():
    examples, gold = make_documents(n=2000, seed=7)
    lfs = build_lfs()

    # 1. Stage the corpus as sharded record files — the stream source
    #    reads them back chunk by chunk, never as whole-shard blobs.
    dfs = DistributedFileSystem()
    shards = stage_examples(dfs, examples, "/demo/examples", num_shards=4)
    print(f"staged {len(examples)} examples into {len(shards)} record shards")

    # 2. Wire the continuous pipeline: online label model + FTRL
    #    end model consume each micro-batch as it is labeled.
    config = LabelModelConfig(seed=0)
    online = OnlineLabelModel(OnlineLabelModelConfig(base=config))
    featurizer = HashedTextFeaturizer(num_buckets=2 ** 12)
    end_model = NoiseAwareLogisticRegression(
        featurizer.spec.dimension, LogisticConfig()
    )

    def sink(seq, batch, votes):
        online.observe(votes)
        covered = np.abs(votes).sum(axis=1) > 0
        if covered.any():
            soft = online.predict_proba(votes[covered])
            X = featurizer.transform(
                [e for e, keep in zip(batch, covered) if keep]
            )
            end_model.partial_fit(X, soft, epochs=2)

    pipeline = MicroBatchPipeline(
        lfs,
        batch_size=256,
        max_resident_batches=2,
        sinks=[sink],
        collect_votes=True,
    )
    report = pipeline.run(RecordStreamSource(dfs, shards))
    final_model = online.model

    print(
        f"streamed {report.examples} examples in {report.batches} "
        f"micro-batches at {report.examples_per_second:,.0f} examples/s"
    )
    print(
        f"peak resident records: {report.peak_resident_records} "
        f"(bound {report.max_resident_records})"
    )
    label_stage = report.stage("label")
    print(
        f"labeling stage: {label_stage.records_per_second:,.0f} records/s "
        f"across {label_stage.batches} batches; "
        f"mean batch latency {1e3 * report.mean_batch_latency_seconds:.1f}ms"
    )
    print(
        f"online label model: {online.n_observed} votes observed, "
        f"{online.n_patterns} distinct vote patterns, "
        f"{online.refits_done} solves (one per batch)"
    )

    # 3. Verify against the offline batch pipeline.
    offline_votes = apply_lfs_in_memory(lfs, examples)
    aligned = offline_votes.select_examples(report.label_matrix.example_ids)
    assert np.array_equal(report.label_matrix.matrix, aligned.matrix)
    offline_model = SamplingFreeLabelModel(config).fit(
        report.label_matrix.matrix
    )
    gap = np.max(
        np.abs(
            offline_model.predict_proba(report.label_matrix.matrix)
            - final_model.predict_proba(report.label_matrix.matrix)
        )
    )
    print(
        "\nstream/offline equivalence: votes identical, "
        f"posterior gap after the last batch's solve = {gap:.2e}"
    )

    metrics = binary_metrics(gold, end_model.predict_proba(featurizer.transform(examples)))
    print(
        f"stream-trained classifier (one pass, 0 hand labels): "
        f"P={metrics.precision:.3f} R={metrics.recall:.3f} F1={metrics.f1:.3f}"
    )

    # 4. Multi-consumer streaming: the same stream with labeling fanned
    #    out to a two-process pool. One admission-controlled ingest
    #    feeds every worker; sinks still see batches strictly in order,
    #    so the votes are byte-identical to the single-consumer run above.
    from repro.parallel import LFSuiteSpec, ParallelLabelExecutor

    # Point the spec at an *importable* module path, never "__main__":
    # spawn-based platforms re-import the factory module inside each
    # worker, and their "__main__" is the multiprocessing bootstrap.
    try:
        import examples.streaming_pipeline  # noqa: F401

        factory_module = "examples.streaming_pipeline"
    except ImportError:  # run as `python examples/streaming_pipeline.py`
        factory_module = "streaming_pipeline"
    spec = LFSuiteSpec(factory=f"{factory_module}:build_lfs")
    with ParallelLabelExecutor(spec, 2) as pool:
        parallel_report = MicroBatchPipeline(
            lfs,
            batch_size=256,
            max_resident_batches=pool.workers + 2,
            collect_votes=True,
            executor=pool,
        ).run(RecordStreamSource(dfs, shards))
    assert np.array_equal(
        parallel_report.label_matrix.matrix, report.label_matrix.matrix
    )
    print(
        f"\nmulti-consumer: {parallel_report.workers} labeling workers at "
        f"{parallel_report.examples_per_second:,.0f} examples/s "
        f"(single consumer: {report.examples_per_second:,.0f}); "
        "votes byte-identical"
    )

    # 5. Durability: the same stream with vote/label sinks and
    #    checkpoint manifests, killed mid-run and resumed — the resumed
    #    run's shards are byte-identical to a run that never crashed.
    def durable_runner(root):
        return CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=256,
            online_config=OnlineLabelModelConfig(base=config),
            checkpoint_every=2,
        )

    full = durable_runner("/runs/full")
    full_report = full.run(RecordStreamSource(dfs, shards))
    print(
        f"\ndurable stream: {full_report.batches_finalized} batches, "
        f"{full_report.checkpoints_written} checkpoints, "
        f"manifest {full_report.manifest_path}"
    )

    try:
        durable_runner("/runs/crashy").run(
            RecordStreamSource(dfs, shards), fail_after_batch=3
        )
    except SimulatedCrash as crash:
        print(f"crash injected: {crash}")
    resumed = durable_runner("/runs/crashy")
    resumed_report = resumed.run(RecordStreamSource(dfs, shards))
    print(
        f"resumed from batch {resumed_report.resumed_from_batch}, "
        f"skipped {resumed_report.skipped_examples} consumed examples, "
        f"deleted {len(resumed_report.orphan_shards_deleted)} orphan shards"
    )
    full_bytes = {
        p[len("/runs/full"):]: dfs.read_file(p) for p in dfs.list("/runs/full")
    }
    crashy_bytes = {
        p[len("/runs/crashy"):]: dfs.read_file(p)
        for p in dfs.list("/runs/crashy")
    }
    assert full_bytes == crashy_bytes
    print(
        f"crash-resume equivalence: {len(full_bytes)} durable files "
        "byte-identical to the uninterrupted run"
    )

    # 6. Drift: feed a DriftMonitor from a sink (reference vs recent
    #    windows over the vote moments). The toy corpus is stationary,
    #    so the monitor stays quiet — then a synthetic stream with an
    #    injected mid-stream shift shows the alarm and the decay-mode
    #    model, solved every batch, adapting.
    from repro.core.drift import DriftMonitor, DriftPolicy

    quiet_monitor = DriftMonitor(
        DriftPolicy(reference_batches=2, recent_batches=2)
    )

    def drift(seq, batch, votes):
        quiet_monitor.observe_batch(votes)

    MicroBatchPipeline(lfs, batch_size=256, sinks=[drift]).run(
        RecordStreamSource(dfs, shards)
    )
    print(
        f"\ndrift monitor on the stationary stream: "
        f"{quiet_monitor.batches_observed} batches fed, "
        f"{quiet_monitor.checks_run} checks, "
        f"{quiet_monitor.alarms} alarms"
    )

    rng = np.random.default_rng(0)

    def synthetic_batch(flipped):
        # 3 synthetic LFs; post-shift the first flips polarity.
        y = np.where(rng.random(256) < 0.5, 1, -1).astype(np.int8)
        votes = np.zeros((256, 3), dtype=np.int8)
        for j, acc in enumerate((0.15 if flipped else 0.85, 0.8, 0.7)):
            fires = rng.random(256) < 0.6
            correct = rng.random(256) < acc
            votes[fires, j] = np.where(correct[fires], y[fires], -y[fires])
        return votes

    drifting = OnlineLabelModel(
        OnlineLabelModelConfig(base=config, decay=0.9)
    )
    alarm_monitor = DriftMonitor(DriftPolicy(reset_on_alarm=True))
    for batch_index in range(30):
        votes = synthetic_batch(flipped=batch_index >= 18)
        drifting.observe(votes)
        check = alarm_monitor.observe_batch(votes)
        if check.alarmed:
            print(
                f"drift alarm at batch {batch_index} "
                f"(score {check.score:.1f}, shift injected at 18): "
                "reference reset to the new regime"
            )
    print(
        f"decay-mode model after the shift: LF accuracies "
        f"{np.round(drifting.accuracies(), 2)} — the flipped LF is rated "
        f"near-useless; effective mass {drifting.effective_examples:.0f} "
        f"of {drifting.n_observed} observed"
    )


if __name__ == "__main__":
    main()
