"""End-to-end streaming weak supervision: stream, label, learn online.

The offline pipeline stages a corpus, labels it, fits the generative
model, then trains the discriminative model. This experiment runs the
same workload as a *continuous* micro-batch stream:

    DFS record shards --chunked reads--> MicroBatchPipeline
        --per-batch votes--> OnlineLabelModel (incremental + refits)
        --probabilistic labels--> FTRL logistic end model (partial_fit)

and compares it against the offline batched path on three axes:

* **throughput** — sustained streaming examples/second vs the offline
  batched job over the same staged shards (decode + label), plus the
  in-memory labeling-only rate for context;
* **equivalence** — streamed votes must be vote-for-vote identical to
  the offline applier (id-aligned), and the online model after its
  final refit must produce the same probabilistic labels as an offline
  :class:`SamplingFreeLabelModel` fit on the same stream;
* **quality** — test-set F1 of the stream-trained FTRL end model
  relative to the offline DryBell arm (which trains thousands of
  buffered FTRL iterations; the streaming model sees every example
  once, as it arrives).

``benchmarks/bench_streaming.py`` turns the first two axes into hard
gates and feeds the rows into ``BENCH_perf.json`` / the trend history.

:func:`run_drift_eval` is the non-stationary arm: it injects a
mid-stream distribution shift (LF accuracy swaps + a class-balance
flip) into a synthetic vote stream drawn from the paper's generative
model, and compares a cumulative :class:`OnlineLabelModel` against a
decayed one watched by a :class:`~repro.core.drift.DriftMonitor` — the
alarm must fire within a few micro-batches of the shift (and never on
the stationary control), and the decayed arm's post-shift label and
end-model quality must beat the cumulative arm's.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.config import DEFAULT_SEED
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModel, OnlineLabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import iter_record_blobs
from repro.discriminative.logistic import (
    LogisticConfig,
    NoiseAwareLogisticRegression,
)
from repro.discriminative.metrics import binary_metrics
from repro.experiments.harness import (
    ExperimentResult,
    get_content_experiment,
)
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.streaming import (
    CheckpointedStream,
    MicroBatchPipeline,
    RecordStreamSource,
    SimulatedCrash,
)
from repro.types import Example

__all__ = [
    "run_streaming_eval",
    "run_crash_recovery",
    "run_multi_consumer_eval",
    "run_drift_eval",
    "DEFAULT_MICRO_BATCH",
]

#: Default micro-batch size: big enough that the fused executor and
#: NumPy kernels dominate dispatch, small enough that two resident
#: batches stay far below a shard's worth of records.
DEFAULT_MICRO_BATCH = 2048


def run_streaming_eval(
    scale: str | None = None,
    seed: int = DEFAULT_SEED,
    n_examples: int = 20_000,
    batch_size: int = DEFAULT_MICRO_BATCH,
    refit_every: int | None = None,
    num_shards: int = 8,
    end_model_epochs: int = 2,
) -> ExperimentResult:
    """Stream the product workload end to end; returns the comparison.

    ``refit_every`` is the online model's full-refit cadence in
    micro-batches (``None`` = one refit at stream end, the cheapest
    schedule that still yields offline-exact parameters).
    ``end_model_epochs`` is how many FTRL passes the prequential end
    model takes over each micro-batch before it is discarded.
    """
    exp = get_content_experiment("product", scale, seed)
    pool = exp.dataset.unlabeled
    n = min(n_examples, len(pool))
    lfs = exp.lfs
    featurizer = exp.featurizer

    # ------------------------------------------------------------------
    # stage the corpus once; both arms consume the same shards
    # ------------------------------------------------------------------
    dfs = DistributedFileSystem()
    shard_paths = stage_examples(
        dfs, pool[:n], "/streaming/examples", num_shards=num_shards
    )

    # ------------------------------------------------------------------
    # offline arm: decode everything, label everything, fit once
    # ------------------------------------------------------------------
    offline_start = time.perf_counter()
    offline_examples = [
        Example.from_record(record)
        for record in iter_record_blobs(dfs, shard_paths)
    ]
    L_offline = apply_lfs_in_memory(lfs, offline_examples)
    offline_wall = time.perf_counter() - offline_start
    offline_eps = n / offline_wall if offline_wall > 0 else float("inf")

    # In-memory labeling-only rate (no decode, cold token memos).
    from repro.experiments.perf import _clone_examples

    cloned = _clone_examples(offline_examples)
    label_only_start = time.perf_counter()
    apply_lfs_in_memory(lfs, cloned)
    label_only_wall = time.perf_counter() - label_only_start
    label_only_eps = (
        n / label_only_wall if label_only_wall > 0 else float("inf")
    )

    fit_start = time.perf_counter()
    offline_model = SamplingFreeLabelModel(LabelModelConfig(seed=seed))
    offline_model.fit(L_offline.matrix)
    offline_fit_seconds = time.perf_counter() - fit_start

    # ------------------------------------------------------------------
    # streaming labeling pass: micro-batches feed the online label model
    # (this is the throughput + equivalence arm — the work an always-on
    # labeling service performs per example)
    # ------------------------------------------------------------------
    online = OnlineLabelModel(
        OnlineLabelModelConfig(
            base=LabelModelConfig(seed=seed),
            refit_every=refit_every,
            seed=seed,
        )
    )
    pipeline = MicroBatchPipeline(
        lfs,
        batch_size=batch_size,
        max_resident_batches=2,
        on_batch=lambda _seq, _examples, votes: online.observe(votes),
        collect_votes=True,
    )
    report = pipeline.run(RecordStreamSource(dfs, shard_paths))
    final_model = online.refit()

    # ------------------------------------------------------------------
    # streaming learning pass: a fresh one-pass run where probabilistic
    # labels from the evolving online model train the FTRL end model
    # prequentially (every example seen exactly once, as it arrives)
    # ------------------------------------------------------------------
    online_preq = OnlineLabelModel(
        OnlineLabelModelConfig(
            base=LabelModelConfig(seed=seed),
            refit_every=refit_every,
            seed=seed,
        )
    )
    end_model = NoiseAwareLogisticRegression(
        featurizer.spec.dimension,
        LogisticConfig(alpha=0.2, seed=seed),
    )

    def learning_sink(
        _seq: int, examples: list[Example], votes: np.ndarray
    ) -> None:
        online_preq.observe(votes)
        # Probabilistic labels from the *current* parameter estimate
        # flow straight to the online end model; covered rows only
        # (all-abstain rows carry no signal).
        covered = np.abs(votes).sum(axis=1) > 0
        if covered.any():
            soft = online_preq.predict_proba(votes[covered])
            X = featurizer.transform(
                [e for e, keep in zip(examples, covered) if keep]
            )
            end_model.partial_fit(X, soft, epochs=end_model_epochs)

    learning_pipeline = MicroBatchPipeline(
        lfs,
        batch_size=batch_size,
        max_resident_batches=2,
        on_batch=learning_sink,
    )
    learning_report = learning_pipeline.run(
        RecordStreamSource(dfs, shard_paths)
    )

    # ------------------------------------------------------------------
    # equivalence: votes and (post-refit) probabilistic labels
    # ------------------------------------------------------------------
    L_stream = report.label_matrix
    aligned = L_offline.select_examples(L_stream.example_ids)
    votes_identical = bool(np.array_equal(L_stream.matrix, aligned.matrix))
    # The reference fit sees the stream's matrix (same rows, stream
    # order) so minibatch draws coincide; posteriors must then agree.
    reference = SamplingFreeLabelModel(LabelModelConfig(seed=seed))
    reference.fit(L_stream.matrix)
    max_proba_diff = float(
        np.max(
            np.abs(
                reference.predict_proba(L_stream.matrix)
                - final_model.predict_proba(L_stream.matrix)
            )
        )
        if L_stream.n_examples
        else 0.0
    )

    # ------------------------------------------------------------------
    # end-model quality vs the offline DryBell arm
    # ------------------------------------------------------------------
    stream_metrics = binary_metrics(
        exp.y_test, end_model.predict_proba(exp.X_test)
    )
    offline_metrics = exp.drybell_metrics
    f1_ratio = (
        stream_metrics.f1 / offline_metrics.f1
        if offline_metrics.f1 > 0
        else float("inf")
    )

    throughput_ratio = (
        report.examples_per_second / offline_eps if offline_eps > 0 else 0.0
    )
    lines = [
        "Streaming weak supervision: micro-batch pipeline vs offline batch "
        f"({n:,} examples, {len(lfs)} LFs, micro-batch {batch_size})",
        "",
        f"{'streaming labeling':<34} {report.examples_per_second:>12,.0f} examples/s",
        f"{'offline batch (decode + label)':<34} {offline_eps:>12,.0f} examples/s",
        f"{'  in-memory labeling only':<34} {label_only_eps:>12,.0f} examples/s",
        f"{'streaming / offline':<34} {throughput_ratio:>12.2f}x",
        f"{'streaming + end-model training':<34} "
        f"{learning_report.examples_per_second:>12,.0f} examples/s",
        f"{'peak resident records':<34} {report.peak_resident_records:>12,} "
        f"(bound: {report.max_resident_records:,} = 2 micro-batches)",
        f"{'backpressure waits':<34} {report.backpressure_waits:>12,}",
        f"{'mean / max batch latency':<34} "
        f"{1e3 * report.mean_batch_latency_seconds:>7.1f}ms / "
        f"{1e3 * report.max_batch_latency_seconds:.1f}ms",
        f"{'votes identical to offline':<34} {str(votes_identical):>12}",
        f"{'posterior gap after final refit':<34} {max_proba_diff:>12.2e}",
        f"{'offline label-model fit':<34} {offline_fit_seconds:>11.2f}s "
        f"(online refits: {online.refits_done}, "
        f"{online.n_patterns} vote patterns retained)",
        f"{'stream-trained end model F1':<34} {stream_metrics.f1:>12.3f} "
        f"({100 * f1_ratio:.1f}% of offline arm F1 {offline_metrics.f1:.3f})",
    ]
    rows = [
        {
            "examples": n,
            "lfs": len(lfs),
            "micro_batch": batch_size,
            "streaming_examples_per_second": report.examples_per_second,
            "offline_examples_per_second": offline_eps,
            "label_only_examples_per_second": label_only_eps,
            "learning_examples_per_second": (
                learning_report.examples_per_second
            ),
            "throughput_ratio": throughput_ratio,
            "peak_resident_records": report.peak_resident_records,
            "max_resident_records": report.max_resident_records,
            "backpressure_waits": report.backpressure_waits,
            "mean_batch_latency_seconds": report.mean_batch_latency_seconds,
            "max_batch_latency_seconds": report.max_batch_latency_seconds,
            "votes_identical": votes_identical,
            "max_proba_diff": max_proba_diff,
            "vote_patterns": online.n_patterns,
            "stream_f1": stream_metrics.f1,
            "offline_f1": offline_metrics.f1,
            "f1_ratio": f1_ratio,
        }
    ]
    return ExperimentResult("streaming_eval", "\n".join(lines), rows)


def run_multi_consumer_eval(
    scale: str | None = None,
    seed: int = DEFAULT_SEED,
    n_examples: int = 20_000,
    batch_size: int = DEFAULT_MICRO_BATCH,
    num_shards: int = 8,
    workers: int = 4,
) -> ExperimentResult:
    """Multi-consumer vs single-consumer streaming over the same shards.

    Both arms run the full labeling stream — chunked shard decode,
    micro-batch labeling, a durable :class:`VoteSink`, and an online
    label model — over identical staged shards. The single-consumer arm
    labels on the caller's thread; the multi-consumer arm fans labeling
    out to ``workers`` processes behind the same admission-controlled
    ingest, with sinks still consuming finalized batches strictly in
    order. The equivalence axes are absolute: votes, durable sink shard
    bytes, and post-refit posteriors must match exactly; throughput is
    the axis the bench gate conditions on hardware.
    """
    from repro.experiments.harness import content_lf_suite_spec
    from repro.streaming import VoteSink

    exp = get_content_experiment("product", scale, seed)
    pool = exp.dataset.unlabeled
    n = min(n_examples, len(pool))
    lfs = exp.lfs
    lf_names = [lf.name for lf in lfs]

    dfs = DistributedFileSystem()
    shard_paths = stage_examples(
        dfs, pool[:n], "/multi/examples", num_shards=num_shards
    )

    def run_arm(root: str, arm_workers: int):
        online = OnlineLabelModel(
            OnlineLabelModelConfig(base=LabelModelConfig(seed=seed), seed=seed)
        )
        pipeline = MicroBatchPipeline(
            lfs,
            batch_size=batch_size,
            # The permit pool must cover the worker fan-out or the pool
            # starves; single-consumer keeps the standard 2-batch bound.
            max_resident_batches=2 if arm_workers == 1 else arm_workers + 2,
            on_batch=lambda _seq, _examples, votes: online.observe(votes),
            sinks=[VoteSink(dfs, root, lf_names)],
            collect_votes=True,
            workers=arm_workers,
            suite_spec=(
                None
                if arm_workers == 1
                else content_lf_suite_spec("product", scale, seed)
            ),
        )
        report = pipeline.run(RecordStreamSource(dfs, shard_paths))
        return report, online

    single_report, single_online = run_arm("/multi/single", 1)
    multi_report, multi_online = run_arm("/multi/parallel", workers)

    votes_identical = bool(
        single_report.label_matrix.example_ids
        == multi_report.label_matrix.example_ids
        and np.array_equal(
            single_report.label_matrix.matrix,
            multi_report.label_matrix.matrix,
        )
    )
    single_shards = {
        path[len("/multi/single"):]: dfs.read_file(path)
        for path in dfs.list("/multi/single")
    }
    multi_shards = {
        path[len("/multi/parallel"):]: dfs.read_file(path)
        for path in dfs.list("/multi/parallel")
    }
    sinks_identical = single_shards == multi_shards

    L = single_report.label_matrix.matrix
    max_proba_diff = float(
        np.max(
            np.abs(
                single_online.refit().predict_proba(L)
                - multi_online.refit().predict_proba(L)
            )
        )
        if len(L)
        else 0.0
    )

    single_eps = single_report.examples_per_second
    multi_eps = multi_report.examples_per_second
    speedup = multi_eps / single_eps if single_eps > 0 else 0.0

    lines = [
        "Multi-consumer streaming: process-pool labeling workers vs one "
        f"consumer ({n:,} examples, {len(lfs)} LFs, micro-batch "
        f"{batch_size}, {workers} workers, {os.cpu_count()} CPUs visible)",
        "",
        f"{'single consumer':<34} {single_eps:>12,.0f} examples/s",
        f"{'multi-consumer (%d workers)' % workers:<34} "
        f"{multi_eps:>12,.0f} examples/s",
        f"{'multi / single':<34} {speedup:>12.2f}x",
        f"{'peak resident records (multi)':<34} "
        f"{multi_report.peak_resident_records:>12,} "
        f"(bound: {multi_report.max_resident_records:,})",
        f"{'votes identical':<34} {str(votes_identical):>12}",
        f"{'sink shards byte-identical':<34} {str(sinks_identical):>12}",
        f"{'posterior gap after final refit':<34} {max_proba_diff:>12.2e}",
    ]
    rows = [
        {
            "examples": n,
            "lfs": len(lfs),
            "micro_batch": batch_size,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "single_examples_per_second": single_eps,
            "multi_examples_per_second": multi_eps,
            "speedup": speedup,
            "peak_resident_records": multi_report.peak_resident_records,
            "max_resident_records": multi_report.max_resident_records,
            "backpressure_waits": multi_report.backpressure_waits,
            "votes_identical": votes_identical,
            "sinks_identical": sinks_identical,
            "max_proba_diff": max_proba_diff,
        }
    ]
    return ExperimentResult("streaming_multi_consumer", "\n".join(lines), rows)


def _draw_votes(
    rng: np.random.Generator,
    n: int,
    accuracies: np.ndarray,
    propensities: np.ndarray,
    positive_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(L, y)`` from the paper's conditionally independent model.

    Each LF fires with its propensity and, conditioned on firing, votes
    correctly with its accuracy — the exact generative process the
    label model assumes, so arm comparisons have a well-defined truth.
    """
    y = np.where(rng.random(n) < positive_rate, 1, -1).astype(np.int8)
    L = np.zeros((n, len(accuracies)), dtype=np.int8)
    for j, (acc, prop) in enumerate(zip(accuracies, propensities)):
        fires = rng.random(n) < prop
        correct = rng.random(n) < acc
        L[fires, j] = np.where(correct[fires], y[fires], -y[fires])
    return L, y


def run_drift_eval(
    scale: str | None = None,
    seed: int = DEFAULT_SEED,
    n_batches: int = 60,
    batch_size: int = 512,
    shift_after: int = 30,
    decay: float = 0.92,
    refit_every: int = 10,
    refit_steps: int = 400,
    reference_batches: int = 8,
    recent_batches: int = 4,
    threshold: float = 6.0,
    n_eval: int = 4096,
) -> ExperimentResult:
    """Injected-shift vs stationary streams: detection + adaptation.

    Two vote streams drawn from the paper's generative model:

    * a **drifted** stream whose parameters swap at batch
      ``shift_after`` — two LFs flip polarity (accuracy ``a -> 1-a``),
      one degrades to coin-flipping, and the class balance moves from
      0.5 to 0.3 — fed to three consumers: a *cumulative*
      :class:`OnlineLabelModel` (periodic refits over all of history),
      a *decayed* one (same cadence, exponential recency weighting),
      and a :class:`~repro.core.drift.DriftMonitor` wired to force an
      early refit of the decayed model and re-baseline its reference
      window on alarm;
    * a **stationary control** of the same length and parameters (no
      shift), fed to an identically configured monitor — any alarm here
      is a false alarm.

    Both label-model arms also train a prequential FTRL end model on
    their own probabilistic labels (votes as features, every covered
    example seen once). After the stream, both arms take a final refit
    and are scored on a held-out *post-shift* sample: label-model
    prediction accuracy and end-model accuracy/F1 against the known
    synthetic labels. ``benchmarks/bench_streaming.py`` gates the
    detection delay, the stationary false-alarm count, and the
    decayed-beats-cumulative comparison.

    ``scale`` is accepted for bench-harness uniformity; the streams are
    synthetic, so it only annotates the result rows.
    """
    from repro.core.drift import DriftMonitor, DriftPolicy

    pre_acc = np.array([0.88, 0.85, 0.82, 0.80, 0.75, 0.72, 0.70, 0.68])
    pre_prop = np.array([0.55, 0.50, 0.60, 0.45, 0.50, 0.40, 0.55, 0.50])
    pre_rate = 0.5
    # The injected shift: LFs 0/1 flip polarity, LF 2 rots to a coin
    # flip, and positives thin out — the compound failure mode the
    # Section 3.3 diagnostics exist for.
    post_acc = pre_acc.copy()
    post_acc[0] = 1.0 - pre_acc[0]
    post_acc[1] = 1.0 - pre_acc[1]
    post_acc[2] = 0.5
    post_prop = pre_prop
    post_rate = 0.3
    m = len(pre_acc)

    def make_arm(arm_decay: float | None) -> OnlineLabelModel:
        return OnlineLabelModel(
            OnlineLabelModelConfig(
                base=LabelModelConfig(n_steps=refit_steps, seed=seed),
                steps_per_batch=4,
                refit_every=refit_every,
                seed=seed,
                decay=arm_decay,
            )
        )

    cumulative = make_arm(None)
    decayed = make_arm(decay)
    policy = DriftPolicy(
        reference_batches=reference_batches,
        recent_batches=recent_batches,
        threshold=threshold,
        reactions=("log", "refit", "reset_reference"),
    )
    monitor = DriftMonitor(policy, refit_callback=decayed.refit)
    stationary_monitor = DriftMonitor(
        policy, refit_callback=lambda: None
    )

    end_models = {
        "cumulative": NoiseAwareLogisticRegression(
            m, LogisticConfig(alpha=0.2, seed=seed)
        ),
        "decayed": NoiseAwareLogisticRegression(
            m, LogisticConfig(alpha=0.2, seed=seed)
        ),
    }

    def train_end_model(name: str, arm: OnlineLabelModel, votes) -> None:
        # Prequential: probabilistic labels from the arm's *current*
        # estimate train its end model on the votes themselves as
        # features; covered rows only (all-abstain rows carry nothing).
        if arm.model.alpha is None:
            return
        covered = np.abs(votes).sum(axis=1) > 0
        if covered.any():
            soft = arm.predict_proba(votes[covered])
            end_models[name].partial_fit(
                votes[covered].astype(np.float64), soft, epochs=1
            )

    drift_rng = np.random.default_rng(seed)
    stationary_rng = np.random.default_rng(seed + 1)
    wall_start = time.perf_counter()
    for batch_index in range(n_batches):
        shifted = batch_index >= shift_after
        votes, _ = _draw_votes(
            drift_rng,
            batch_size,
            post_acc if shifted else pre_acc,
            post_prop if shifted else pre_prop,
            post_rate if shifted else pre_rate,
        )
        cumulative.observe(votes)
        decayed.observe(votes)
        monitor.observe_batch(votes)
        train_end_model("cumulative", cumulative, votes)
        train_end_model("decayed", decayed, votes)
        stationary_votes, _ = _draw_votes(
            stationary_rng, batch_size, pre_acc, pre_prop, pre_rate
        )
        stationary_monitor.observe_batch(stationary_votes)
    final_cumulative = cumulative.refit()
    final_decayed = decayed.refit()
    wall = time.perf_counter() - wall_start

    # Held-out post-shift evaluation against the known synthetic labels.
    eval_rng = np.random.default_rng(seed + 2)
    L_eval, y_eval = _draw_votes(
        eval_rng, n_eval, post_acc, post_prop, post_rate
    )
    covered_eval = np.abs(L_eval).sum(axis=1) > 0
    L_cov, y_cov = L_eval[covered_eval], y_eval[covered_eval]

    def label_accuracy(model: SamplingFreeLabelModel) -> float:
        return float(np.mean(model.predict(L_cov) == y_cov))

    def end_metrics(name: str) -> tuple:
        proba = end_models[name].predict_proba(L_cov.astype(np.float64))
        met = binary_metrics(y_cov, proba)
        total = (
            met.true_positives
            + met.false_positives
            + met.false_negatives
            + met.true_negatives
        )
        accuracy = (
            (met.true_positives + met.true_negatives) / total if total else 0.0
        )
        return met, accuracy

    cumulative_acc = label_accuracy(final_cumulative)
    decayed_acc = label_accuracy(final_decayed)
    cumulative_end, cumulative_end_acc = end_metrics("cumulative")
    decayed_end, decayed_end_acc = end_metrics("decayed")

    first_alarm = monitor.first_alarm_batch
    alarm_fired = first_alarm is not None and first_alarm >= shift_after
    detection_delay = (
        first_alarm - shift_after + 1 if alarm_fired else None
    )

    lines = [
        "Drift-aware streaming: injected mid-stream shift vs stationary "
        f"control ({n_batches} micro-batches x {batch_size}, {m} LFs, "
        f"shift after batch {shift_after}, decay {decay})",
        "",
        f"{'alarm fired at batch':<36} {str(first_alarm):>12} "
        f"(shift at {shift_after}; threshold {threshold})",
        f"{'detection delay':<36} {str(detection_delay):>12} micro-batches",
        f"{'drift-stream alarms / checks':<36} "
        f"{monitor.alarms:>5} / {monitor.checks_run}",
        f"{'forced early refits':<36} {monitor.forced_refits:>12}",
        f"{'stationary false alarms':<36} "
        f"{stationary_monitor.alarms:>12} (of {stationary_monitor.checks_run} checks)",
        f"{'post-shift label accuracy':<36} "
        f"decayed {decayed_acc:.3f} vs cumulative {cumulative_acc:.3f}",
        f"{'post-shift end-model accuracy':<36} "
        f"decayed {decayed_end_acc:.3f} vs cumulative "
        f"{cumulative_end_acc:.3f}",
        f"{'post-shift end-model F1':<36} "
        f"decayed {decayed_end.f1:.3f} vs cumulative {cumulative_end.f1:.3f}",
        f"{'patterns retained':<36} "
        f"decayed {decayed.n_patterns:,} vs cumulative "
        f"{cumulative.n_patterns:,}",
        f"{'stream wall time':<36} {wall:>11.2f}s",
    ]
    rows = [
        {
            "examples": n_batches * batch_size,
            "lfs": m,
            "micro_batch": batch_size,
            "n_batches": n_batches,
            "shift_after_batch": shift_after,
            "decay": decay,
            "threshold": threshold,
            "reference_batches": reference_batches,
            "recent_batches": recent_batches,
            "first_alarm_batch": first_alarm,
            "alarm_fired": alarm_fired,
            "detection_delay_batches": detection_delay,
            "drift_alarms": monitor.alarms,
            "drift_checks": monitor.checks_run,
            "forced_refits": monitor.forced_refits,
            "reference_resets": monitor.reference_resets,
            "stationary_alarms": stationary_monitor.alarms,
            "stationary_checks": stationary_monitor.checks_run,
            "cumulative_post_shift_accuracy": cumulative_acc,
            "decayed_post_shift_accuracy": decayed_acc,
            "cumulative_end_accuracy": cumulative_end_acc,
            "decayed_end_accuracy": decayed_end_acc,
            "cumulative_end_f1": cumulative_end.f1,
            "decayed_end_f1": decayed_end.f1,
            "decayed_patterns": decayed.n_patterns,
            "cumulative_patterns": cumulative.n_patterns,
            "wall_seconds": wall,
        }
    ]
    return ExperimentResult("streaming_drift", "\n".join(lines), rows)


def run_crash_recovery(
    scale: str | None = None,
    seed: int = DEFAULT_SEED,
    n_examples: int = 20_000,
    batch_size: int = DEFAULT_MICRO_BATCH,
    num_shards: int = 8,
    checkpoint_every: int = 2,
    crash_after_fraction: float = 0.45,
) -> ExperimentResult:
    """Durable streaming: sink overhead + crash-resume equivalence.

    Three arms over the same staged shards:

    * **offline** — decode + label everything in one batch (the
      throughput reference, as in :func:`run_streaming_eval`);
    * **checkpointed** — the full durable pipeline: vote + label sinks,
      a checkpoint manifest every ``checkpoint_every`` batches; timed,
      because persistence is only a production path if its overhead is
      bounded;
    * **crash + resume** — the same durable pipeline killed after the
      batch at ``crash_after_fraction`` of the stream, then resumed from
      the manifest. Every byte under the recovery root (vote shards,
      label shards, checkpoint manifests) must equal the uninterrupted
      arm's, and the final refit posteriors must agree to <= 1e-6
      (bitwise in practice).
    """
    exp = get_content_experiment("product", scale, seed)
    pool = exp.dataset.unlabeled
    n = min(n_examples, len(pool))
    lfs = exp.lfs

    dfs = DistributedFileSystem()
    shard_paths = stage_examples(
        dfs, pool[:n], "/recovery/examples", num_shards=num_shards
    )

    # ------------------------------------------------------------------
    # offline reference: decode + label, no persistence
    # ------------------------------------------------------------------
    offline_start = time.perf_counter()
    offline_examples = [
        Example.from_record(record)
        for record in iter_record_blobs(dfs, shard_paths)
    ]
    apply_lfs_in_memory(lfs, offline_examples)
    offline_wall = time.perf_counter() - offline_start
    offline_eps = n / offline_wall if offline_wall > 0 else float("inf")

    online_config = OnlineLabelModelConfig(
        base=LabelModelConfig(seed=seed), seed=seed
    )

    def make_runner(root: str) -> CheckpointedStream:
        return CheckpointedStream(
            dfs,
            lfs,
            root,
            batch_size=batch_size,
            max_resident_batches=2,
            online_config=online_config,
            checkpoint_every=checkpoint_every,
        )

    # ------------------------------------------------------------------
    # uninterrupted durable run (timed: the sink-overhead arm)
    # ------------------------------------------------------------------
    uninterrupted = make_runner("/recovery/full")
    full_report = uninterrupted.run(RecordStreamSource(dfs, shard_paths))
    durable_eps = full_report.stream.examples_per_second
    throughput_ratio = durable_eps / offline_eps if offline_eps > 0 else 0.0

    # ------------------------------------------------------------------
    # crash after ~crash_after_fraction of the batches, then resume
    # ------------------------------------------------------------------
    total_batches = full_report.stream.batches
    crash_after = max(0, min(
        total_batches - 2, int(total_batches * crash_after_fraction)
    ))
    crashed = make_runner("/recovery/resumed")
    crash_seen = False
    try:
        crashed.run(
            RecordStreamSource(dfs, shard_paths),
            fail_after_batch=crash_after,
        )
    except SimulatedCrash:
        crash_seen = True
    resumed = make_runner("/recovery/resumed")
    resumed_report = resumed.run(RecordStreamSource(dfs, shard_paths))

    # ------------------------------------------------------------------
    # equivalence: every durable byte, then the final posteriors
    # ------------------------------------------------------------------
    full_files = {
        path[len("/recovery/full"):]: dfs.read_file(path)
        for path in dfs.list("/recovery/full")
    }
    resumed_files = {
        path[len("/recovery/resumed"):]: dfs.read_file(path)
        for path in dfs.list("/recovery/resumed")
    }
    shards_identical = full_files == resumed_files

    # Every retained row is one of these patterns, so the max gap over
    # patterns is the max gap over the stream.
    L = uninterrupted.online.compressed_votes().patterns
    final_full = uninterrupted.online.refit()
    final_resumed = resumed.online.refit()
    max_proba_diff = float(
        np.max(
            np.abs(
                final_full.predict_proba(L) - final_resumed.predict_proba(L)
            )
        )
        if len(L)
        else 0.0
    )

    manifest = uninterrupted.manager.latest()
    manifest_bytes = (
        dfs.size(manifest.path) if manifest is not None else 0
    )
    # Manifests hold O(patterns) label-model state: the first one (a
    # few batches in) and the last (all n examples) bracket the sweep.
    manifest_paths = uninterrupted.manager.manifest_paths()
    manifest_bytes_first = (
        dfs.size(manifest_paths[0]) if manifest_paths else 0
    )

    lines = [
        "Durable streaming: checkpointed sinks + crash-resume "
        f"({n:,} examples, {len(lfs)} LFs, micro-batch {batch_size}, "
        f"checkpoint every {checkpoint_every} batches)",
        "",
        f"{'durable streaming (sinks + ckpt)':<34} {durable_eps:>12,.0f} examples/s",
        f"{'offline batch (decode + label)':<34} {offline_eps:>12,.0f} examples/s",
        f"{'durable / offline':<34} {throughput_ratio:>12.2f}x",
        f"{'peak resident records':<34} "
        f"{full_report.stream.peak_resident_records:>12,} "
        f"(bound: {full_report.stream.max_resident_records:,})",
        f"{'vote+label shards written':<34} "
        f"{len(full_files):>12,} files",
        f"{'checkpoints written':<34} "
        f"{full_report.checkpoints_written:>12,} "
        f"(first manifest {manifest_bytes_first:,} bytes, last "
        f"{manifest_bytes:,}; {uninterrupted.online.n_patterns} patterns)",
        f"{'crash injected after batch':<34} {crash_after:>12,} "
        f"of {total_batches:,}",
        f"{'resumed from batch':<34} "
        f"{str(resumed_report.resumed_from_batch):>12} "
        f"(skipped {resumed_report.skipped_examples:,} examples via "
        f"cursor seek, re-decoded {resumed_report.replayed_examples:,}, "
        f"deleted {len(resumed_report.orphan_shards_deleted)} orphan shards)",
        f"{'resumed bytes == uninterrupted':<34} {str(shards_identical):>12}",
        f"{'posterior gap after final refit':<34} {max_proba_diff:>12.2e}",
    ]
    rows = [
        {
            "examples": n,
            "lfs": len(lfs),
            "micro_batch": batch_size,
            "checkpoint_every": checkpoint_every,
            "durable_examples_per_second": durable_eps,
            "offline_examples_per_second": offline_eps,
            "throughput_ratio": throughput_ratio,
            "peak_resident_records": full_report.stream.peak_resident_records,
            "max_resident_records": full_report.stream.max_resident_records,
            "checkpoints_written": full_report.checkpoints_written,
            "manifest_bytes": manifest_bytes,
            "manifest_bytes_first": manifest_bytes_first,
            "patterns": uninterrupted.online.n_patterns,
            "crash_after_batch": crash_after,
            "crash_seen": crash_seen,
            "resumed_from_batch": resumed_report.resumed_from_batch,
            "skipped_examples": resumed_report.skipped_examples,
            "replayed_examples": resumed_report.replayed_examples,
            "orphan_shards_deleted": len(
                resumed_report.orphan_shards_deleted
            ),
            "shards_identical": shards_identical,
            "max_proba_diff": max_proba_diff,
            "manifest": None
            if manifest is None
            else {
                "path": manifest.path,
                "batch": manifest.batch,
                "cursor": manifest.cursor,
                "meta": manifest.meta,
                "bytes": manifest_bytes,
            },
        }
    ]
    return ExperimentResult("streaming_recovery", "\n".join(lines), rows)
