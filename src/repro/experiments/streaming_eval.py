"""Streaming weak supervision: end-model quality and drift handling.

The offline pipeline stages a corpus, labels it, fits the generative
model, then trains the discriminative model. :func:`run_streaming_eval`
runs the same workload as a *continuous* micro-batch stream:

    DFS record shards --chunked reads--> MicroBatchPipeline
        --per-batch votes--> OnlineLabelModel (a solve per batch)
        --probabilistic labels--> FTRL logistic end model (partial_fit)

and reports the **quality** of the result: test-set F1 of the
stream-trained FTRL end model relative to the offline DryBell arm
(which trains thousands of buffered FTRL iterations; the streaming
model sees every example once, as it arrives).
``benchmarks/bench_streaming.py`` gates the ratio. Stream throughput,
stream/offline vote identity and crash-resume byte identity are not
measured here: ``bench/run.py`` (``stream_durable``, ``pool_parallel``)
times the path and ``tests/test_streaming.py``,
``tests/test_parallel.py`` and ``tests/test_checkpoint.py`` own the
identities.

:func:`run_drift_eval` is the non-stationary arm: it injects a
mid-stream distribution shift (LF accuracy swaps + a class-balance
flip) into a synthetic vote stream drawn from the paper's generative
model, and compares a cumulative :class:`OnlineLabelModel` against a
decayed one, with a :class:`~repro.core.drift.DriftMonitor` on the
stream — the alarm must fire within a few micro-batches of the shift
(and never on the stationary control), and the decayed arm's post-shift
label and end-model quality must beat the cumulative arm's.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import DEFAULT_SEED
from repro.core.label_model import SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModel, OnlineLabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.discriminative.logistic import (
    LogisticConfig,
    NoiseAwareLogisticRegression,
)
from repro.discriminative.metrics import binary_metrics
from repro.experiments.harness import (
    ExperimentResult,
    get_content_experiment,
)
from repro.lf.applier import stage_examples
from repro.streaming import MicroBatchPipeline, RecordStreamSource
from repro.types import Example

__all__ = [
    "run_streaming_eval",
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
) -> ExperimentResult:
    """Train an end model prequentially off the product stream.

    One pass over ``n_examples`` staged pool examples: every micro-batch
    is folded into an :class:`OnlineLabelModel` and solved, whose
    probabilistic labels train an FTRL
    logistic model (two passes per micro-batch, then the batch is
    discarded). The row compares its test-set F1 with the offline
    DryBell arm's.

    The default ``n_examples`` is the size the bench gate is calibrated
    at (``stream_f1`` 0.60 vs 0.93 offline); a one-pass learner needs
    the examples, so a much shorter stream (0.10 at n = 4,000) is a
    different experiment, not a faster one.
    """
    exp = get_content_experiment("product", scale, seed)
    pool = exp.dataset.unlabeled
    n = min(n_examples, len(pool))
    lfs = exp.lfs
    featurizer = exp.featurizer

    dfs = DistributedFileSystem()
    shard_paths = stage_examples(
        dfs, pool[:n], "/streaming/examples", num_shards=8
    )

    online = OnlineLabelModel()
    end_model = NoiseAwareLogisticRegression(
        featurizer.spec.dimension,
        LogisticConfig(alpha=0.2, seed=seed),
    )

    def learning_sink(
        _seq: int, examples: list[Example], votes: np.ndarray
    ) -> None:
        online.observe(votes)
        # Covered rows only: all-abstain rows carry no signal.
        covered = np.abs(votes).sum(axis=1) > 0
        if covered.any():
            soft = online.predict_proba(votes[covered])
            X = featurizer.transform(
                [e for e, keep in zip(examples, covered) if keep]
            )
            end_model.partial_fit(X, soft, epochs=2)

    pipeline = MicroBatchPipeline(
        lfs,
        batch_size=batch_size,
        max_resident_batches=2,
        on_batch=learning_sink,
    )
    report = pipeline.run(RecordStreamSource(dfs, shard_paths))

    stream_metrics = binary_metrics(
        exp.y_test, end_model.predict_proba(exp.X_test)
    )
    offline_metrics = exp.drybell_metrics
    f1_ratio = (
        stream_metrics.f1 / offline_metrics.f1
        if offline_metrics.f1 > 0
        else float("inf")
    )

    lines = [
        "Streaming weak supervision: prequential end model vs offline "
        f"DryBell arm ({report.examples:,} examples, {len(lfs)} LFs, "
        f"micro-batch {batch_size})",
        "",
        f"{'stream-trained end model F1':<34} {stream_metrics.f1:>12.3f}",
        f"{'offline DryBell arm F1':<34} {offline_metrics.f1:>12.3f}",
        f"{'stream / offline':<34} {f1_ratio:>12.2f}x",
        f"{'vote patterns retained':<34} {online.n_patterns:>12,}",
    ]
    rows = [
        {
            "examples": report.examples,
            "lfs": len(lfs),
            "micro_batch": batch_size,
            "vote_patterns": online.n_patterns,
            "stream_f1": stream_metrics.f1,
            "offline_f1": offline_metrics.f1,
            "f1_ratio": f1_ratio,
        }
    ]
    return ExperimentResult("streaming_eval", "\n".join(lines), rows)


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
      :class:`OnlineLabelModel` (a solve of all of history per batch),
      a *decayed* one (a solve per batch under exponential recency
      weighting), and a :class:`~repro.core.drift.DriftMonitor` that
      re-baselines its reference window on alarm;
    * a **stationary control** of the same length and parameters (no
      shift), fed to an identically configured monitor — any alarm here
      is a false alarm.

    Both label-model arms also train a prequential FTRL end model on
    their own probabilistic labels (votes as features, every covered
    example seen once). After the stream, both arms' last solves are
    scored on a held-out *post-shift* sample: label-model
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

    cumulative = OnlineLabelModel()
    decayed = OnlineLabelModel(OnlineLabelModelConfig(decay=decay))
    policy = DriftPolicy(
        reference_batches=reference_batches,
        recent_batches=recent_batches,
        threshold=threshold,
        reactions=("log", "reset_reference"),
    )
    monitor = DriftMonitor(policy)
    stationary_monitor = DriftMonitor(policy)

    end_models = {
        "cumulative": NoiseAwareLogisticRegression(
            m, LogisticConfig(alpha=0.2, seed=seed)
        ),
        "decayed": NoiseAwareLogisticRegression(
            m, LogisticConfig(alpha=0.2, seed=seed)
        ),
    }

    def train_end_model(name: str, arm: OnlineLabelModel, votes) -> None:
        # Prequential: probabilistic labels from the arm's solve of
        # this batch train its end model on the votes themselves as features;
        # covered rows only (all-abstain rows carry nothing).
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
    final_cumulative = cumulative.model
    final_decayed = decayed.model
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
