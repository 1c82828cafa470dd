"""Streaming subsystem benchmark + regression gates.

Runs :func:`repro.experiments.streaming_eval.run_streaming_eval` — the
micro-batch pipeline over staged DFS record shards, online label model,
and prequential FTRL end model — and enforces the subsystem's contract:

* **throughput**: streaming labeling sustains >= ``THROUGHPUT_FLOOR`` x
  the offline batched path (decode + label over the same shards) at the
  full n >= 20k regime (below it, hosted-runner smoke runs only require
  loose parity);
* **bounded memory**: peak resident records never exceed 2 micro-batches
  (measured by the pipeline's gauge, not assumed);
* **equivalence**: streamed votes are identical to the offline applier
  and the online model's post-refit posteriors match an offline fit to
  <= 1e-6;
* **durability** (:func:`run_crash_recovery`): with vote/label sinks and
  checkpoint manifests enabled, throughput stays >= 0.4x offline at full
  scale, a stream killed mid-run resumes from the manifest to
  byte-identical shards and <= 1e-6 posteriors, and the last manifest
  is <= ``MANIFEST_GROWTH_CEILING`` x the first (O(patterns) state);
* **drift** (:func:`run_drift_eval`): an injected mid-stream shift must
  raise a drift alarm within ``DRIFT_DETECTION_K`` micro-batches, the
  stationary control must never alarm, and the decay-mode online model
  must beat the cumulative one on post-shift label and end-model
  accuracy (enforced at every scale — the streams are synthetic).

Rows land in ``BENCH_perf.json`` (latest snapshot), are appended to
``BENCH_history.jsonl``, and the trailing-median trend check flags >20%
throughput regressions that a hard floor would miss. The trend check
warns by default and fails the run when ``REPRO_ENFORCE_TREND=1``
(dedicated hardware; hosted CI runners are too noisy to enforce).

Environment knobs: ``REPRO_SCALE`` (dataset scale) and ``REPRO_BENCH_N``
(example count; CI smoke uses a small value).
"""

import json
import os

from repro.experiments import perf
from repro.experiments.streaming_eval import (
    run_crash_recovery,
    run_drift_eval,
    run_multi_consumer_eval,
    run_streaming_eval,
)
from repro.parallel import default_workers

from benchmarks.conftest import emit

#: Example count for the streaming-vs-offline comparison.
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "20000"))

#: Minimum streaming/offline throughput ratio enforced at full scale.
THROUGHPUT_FLOOR = 0.5

#: Worker count for the multi-consumer gate (``REPRO_WORKERS`` overrides;
#: clamped to >= 2 — a one-worker "multi-consumer" arm is the single
#: consumer compared against itself).
WORKERS = max(2, default_workers(4))

#: Minimum multi-consumer/single-consumer speedup; binds only at
#: n >= 20k on machines exposing at least ``WORKERS`` CPUs (equivalence
#: is asserted everywhere, like the other streaming gates).
MULTI_CONSUMER_FLOOR = 1.5

#: Minimum durable-streaming/offline ratio (vote + label sinks and
#: checkpoint manifests enabled) enforced at full scale.
DURABLE_THROUGHPUT_FLOOR = 0.4

#: Posterior agreement required after the online model's final refit.
PROBA_TOLERANCE = 1e-6

#: Maximum last/first checkpoint-manifest size ratio over a durable
#: stream: manifests hold O(patterns) state, so stream length must not
#: show (enforced at every scale).
MANIFEST_GROWTH_CEILING = 1.25

#: Maximum micro-batches between an injected distribution shift and the
#: drift monitor's first alarm (the eval's recent window is 4 batches,
#: so the statistic is fully post-shift within 4; 6 leaves headroom
#: without letting detection quietly degrade).
DRIFT_DETECTION_K = 6


def _trend_gate(section: str, metric: str, match: dict) -> None:
    """Warn on trend regressions; fail only when explicitly enforced.

    ``match`` pins the comparison to same-configuration history rows so
    smoke runs (small N) and full runs never share a trend line.
    """
    flag = perf.check_history_trend(section, metric, match=match)
    if flag is None:
        return
    message = (
        f"TREND REGRESSION: {section}.{metric} = {flag['latest']:.1f} is "
        f"{100 * (1 - flag['ratio']):.0f}% below the trailing median "
        f"{flag['trailing_median']:.1f} (window {flag['window']})"
    )
    print(f"[{message}]")
    if os.environ.get("REPRO_ENFORCE_TREND") == "1":
        raise AssertionError(message)


def test_streaming_vs_offline(benchmark, scale):
    """The streaming gate: throughput, bounded memory, equivalence."""
    result = benchmark.pedantic(
        lambda: run_streaming_eval(scale=scale, n_examples=BENCH_N),
        rounds=1,
        iterations=1,
    )
    emit(result)
    row = result.rows[0]
    perf.update_bench_json("streaming", {"scale": scale, **row})
    perf.append_bench_history("streaming", {"scale": scale, **row})
    _trend_gate(
        "streaming",
        "streaming_examples_per_second",
        {"scale": scale, "examples": row["examples"]},
    )

    # Equivalence and the memory bound hold at every scale.
    assert row["votes_identical"], (
        "streamed votes diverged from the offline applier"
    )
    assert row["max_proba_diff"] <= PROBA_TOLERANCE, (
        f"online label model off by {row['max_proba_diff']:.2e} after "
        f"final refit (tolerance {PROBA_TOLERANCE:.0e})"
    )
    assert row["peak_resident_records"] <= row["max_resident_records"], (
        f"pipeline held {row['peak_resident_records']} records, over the "
        f"2-micro-batch bound of {row['max_resident_records']}"
    )

    if row["examples"] >= 20_000:
        assert row["throughput_ratio"] >= THROUGHPUT_FLOOR, (
            f"streaming regressed: {row['throughput_ratio']:.2f}x < "
            f"{THROUGHPUT_FLOOR}x offline at n={row['examples']}"
        )
    else:
        # Smoke regime: scheduling overhead dominates tiny streams.
        assert row["throughput_ratio"] > 0.15
    # The learning pass trains a real model; it must at least keep up
    # with a meaningful fraction of the labeling-only stream.
    assert row["learning_examples_per_second"] > 0
    assert 0.0 <= row["stream_f1"] <= 1.0


def test_multi_consumer_vs_single(benchmark, scale):
    """The multi-consumer gate: N labeling workers, identical bytes.

    Votes, durable sink shards, and posteriors must match the
    single-consumer arm exactly at every scale and worker count; the
    1.5x speedup floor binds only where the hardware can deliver it.
    """
    result = benchmark.pedantic(
        lambda: run_multi_consumer_eval(
            scale=scale, n_examples=BENCH_N, workers=WORKERS
        ),
        rounds=1,
        iterations=1,
    )
    emit(result)
    row = result.rows[0]
    perf.update_bench_json(
        "streaming_multi_consumer", {"scale": scale, **row}
    )
    perf.append_bench_history(
        "streaming_multi_consumer", {"scale": scale, **row}
    )
    _trend_gate(
        "streaming_multi_consumer",
        "multi_examples_per_second",
        {
            "scale": scale,
            "examples": row["examples"],
            "workers": row["workers"],
        },
    )

    # Equivalence and the residency bound hold at every scale.
    assert row["votes_identical"], (
        "multi-consumer votes diverged from the single-consumer arm"
    )
    assert row["sinks_identical"], (
        "multi-consumer sink shards diverged from the single-consumer arm"
    )
    assert row["max_proba_diff"] <= PROBA_TOLERANCE, (
        f"multi-consumer posteriors off by {row['max_proba_diff']:.2e} "
        f"(tolerance {PROBA_TOLERANCE:.0e})"
    )
    assert row["peak_resident_records"] <= row["max_resident_records"], (
        f"multi-consumer pipeline held {row['peak_resident_records']} "
        f"records, over the bound of {row['max_resident_records']}"
    )

    cpus = os.cpu_count() or 1
    if row["examples"] >= 20_000 and cpus >= row["workers"]:
        assert row["speedup"] >= MULTI_CONSUMER_FLOOR, (
            f"multi-consumer streaming regressed: {row['speedup']:.2f}x < "
            f"{MULTI_CONSUMER_FLOOR}x single-consumer with "
            f"{row['workers']} workers at n={row['examples']}"
        )
    else:
        # Smoke regime: fewer CPUs than workers (or a tiny stream) means
        # the pool pays the full codec + IPC tax with zero parallel
        # compute; only sanity is required (matching the other streaming
        # smoke floors).
        print(
            f"[multi-consumer floor not binding: n={row['examples']}, "
            f"{cpus} CPUs for {row['workers']} workers — "
            f"measured {row['speedup']:.2f}x]"
        )
        assert row["speedup"] > 0.1


def test_drift_detection(benchmark, scale):
    """The drift gate: fast detection, no false alarms, real adaptation.

    Runs the synthetic injected-shift eval and enforces the drift
    subsystem's contract at every scale (the streams are synthetic and
    seeded, so there is no smoke regime):

    * the alarm fires within ``DRIFT_DETECTION_K`` micro-batches of the
      injected shift — and not before it;
    * the identically configured monitor on the stationary control
      stream never alarms;
    * the decayed arm's post-shift label accuracy AND post-shift
      end-model accuracy beat the cumulative arm's — forgetting stale
      traffic must pay for itself downstream, not just in the detector.
    """
    result = benchmark.pedantic(
        lambda: run_drift_eval(scale=scale),
        rounds=1,
        iterations=1,
    )
    emit(result)
    row = result.rows[0]
    perf.update_bench_json("streaming_drift", {"scale": scale, **row})
    perf.append_bench_history("streaming_drift", {"scale": scale, **row})

    assert row["stationary_alarms"] == 0, (
        f"{row['stationary_alarms']} false alarms on the stationary "
        f"control stream (of {row['stationary_checks']} checks)"
    )
    assert row["alarm_fired"], (
        "the injected shift never raised a drift alarm (or an alarm "
        "fired before the shift): first alarm at "
        f"{row['first_alarm_batch']}, shift at {row['shift_after_batch']}"
    )
    assert row["detection_delay_batches"] <= DRIFT_DETECTION_K, (
        f"drift detected {row['detection_delay_batches']} micro-batches "
        f"after the shift, over the K={DRIFT_DETECTION_K} bound"
    )
    assert row["forced_refits"] >= 1, (
        "the alarm fired but never forced an early refit"
    )
    assert (
        row["decayed_post_shift_accuracy"]
        > row["cumulative_post_shift_accuracy"]
    ), (
        "decayed refit did not beat cumulative post-shift label accuracy: "
        f"{row['decayed_post_shift_accuracy']:.3f} vs "
        f"{row['cumulative_post_shift_accuracy']:.3f}"
    )
    assert row["decayed_end_accuracy"] > row["cumulative_end_accuracy"], (
        "decayed arm did not beat cumulative post-shift end-model "
        f"accuracy: {row['decayed_end_accuracy']:.3f} vs "
        f"{row['cumulative_end_accuracy']:.3f}"
    )


def test_checkpointed_crash_recovery(benchmark, scale):
    """The durability gate: sink overhead, crash-resume byte-identity."""
    result = benchmark.pedantic(
        lambda: run_crash_recovery(scale=scale, n_examples=BENCH_N),
        rounds=1,
        iterations=1,
    )
    emit(result)
    row = result.rows[0]
    perf.update_bench_json("streaming_recovery", {"scale": scale, **row})
    perf.append_bench_history(
        "streaming_recovery",
        {"scale": scale, **{k: v for k, v in row.items() if k != "manifest"}},
    )
    _trend_gate(
        "streaming_recovery",
        "durable_examples_per_second",
        {"scale": scale, "examples": row["examples"]},
    )
    # Export the checkpoint manifest summary for the CI artifact.
    manifest_path = os.path.join(
        os.path.dirname(perf.bench_json_path()), "BENCH_recovery_manifest.json"
    )
    with open(manifest_path, "w") as handle:
        json.dump(
            {"scale": scale, "manifest": row["manifest"], "row": {
                k: v for k, v in row.items() if k != "manifest"
            }},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"[recovery manifest summary written: {manifest_path}]")

    # Crash-resume equivalence and the memory bound hold at every scale.
    assert row["crash_seen"], "the injected crash never fired"
    assert row["shards_identical"], (
        "resumed vote/label shards diverged from the uninterrupted run"
    )
    assert row["max_proba_diff"] <= PROBA_TOLERANCE, (
        f"resumed model off by {row['max_proba_diff']:.2e} after final "
        f"refit (tolerance {PROBA_TOLERANCE:.0e})"
    )
    assert row["peak_resident_records"] <= row["max_resident_records"], (
        f"durable pipeline held {row['peak_resident_records']} records, "
        f"over the bound of {row['max_resident_records']}"
    )
    assert row["checkpoints_written"] >= 1
    assert row["manifest"] is not None
    # Manifests carry O(patterns) state, not a per-example log: from the
    # first checkpoint to the last (n grows ~5x at full scale) the size
    # may move only by the few patterns discovered in between.
    assert row["manifest_bytes"] <= MANIFEST_GROWTH_CEILING * (
        row["manifest_bytes_first"]
    ), (
        f"checkpoint manifest grew {row['manifest_bytes_first']:,} -> "
        f"{row['manifest_bytes']:,} bytes over the stream at "
        f"{row['patterns']} patterns (ceiling {MANIFEST_GROWTH_CEILING}x)"
    )

    if row["examples"] >= 20_000:
        assert row["throughput_ratio"] >= DURABLE_THROUGHPUT_FLOOR, (
            f"durable streaming regressed: {row['throughput_ratio']:.2f}x "
            f"< {DURABLE_THROUGHPUT_FLOOR}x offline at n={row['examples']}"
        )
    else:
        # Smoke regime: scheduling + sink overhead dominates tiny streams.
        assert row["throughput_ratio"] > 0.1
