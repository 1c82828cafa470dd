"""Section 5.2 speed comparison and Section 1 scale extrapolation.

Speed: "in our product classification application, in which there are
ten labeling functions, the optimizer takes an average > 100 steps per
second with a batch size of 64. With ten labeling functions and a batch
size of 64, a Gibbs sampler averages < 50 examples per second, so
Snorkel DryBell provides a 2x speedup."

(Note the paper compares optimizer *steps*/s against Gibbs *examples*/s
at the same batch size — a step consumes one 64-example batch, so the
comparable rate is steps/s * 64 vs examples/s; we report both.)

Scale: "implementing weak supervision over 6M+ data points with
sub-30min execution time". We measure this implementation's end-to-end
labeling + modeling throughput on the simulated MapReduce substrate and
extrapolate to 6.5M examples, reporting the implied node count needed to
stay under 30 minutes.

Batch engine: :func:`run_batch_throughput` compares the vectorized
in-memory labeling path against the per-example baseline on identical
example pools (votes asserted identical) and times the label-model fit.
All perf experiments contribute their rows to a machine-readable
``BENCH_perf.json`` at the repository root via :func:`update_bench_json`,
which CI uploads as an artifact so the performance trajectory is tracked
per commit.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.config import DEFAULT_SEED
from repro.core.gibbs import GibbsConfig, GibbsLabelModel
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.patterns import compress_votes
from repro.experiments.harness import (
    ExperimentResult,
    get_content_experiment,
    results_path,
)
from repro.lf.applier import LFApplier, apply_lfs_in_memory, stage_examples
from repro.dfs.filesystem import DistributedFileSystem
from repro.types import Example

__all__ = [
    "run_speed",
    "run_scale",
    "run_batch_throughput",
    "run_fit_compression_eval",
    "measure_label_model_steps_per_second",
    "bench_json_path",
    "update_bench_json",
    "bench_history_path",
    "append_bench_history",
    "check_history_trend",
]


def bench_json_path() -> str:
    """``BENCH_perf.json`` at the repository root."""
    return os.path.join(os.path.dirname(results_path()), "BENCH_perf.json")


def update_bench_json(section: str, payload: dict, path: str | None = None) -> str:
    """Merge one experiment's rows into ``BENCH_perf.json``.

    Each perf benchmark owns a section; read-modify-write keeps the file
    a single machine-readable snapshot regardless of which benchmarks
    ran. Returns the path written.
    """
    path = path or bench_json_path()
    data: dict = {"schema": 1}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            data = {"schema": 1}
    data[section] = payload
    data["python"] = platform.python_version()
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def bench_history_path() -> str:
    """``BENCH_history.jsonl`` at the repository root."""
    return os.path.join(os.path.dirname(results_path()), "BENCH_history.jsonl")


def append_bench_history(
    section: str, payload: dict, path: str | None = None
) -> str:
    """Append one benchmark row to the append-only history log.

    ``BENCH_perf.json`` is a latest-snapshot; the JSONL history keeps
    every run so the trend gate can flag *gradual* regressions that
    never trip a hard floor in any single run. One line per (run,
    section), stamped with wall-clock time and the Python version.
    Returns the path written.
    """
    path = path or bench_history_path()
    entry = {
        "section": section,
        "recorded_unix": round(time.time(), 3),
        "python": platform.python_version(),
        **payload,
    }
    with open(path, "a") as handle:
        json.dump(entry, handle, sort_keys=True)
        handle.write("\n")
    return path


#: History fields that define a benchmark *configuration*. Entries whose
#: values differ on any of these never share a trend window: comparing a
#: ``REPRO_BENCH_N=4000`` smoke run against 20k-example history (or a
#: ``REPRO_SCALE`` / ``REPRO_WORKERS`` change) flags spurious >20%
#: "regressions" that are really workload changes.
TREND_CONFIG_KEYS = ("scale", "examples", "workers")


def check_history_trend(
    section: str,
    metric: str,
    higher_is_better: bool = True,
    window: int = 10,
    tolerance: float = 0.20,
    min_history: int = 3,
    path: str | None = None,
    match: dict | None = None,
    config_keys: tuple[str, ...] = TREND_CONFIG_KEYS,
) -> dict | None:
    """Compare the latest history entry against its trailing median.

    Reads the last ``window`` prior entries for ``(section, metric)``
    and flags the newest one when it regresses more than ``tolerance``
    (default 20%) from their median — the complement of the hard
    speedup floors, which only catch cliff-edge regressions.

    The window is keyed strictly per configuration: prior entries only
    join the trend line when their ``config_keys`` fields
    (scale / example count by default) equal the newest entry's, so a
    history that spans a ``REPRO_BENCH_N`` or ``REPRO_SCALE`` change
    never mixes configurations even when the caller passes no explicit
    ``match``. ``match`` additionally restricts the series to entries
    whose fields equal the given values. Returns a diagnostic dict when
    flagged, ``None`` when healthy or when fewer than ``min_history``
    prior same-configuration runs exist (fresh checkouts and CI machines
    with no baseline stay green).
    """
    path = path or bench_history_path()
    if not os.path.exists(path):
        return None
    entries: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if entry.get("section") != section or metric not in entry:
                continue
            if match and any(
                entry.get(key) != value for key, value in match.items()
            ):
                continue
            entries.append(entry)
    if not entries:
        return None
    # Key the window per configuration: the newest entry defines the
    # configuration under test; history rows recorded under any other
    # configuration are a different workload, not a different speed.
    config = {
        key: entries[-1].get(key)
        for key in config_keys
        if key in entries[-1]
    }
    values = [
        float(entry[metric])
        for entry in entries
        if all(entry.get(key) == value for key, value in config.items())
    ]
    if len(values) < min_history + 1:
        return None
    latest = values[-1]
    trailing = values[-(window + 1):-1]
    median = float(np.median(trailing))
    if median <= 0:
        return None
    ratio = latest / median
    regressed = ratio < (1.0 - tolerance) if higher_is_better else (
        ratio > (1.0 + tolerance)
    )
    if not regressed:
        return None
    return {
        "section": section,
        "metric": metric,
        "latest": latest,
        "trailing_median": median,
        "ratio": ratio,
        "window": len(trailing),
        "tolerance": tolerance,
        "config": config,
    }


def measure_label_model_steps_per_second(
    L: np.ndarray,
    batch_size: int = 64,
    budget_seconds: float = 1.0,
    seed: int = 0,
) -> float:
    """Gradient steps per second of the sampling-free trainer."""
    model = SamplingFreeLabelModel(
        LabelModelConfig(batch_size=batch_size, optimizer="sgd", seed=seed)
    )
    model.init_params(L.shape[1])
    rng = np.random.default_rng(seed)
    steps = 0
    start = time.perf_counter()
    while time.perf_counter() - start < budget_seconds:
        idx = rng.integers(0, len(L), size=batch_size)
        model.partial_step(L[idx])
        steps += 1
    return steps / (time.perf_counter() - start)


def run_speed(scale: str | None = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """The Section 5.2 sampling-free vs Gibbs comparison."""
    exp = get_content_experiment("product", scale, seed)
    L = exp.L_unlabeled.matrix.astype(np.float64)

    steps_per_s = measure_label_model_steps_per_second(L, budget_seconds=1.5)
    gibbs = GibbsLabelModel(GibbsConfig(batch_size=64, seed=seed))
    gibbs_examples_per_s = gibbs.benchmark_examples_per_second(
        L, budget_seconds=1.5
    )
    sampling_free_examples_per_s = steps_per_s * 64
    speedup = sampling_free_examples_per_s / max(gibbs_examples_per_s, 1e-9)

    lines = [
        "Section 5.2: sampling-free vs Gibbs (product app LF matrix, batch 64)",
        "",
        f"{'sampling-free optimizer':<32} {steps_per_s:>10.1f} steps/s "
        f"(paper: >100)",
        f"{'  = examples consumed':<32} {sampling_free_examples_per_s:>10.1f} examples/s",
        f"{'Gibbs sampler':<32} {gibbs_examples_per_s:>10.1f} examples/s "
        f"(paper: <50)",
        f"{'speedup (examples/s ratio)':<32} {speedup:>10.1f}x (paper: ~2x; "
        f"ours is larger because the Gibbs inner loop is pure Python)",
    ]
    rows = [
        {
            "steps_per_second": steps_per_s,
            "gibbs_examples_per_second": gibbs_examples_per_s,
            "speedup": speedup,
        }
    ]
    return ExperimentResult("perf_label_model", "\n".join(lines), rows)


def run_scale(scale: str | None = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """The Section 1 scale claim: 6M+ points in under 30 minutes."""
    exp = get_content_experiment("product", scale, seed)
    examples = exp.dataset.unlabeled[:4000]
    lfs = exp.lfs

    dfs = DistributedFileSystem()
    paths = stage_examples(dfs, examples, "/perf/examples", num_shards=8)
    applier = LFApplier(dfs, paths, run_root="/perf/run", parallelism=4)
    start = time.perf_counter()
    report = applier.apply(lfs)
    labeling_wall = time.perf_counter() - start

    start = time.perf_counter()
    model = SamplingFreeLabelModel(LabelModelConfig(seed=seed))
    model.fit(report.label_matrix.matrix)
    modeling_wall = time.perf_counter() - start

    per_example = labeling_wall / len(examples)
    target = 6_500_000
    single_node_minutes = per_example * target / 60
    nodes_for_30min = max(1, int(np.ceil(single_node_minutes / 30)))

    lines = [
        "Section 1 scale: end-to-end labeling throughput (MapReduce substrate)",
        "",
        f"{'examples labeled':<36} {len(examples):>12,}",
        f"{'labeling functions':<36} {len(lfs):>12}",
        f"{'labeling wall time':<36} {labeling_wall:>11.1f}s "
        f"({report.examples_per_second:,.0f} examples/s)",
        f"{'generative model training':<36} {modeling_wall:>11.1f}s",
        f"{'extrapolated 6.5M single-node':<36} {single_node_minutes:>10.1f}min",
        f"{'nodes needed for sub-30min':<36} {nodes_for_30min:>12,} "
        f"(paper: 6M+ in <30min on Google's cluster)",
    ]
    rows = [
        {
            "examples": len(examples),
            "labeling_wall_seconds": labeling_wall,
            "modeling_wall_seconds": modeling_wall,
            "examples_per_second": report.examples_per_second,
            "nodes_for_30min_at_6_5m": nodes_for_30min,
        }
    ]
    return ExperimentResult("perf_scale", "\n".join(lines), rows)


def run_fit_compression_eval(
    reference_fit,
    n_values: tuple[int, ...] = (2_000, 8_000, 30_720),
    n_patterns: int = 200,
    n_lfs: int = 12,
    n_steps: int = 120,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Refit latency: label-model fitting must be flat in ``n``.

    Draws every matrix from one fixed pool of ``n_patterns`` distinct
    vote rows so the pattern count stays constant while ``n`` grows,
    then times a full-batch ``fit`` (``batch_size >= n``, so each step
    covers every row) and checks it against a row-wise oracle:
    posteriors agree to <= 1e-9 at every size. The one-time dedup is
    O(n log n); what must stay flat is the *per-step* cost — that
    flatness ratio is what the ``label_model_fit`` bench row gates.

    Args:
        reference_fit: The oracle — a row-wise trainer
            ``(L, config) -> fitted`` whose result exposes
            ``predict_proba`` and that shares no code with the model's
            gradient kernel (``tests/test_fit_equivalence.py`` owns
            one).

    Raises:
        AssertionError: If fitted posteriors diverge from the oracle's
            beyond 1e-9 at any size.
    """
    rng = np.random.default_rng(seed)
    pool = rng.choice(
        np.array([-1, 0, 0, 1]), size=(n_patterns, n_lfs)
    ).astype(np.int8)
    config = LabelModelConfig(
        n_steps=n_steps,
        batch_size=max(n_values) + 1,
        optimizer="sgd",
        learning_rate=0.0005,
        seed=seed,
    )

    rows = []
    for n in n_values:
        L = pool[rng.integers(0, n_patterns, size=n)]
        # Time the two halves of fit() separately: the dedup runs once,
        # the steps are what a longer stream must not slow down.
        start = time.perf_counter()
        votes = compress_votes(L)
        compress_wall = time.perf_counter() - start
        model = SamplingFreeLabelModel(config)
        start = time.perf_counter()
        model.fit_compressed(votes)
        fit_wall = time.perf_counter() - start

        reference = reference_fit(L, config)
        diff = float(
            np.max(np.abs(reference.predict_proba(L) - model.predict_proba(L)))
        )
        if diff > 1e-9:
            raise AssertionError(
                f"fit diverged from the row-wise reference at n={n}: "
                f"max posterior diff {diff:.3e} > 1e-9"
            )
        rows.append(
            {
                "examples": n,
                "patterns": n_patterns,
                "lfs": n_lfs,
                "steps": n_steps,
                "compressed_step_ms": fit_wall / n_steps * 1e3,
                "compress_once_ms": compress_wall * 1e3,
                "steps_per_second": n_steps / max(fit_wall, 1e-12),
                "max_posterior_diff": diff,
            }
        )

    flatness = rows[-1]["compressed_step_ms"] / max(
        rows[0]["compressed_step_ms"], 1e-12
    )
    lines = [
        "Label model fitting over (patterns, counts): full-batch refit "
        f"latency ({n_patterns} patterns, {n_lfs} LFs, {n_steps} steps)",
        "",
        f"{'n':>8} {'ms/step':>10} {'dedup once ms':>14} {'max |dP|':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['examples']:>8,} {row['compressed_step_ms']:>10.3f} "
            f"{row['compress_once_ms']:>14.2f} "
            f"{row['max_posterior_diff']:>10.1e}"
        )
    lines.append(
        f"per-step growth {min(n_values):,} -> {max(n_values):,} rows: "
        f"{flatness:.2f}x (flat = independent of n)"
    )
    for row in rows:
        row["compressed_step_growth"] = flatness
    return ExperimentResult("label_model_fit", "\n".join(lines), rows)


def _clone_examples(examples) -> list[Example]:
    """Fresh Example objects so per-example token memos start cold."""
    return [
        Example(
            example_id=e.example_id,
            fields=dict(e.fields),
            servable=dict(e.servable),
            non_servable=dict(e.non_servable),
            label=e.label,
        )
        for e in examples
    ]


def run_batch_throughput(
    scale: str | None = None,
    seed: int = DEFAULT_SEED,
    n_examples: int = 20_000,
    rounds: int = 2,
    workers: int = 1,
) -> ExperimentResult:
    """Batched vs per-example in-memory labeling throughput.

    Runs the product application's LF suite over ``n_examples`` pool
    examples through both execution paths, asserts the label matrices
    are identical, and reports examples/second (best of ``rounds``, on
    freshly cloned examples each round so tokenization memos never
    carry over) plus the generative-model fit time.

    ``workers > 1`` additionally measures the process-pool parallel
    path (one warmed :class:`repro.parallel.ParallelLabelExecutor`
    reused across rounds), asserts its matrix is byte-identical to the
    serial batched run, and reports the parallel/serial speedup — the
    number the parallel bench gate enforces.
    """
    exp = get_content_experiment("product", scale, seed)
    pool = exp.dataset.unlabeled
    n = min(n_examples, len(pool))
    lfs = exp.lfs

    # Warm run-scoped state that is not what we measure: KG translation
    # closures, lazily built matchers, allocator pools.
    apply_lfs_in_memory(lfs, _clone_examples(pool[:256]), batched=True)
    apply_lfs_in_memory(lfs, _clone_examples(pool[:256]), batched=False)

    def best_rate(**kwargs) -> tuple[float, "np.ndarray"]:
        best = 0.0
        matrix = None
        for _ in range(max(1, rounds)):
            examples = _clone_examples(pool[:n])
            start = time.perf_counter()
            L = apply_lfs_in_memory(lfs, examples, **kwargs)
            wall = time.perf_counter() - start
            best = max(best, n / wall)
            matrix = L.matrix
        return best, matrix

    batched_eps, L_batched = best_rate(batched=True)
    per_example_eps, L_per = best_rate(batched=False)
    if not np.array_equal(L_batched, L_per):
        raise AssertionError(
            "batched and per-example labeling disagree; the batch engine "
            "must be vote-for-vote identical to the per-example path"
        )
    speedup = batched_eps / max(per_example_eps, 1e-9)

    parallel_eps = None
    parallel_speedup = None
    parallel_identical = None
    if workers > 1:
        from repro.experiments.harness import content_lf_suite_spec
        from repro.parallel import ParallelLabelExecutor

        spec = content_lf_suite_spec("product", scale, seed)
        with ParallelLabelExecutor(spec, workers) as executor:
            # Pool construction pre-warms every worker's suite; one
            # labeled block on top settles allocator/token-memo state
            # before timing.
            apply_lfs_in_memory(
                lfs, _clone_examples(pool[:256]), executor=executor
            )
            parallel_eps, L_parallel = best_rate(executor=executor)
        # Report the measured truth and let the bench gate enforce it —
        # a hardcoded True here would make that assertion tautological.
        parallel_identical = bool(np.array_equal(L_parallel, L_batched))
        parallel_speedup = parallel_eps / max(batched_eps, 1e-9)

    start = time.perf_counter()
    model = SamplingFreeLabelModel(LabelModelConfig(seed=seed))
    model.fit(L_batched)
    fit_seconds = time.perf_counter() - start

    lines = [
        "Batched LF execution engine: in-memory labeling throughput "
        f"({n:,} examples, {len(lfs)} LFs, best of {rounds})",
        "",
        f"{'batched path':<32} {batched_eps:>12,.0f} examples/s",
        f"{'per-example path':<32} {per_example_eps:>12,.0f} examples/s",
        f"{'speedup':<32} {speedup:>12.2f}x",
    ]
    if parallel_eps is not None:
        lines += [
            f"{'parallel path (%d workers)' % workers:<32} "
            f"{parallel_eps:>12,.0f} examples/s",
            f"{'parallel / serial batched':<32} "
            f"{parallel_speedup:>12.2f}x (votes byte-identical: "
            f"{parallel_identical}, {os.cpu_count()} CPUs visible)",
        ]
    lines.append(
        f"{'label model fit':<32} {fit_seconds:>11.2f}s "
        f"({L_batched.shape[0]:,} x {L_batched.shape[1]})"
    )
    row = {
        "examples": n,
        "lfs": len(lfs),
        "rounds": rounds,
        "batched_examples_per_second": batched_eps,
        "per_example_examples_per_second": per_example_eps,
        "speedup": speedup,
        "label_model_fit_seconds": fit_seconds,
    }
    if parallel_eps is not None:
        row.update(
            workers=workers,
            cpu_count=os.cpu_count(),
            parallel_examples_per_second=parallel_eps,
            parallel_speedup=parallel_speedup,
            parallel_votes_identical=parallel_identical,
        )
    return ExperimentResult("perf_batch_throughput", "\n".join(lines), [row])
