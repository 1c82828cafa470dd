"""Section 5.2 speed comparison and Section 1 scale extrapolation.

Speed: "in our product classification application, in which there are
ten labeling functions, the optimizer takes an average > 100 steps per
second with a batch size of 64. With ten labeling functions and a batch
size of 64, a Gibbs sampler averages < 50 examples per second, so
Snorkel DryBell provides a 2x speedup."

(The paper compares optimizer *steps*/s against Gibbs *examples*/s at
the same batch size: a step consumes one 64-example batch. Our trainer
takes no minibatch steps: :meth:`SamplingFreeLabelModel.fit` solves the
whole matrix's pattern table, so the rates measured are what the product
runs — solver iterations/s, each consuming the whole table, and fit
examples/s against Gibbs examples/s on the same matrix.)

Scale: "implementing weak supervision over 6M+ data points with
sub-30min execution time". :func:`run_scale` streams about 100k and 1M
examples through the durable checkpointed stream, each run in its own
process, and reports wall time, examples/s and peak RSS at both sizes;
6.5M is extrapolated from the measured 1M rate, with the implied node
count needed to stay under 30 minutes.

Fit flatness: :func:`run_fit_compression_eval` fits growing matrices
drawn from one fixed pattern pool to convergence and reports the growth
of the cost per solver iteration, checked against a row-wise oracle at
every size.

Throughput, latency and durable-byte figures for the example -> votes ->
posterior -> durable/served path are measured by ``bench/run.py`` only.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from repro.applications.product import build_product_lfs
from repro.config import DEFAULT_SEED, ScaleConfig
from repro.core.gibbs import GibbsConfig, GibbsLabelModel
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModelConfig
from repro.core.patterns import compress_votes
from repro.datasets.content import generate_product_dataset
from repro.dfs.filesystem import DistributedFileSystem, shard_name
from repro.dfs.records import write_records
from repro.experiments.harness import ExperimentResult, get_content_experiment
from repro.streaming import CheckpointedStream, RecordStreamSource

__all__ = [
    "run_speed",
    "run_scale",
    "run_fit_compression_eval",
    "measure_fit_rates",
]


#: Wall-clock budget of each rate measurement in :func:`run_speed`.
BUDGET_SECONDS = 1.5

#: Product examples generated for :func:`run_scale`'s pool.
SCALE_POOL = 8_000

#: Epochs of the pool each :func:`run_scale` run streams: n = 96,000 and
#: n = 960,000.
SCALE_EPOCHS = (12, 120)

#: Small-size runs, reported as medians: one 2-4 s run moves 30% run to run.
SMALL_RUNS = 5

#: The example count the paper's Section 1 claim is about.
PAPER_EXAMPLES = 6_500_000


def measure_fit_rates(L: np.ndarray) -> tuple[float, float]:
    """Solver iterations per second and examples per second of
    :meth:`~SamplingFreeLabelModel.fit` on ``L``, refitting from scratch
    until :data:`BUDGET_SECONDS` have passed (at least once)."""
    iterations = fits = 0
    start = time.perf_counter()
    while fits == 0 or time.perf_counter() - start < BUDGET_SECONDS:
        model = SamplingFreeLabelModel(LabelModelConfig()).fit(L)
        iterations += model.loss_history[-1][0]
        fits += 1
    wall = time.perf_counter() - start
    return iterations / wall, fits * len(L) / wall


def run_speed(scale: str | None = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """The Section 5.2 sampling-free vs Gibbs comparison."""
    exp = get_content_experiment("product", scale, seed)
    L = exp.L_unlabeled.matrix.astype(np.float64)

    iterations_per_s, fit_examples_per_s = measure_fit_rates(L)
    gibbs = GibbsLabelModel(GibbsConfig(batch_size=64, seed=seed))
    gibbs_examples_per_s = gibbs.benchmark_examples_per_second(
        L, budget_seconds=BUDGET_SECONDS
    )
    speedup = fit_examples_per_s / max(gibbs_examples_per_s, 1e-9)

    lines = [
        "Section 5.2: sampling-free fit vs Gibbs (product app LF matrix, "
        f"{len(L):,} rows)",
        "",
        f"{'solver iterations':<32} {iterations_per_s:>10.1f} /s "
        f"(paper: >100 steps/s; one iteration consumes the whole table)",
        f"{'fit':<32} {fit_examples_per_s:>10.1f} examples/s",
        f"{'Gibbs sampler (batch 64)':<32} {gibbs_examples_per_s:>10.1f} examples/s "
        f"(paper: <50)",
        f"{'speedup (examples/s ratio)':<32} {speedup:>10.1f}x (paper: ~2x; "
        f"ours is larger because the Gibbs inner loop is pure Python)",
    ]
    rows = [
        {
            "iterations_per_second": iterations_per_s,
            "fit_examples_per_second": fit_examples_per_s,
            "gibbs_examples_per_second": gibbs_examples_per_s,
            "speedup": speedup,
        }
    ]
    return ExperimentResult("perf_label_model", "\n".join(lines), rows)


def _scale_stream(seed: int, epochs: int) -> dict:
    """Stream ``epochs`` id-suffixed copies of the product pool through
    a durable :class:`CheckpointedStream`; returns the run's figures.

    Each epoch is staged as its own shard straight from the pool's
    records, so the process never holds more than the pool in
    ``Example`` objects however large ``n`` grows.
    """
    sizes = ScaleConfig(
        name="scale",
        topic_unlabeled=0,
        topic_dev=0,
        topic_test=0,
        product_unlabeled=SCALE_POOL,
        product_dev=0,
        product_test=0,
        events_unlabeled=0,
        events_test=0,
    )
    dataset = generate_product_dataset(sizes, seed=seed)
    lfs = build_product_lfs(dataset.world)[0]
    pool = dataset.unlabeled
    dfs = DistributedFileSystem()
    paths = []
    for epoch in range(epochs):
        path = shard_name("/scale/in/examples", epoch, epochs)
        write_records(
            dfs,
            path,
            (
                {**e.to_record(), "example_id": f"{e.example_id}#e{epoch}"}
                for e in pool
            ),
        )
        paths.append(path)
    rss_before = _peak_rss_mb()
    stream = CheckpointedStream(
        dfs,
        lfs,
        "/scale/run",
        batch_size=1024,
        online_config=OnlineLabelModelConfig(base=LabelModelConfig(seed=seed)),
        checkpoint_every=1,
        write_labels=True,
    )
    start = time.perf_counter()
    examples = stream.run(RecordStreamSource(dfs, paths)).stream.examples
    wall = time.perf_counter() - start
    return {
        "examples": examples,
        "lfs": len(lfs),
        "wall_seconds": wall,
        "examples_per_second": examples / wall,
        "peak_rss_mb_before": rss_before,
        "peak_rss_mb_after": _peak_rss_mb(),
    }


def _peak_rss_mb() -> float:
    """This process's own peak RSS (``VmHWM``). Not ``ru_maxrss``:
    Linux carries the spawning parent's peak across ``exec`` into it, so
    a child spawned from a 480 MB pytest session reads 480 MB before it
    has allocated anything."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _child_main(conn, seed: int, epochs: int) -> None:
    conn.send(_scale_stream(seed, epochs))
    conn.close()


def _in_child(seed: int, epochs: int) -> dict:
    """:func:`_scale_stream` in a fresh spawned process, so its peak RSS
    is that run's alone."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(sender, seed, epochs))
    child.start()
    sender.close()
    try:
        row = receiver.recv()
    except EOFError:
        row = None
    child.join()
    if row is None:
        raise RuntimeError(
            f"the {epochs}-epoch scale run exited with code {child.exitcode}"
        )
    return row


def run_scale(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """The Section 1 scale claim: 6M+ points in under 30 minutes.

    Streams ``SCALE_POOL * e`` examples for each ``e`` in
    :data:`SCALE_EPOCHS` (one child process per run, the small size
    :data:`SMALL_RUNS` times) and extrapolates 6.5M examples from the
    largest run's measured rate. The rows are what the scale gates read:
    peak RSS and examples/s must stay flat in ``n``.
    """
    small, large = SCALE_EPOCHS
    runs = [_in_child(seed, small) for _ in range(SMALL_RUNS)]
    measured = ("wall_seconds", "examples_per_second", "peak_rss_mb_before", "peak_rss_mb_after")
    medians = {key: float(np.median([run[key] for run in runs])) for key in measured}
    rows = [{**runs[0], **medians, "runs": SMALL_RUNS}, {**_in_child(seed, large), "runs": 1}]
    rate = rows[-1]["examples_per_second"]
    single_node_minutes = PAPER_EXAMPLES / rate / 60
    nodes_for_30min = max(1, int(np.ceil(single_node_minutes / 30)))
    lines = [
        "Section 1 scale: durable stream (CheckpointedStream, batch 1,024, "
        "a manifest per batch, vote + label shards) over the product pool "
        f"cloned by epoch, {rows[-1]['lfs']} LFs",
        "",
        f"{'examples':>12} {'runs':>5} {'wall':>9} {'examples/s':>11} "
        f"{'peak RSS before -> after run':>29}",
    ]
    lines += [
        f"{row['examples']:>12,} {row['runs']:>5} {row['wall_seconds']:>8.1f}s "
        f"{row['examples_per_second']:>11,.0f} "
        f"{row['peak_rss_mb_before']:>19.0f} -> {row['peak_rss_mb_after']:.0f} MB"
        for row in rows
    ]
    lines += [
        "",
        f"{'6.5M single-node at the largest rate':<38} "
        f"{single_node_minutes:>8.1f} min",
        f"{'nodes needed for sub-30min':<38} {nodes_for_30min:>8,} "
        "(paper: 6M+ in <30min on Google's cluster)",
    ]
    return ExperimentResult("perf_scale", "\n".join(lines), rows)


def run_fit_compression_eval(
    reference_check,
    n_values: tuple[int, ...] = (2_000, 8_000, 30_720),
    n_patterns: int = 200,
    n_lfs: int = 12,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Refit latency: label-model fitting must be flat in ``n``.

    Draws every matrix from one fixed pool of ``n_patterns`` distinct
    vote rows so the pattern count stays constant while ``n`` grows,
    then times ``fit_compressed`` to convergence (best of 3) and checks
    the solution against a row-wise oracle at every size.
    The one-time dedup is O(n log n); what must stay flat is the cost
    per solver iteration — that flatness ratio is what the
    ``label_model_fit`` bench row gates.

    Args:
        reference_check: The oracle — ``(L, model) -> gap``, the largest
            disagreement between ``model``'s mean NLL and gradient at
            its fitted parameters and a row-wise evaluation on ``L``
            that shares no code with the model's kernel
            (``tests/test_fit_equivalence.py`` owns one).

    Raises:
        AssertionError: If the oracle's gap exceeds 1e-9 at any size.
    """
    rng = np.random.default_rng(seed)
    pool = rng.choice(
        np.array([-1, 0, 0, 1]), size=(n_patterns, n_lfs)
    ).astype(np.int8)
    config = LabelModelConfig(seed=seed)

    rows = []
    for n in n_values:
        L = pool[rng.integers(0, n_patterns, size=n)]
        # Time the two halves of fit() separately: the dedup runs once,
        # the solve is what a longer stream must not slow down.
        start = time.perf_counter()
        votes = compress_votes(L)
        compress_wall = time.perf_counter() - start
        fit_wall = float("inf")
        for _ in range(3):
            model = SamplingFreeLabelModel(config)
            start = time.perf_counter()
            model.fit_compressed(votes)
            fit_wall = min(fit_wall, time.perf_counter() - start)
        iterations = model.loss_history[-1][0]

        gap = float(reference_check(L, model))
        if gap > 1e-9:
            raise AssertionError(
                f"fit disagrees with the row-wise reference at n={n}: "
                f"gap {gap:.3e} > 1e-9"
            )
        rows.append(
            {
                "examples": n,
                "patterns": n_patterns,
                "lfs": n_lfs,
                "iterations": iterations,
                "fit_ms": fit_wall * 1e3,
                "iteration_ms": fit_wall / max(iterations, 1) * 1e3,
                "compress_once_ms": compress_wall * 1e3,
                "oracle_gap": gap,
            }
        )

    flatness = rows[-1]["iteration_ms"] / max(rows[0]["iteration_ms"], 1e-12)
    lines = [
        "Label model fitting over (patterns, counts): projected-Newton "
        f"solve to convergence ({n_patterns} patterns, {n_lfs} LFs)",
        "",
        f"{'n':>8} {'iters':>6} {'fit ms':>8} {'ms/iter':>8} "
        f"{'dedup once ms':>14} {'oracle gap':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['examples']:>8,} {row['iterations']:>6} "
            f"{row['fit_ms']:>8.2f} {row['iteration_ms']:>8.3f} "
            f"{row['compress_once_ms']:>14.2f} {row['oracle_gap']:>11.1e}"
        )
    lines.append(
        f"per-iteration growth {min(n_values):,} -> {max(n_values):,} rows: "
        f"{flatness:.2f}x (flat = independent of n)"
    )
    for row in rows:
        row["iteration_growth"] = flatness
    return ExperimentResult("label_model_fit", "\n".join(lines), rows)
