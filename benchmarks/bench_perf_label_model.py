"""Section 5.2 benchmark: sampling-free optimizer vs Gibbs sampler.

This is the paper's speed claim measured on what this implementation
runs: ">100 steps per second with a batch size of 64" for the
compute-graph trainer versus "<50 examples per second" for the Gibbs
sampler, a ≈2x speedup at ten labeling functions. The trainer here is
one deterministic solve of the pattern table (no minibatch steps), so
the claim is restated on it with no looser floor.

Assertions: the solver takes more than 100 iterations/s (one iteration
consumes the whole table), and ``fit``'s example throughput beats the
Gibbs sampler's on the same matrix by at least 2x (ours is far larger
because the Gibbs inner loop is pure Python — the rendered table says
so).

The solve report times a cold solve of the product and topic tables,
whole and first 1,024 rows, and of the 140-LF events table, with its
iterations and passes over the table per iteration.

Also home to the ``label_model_fit`` flatness gate: fitting matrices of
2,000 / 8,000 / 30,720 rows drawn from one fixed 200-pattern pool to
convergence. Every fit runs on ``(patterns, counts)``, so at every size
its mean NLL and gradient at the solution must match the row-wise
reference from ``tests/test_fit_equivalence.py`` to <= 1e-9, and its
cost per solver iteration must be flat in n (bounded growth across the
>15x sweep — a within-run ratio, so it binds on any host).
"""

import time

import numpy as np

from repro.core.gibbs import GibbsConfig, GibbsLabelModel
from repro.core.label_model import (
    _MAX_ITERATIONS,
    LabelModelConfig,
    SamplingFreeLabelModel,
    _StepKernel,
)
from repro.core.patterns import compress_votes
from repro.experiments import perf
from repro.experiments.harness import (
    ExperimentResult,
    get_content_experiment,
    get_events_experiment,
)

from benchmarks.conftest import emit
from tests.test_fit_equivalence import reference_gap

#: Agreement of the fitted NLL and gradient with the row-wise
#: reference, at every size.
FIT_EQUIVALENCE_TOLERANCE = 1e-9

#: Maximum allowed growth of the cost per solver iteration across the
#: size sweep ("flat in n").
FIT_STEP_GROWTH_CEILING = 3.0


def test_section52_speed_comparison(benchmark, scale):
    result = benchmark.pedantic(
        lambda: perf.run_speed(scale=scale), rounds=1, iterations=1
    )
    emit(result)
    row = result.rows[0]
    assert row["iterations_per_second"] > 100.0, row  # paper: >100 steps/s
    assert row["speedup"] >= 2.0, row                 # paper: ~2x


def _passes_per_iteration(votes, config: LabelModelConfig) -> tuple[int, float]:
    """One solve's iterations and its passes over the table per
    iteration, counted by wrapping the kernel's ``evaluate``."""
    kernel = _StepKernel(votes, False, SamplingFreeLabelModel(config).prior_logit)
    evaluate, passes = kernel.evaluate, []

    def counted(*args):
        passes.append(None)
        return evaluate(*args)

    kernel.evaluate = counted
    iterations, _, _ = kernel.solve()
    return iterations, len(passes) / max(iterations, 1)


def solve_report(scale, repeats: int = 20) -> ExperimentResult:
    """Cold ``fit_compressed`` solves of the product and topic tables,
    whole and as their first 1,024 rows, and of the 140-LF events table:
    the median wall time over ``repeats`` solves, the iterations, and
    the passes over the table per iteration (each pass scores one chunk
    of line-search halvings).
    """
    rows, lines = [], [
        f"Label-model solve: cold fit_compressed per table (median of {repeats})",
        "",
        f"{'table':<22} {'patterns':>8} {'LFs':>4} {'median ms':>10} "
        f"{'iterations':>10} {'passes/iteration':>17}",
    ]
    tables = []
    for task in ("product", "topic"):
        matrix = get_content_experiment(task, scale).L_unlabeled.matrix
        tables += [(task, matrix, LabelModelConfig()),
                   (f"{task} first 1,024", matrix[:1024], LabelModelConfig())]
    events = get_events_experiment(scale)
    tables.append(("events", events.L_unlabeled.matrix,
                   LabelModelConfig(init_class_prior=events.class_prior)))
    for name, L, config in tables:
        votes = compress_votes(L)
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            SamplingFreeLabelModel(config).fit_compressed(votes)
            walls.append(time.perf_counter() - start)
        iterations, passes = _passes_per_iteration(votes, config)
        row = {
            "table": name,
            "patterns": votes.n_patterns,
            "lfs": L.shape[1],
            "solve_ms": 1e3 * float(np.median(walls)),
            "iterations": iterations,
            "passes_per_iteration": passes,
        }
        rows.append(row)
        lines.append(
            f"{name:<22} {row['patterns']:>8} {row['lfs']:>4} "
            f"{row['solve_ms']:>10.2f} {iterations:>10} {passes:>17.2f}"
        )
    return ExperimentResult("label_model_solve", "\n".join(lines), rows)


def test_solve_report(benchmark, scale):
    """What one solve costs on the product and topic tables, whole and
    as their first 1,024 rows, and on the 140-LF events table: the
    median cold solve, its iterations and its passes over the table per
    iteration. Reported, not gated (timings move 3-4x on a shared host);
    every solve must converge."""
    result = benchmark.pedantic(lambda: solve_report(scale), rounds=1, iterations=1)
    emit(result)
    for row in result.rows:
        assert 0 < row["iterations"] < _MAX_ITERATIONS, row


def test_sampling_free_step(benchmark, scale):
    """Microbenchmark: one ``fit`` of the product matrix, 8-10 LFs."""
    exp = get_content_experiment("product", scale)
    L = exp.L_unlabeled.matrix.astype(np.float64)

    benchmark(lambda: SamplingFreeLabelModel(LabelModelConfig()).fit(L))


def test_label_model_fit_compression(benchmark, scale):
    """Flatness gate: fitting over (patterns, counts) is flat in n."""
    result = benchmark.pedantic(
        lambda: perf.run_fit_compression_eval(reference_gap),
        rounds=1,
        iterations=1,
    )
    emit(result)

    # The pattern fit is only a faster path if it solves the row-wise
    # objective.
    for row in result.rows:
        assert row["oracle_gap"] <= FIT_EQUIVALENCE_TOLERANCE, row
    largest = result.rows[-1]
    assert largest["iteration_growth"] <= FIT_STEP_GROWTH_CEILING, largest


def test_gibbs_batch(benchmark, scale):
    """Microbenchmark: one Gibbs sweep + update at batch 64."""
    exp = get_content_experiment("product", scale)
    L = exp.L_unlabeled.matrix
    model = GibbsLabelModel(GibbsConfig(batch_size=64))
    model.alpha = np.full(L.shape[1], 0.7)
    model.beta = np.zeros(L.shape[1])
    rng = np.random.default_rng(0)
    batch = L[rng.integers(0, len(L), size=64)]

    def sweep_and_update():
        y = model._gibbs_sweep(batch, rng)
        model._complete_data_step(batch, y)

    benchmark(sweep_and_update)
