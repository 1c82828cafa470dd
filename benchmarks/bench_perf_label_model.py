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

Also home to the ``label_model_fit`` flatness gate: fitting matrices of
2,000 / 8,000 / 30,720 rows drawn from one fixed 200-pattern pool to
convergence. Every fit runs on ``(patterns, counts)``, so at every size
its mean NLL and gradient at the solution must match the row-wise
reference from ``tests/test_fit_equivalence.py`` to <= 1e-9, and its
cost per solver iteration must be flat in n (bounded growth across the
>15x sweep — a within-run ratio, so it binds on any host).
"""

import numpy as np

from repro.core.gibbs import GibbsConfig, GibbsLabelModel
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.experiments import perf
from repro.experiments.harness import get_content_experiment

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
