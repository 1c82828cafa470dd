"""Table 3 benchmark: the servability ablation.

Regenerates Table 3 (servable-only LFs vs all LFs) and times the ablation
arm (label-model refit + end-classifier retrain on the servable subset).

Shape assertions (paper): the servable-only arm is precision-poor and
recall-heavy relative to the full LF suite; adding non-servable
organizational resources produces a large positive F1 lift on both
tasks (paper average ≈52%).
"""

from repro.experiments import table3
from repro.experiments.harness import get_content_experiment

from benchmarks.conftest import emit


def test_table3_servability_ablation(benchmark, scale):
    result = benchmark.pedantic(
        lambda: table3.run(scale=scale), rounds=1, iterations=1
    )
    emit(result)
    for row in result.rows:
        servable = row["servable_only"]
        full = row["all_lfs"]
        assert row["lift_vs_servable_pct"] > 0.0, row
        # Servable-only precision collapses below the full suite's.
        assert servable["precision"] < full["precision"], row


def test_servable_arm_cost(benchmark, scale):
    exp = get_content_experiment("topic", scale)
    names = exp.registry.servable_names()
    # Time the generative-model refit on the servable subset (the
    # incremental cost of one ablation arm, sans end-model training).
    from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel

    L_sub = exp.L_unlabeled.select_lfs(names)

    def refit():
        return SamplingFreeLabelModel(
            LabelModelConfig(seed=2)
        ).fit(L_sub.matrix)

    model = benchmark.pedantic(refit, rounds=3, iterations=1)
    assert model.n_lfs == len(names)
