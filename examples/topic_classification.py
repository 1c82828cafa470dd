#!/usr/bin/env python
"""The Section 3.1 topic-classification case study, end to end.

Reproduces the full DryBell flow on the synthetic celebrity-content
benchmark: organizational resources (NER model server, coarse topic
model, web crawler, an internal related classifier) become ten labeling
functions; the generative model denoises their votes; a servable
logistic-regression classifier is trained on the probabilistic labels,
staged through the TFX-style pipeline, and compared against the
hand-labeled dev-set baseline.

Run:  python examples/topic_classification.py        (tiny scale, ~1 min)
      REPRO_SCALE=small python examples/topic_classification.py
"""

import os

import numpy as np

from repro.applications.topic import build_topic_lfs, topic_featurizer
from repro.config import get_scale
from repro.core import LFAnalysis
from repro.core.label_model import LabelModelConfig
from repro.core.noise_aware import labels_to_soft_targets
from repro.datasets.content import generate_topic_dataset
from repro.discriminative.logistic import LogisticConfig
from repro.discriminative.metrics import binary_metrics, relative_metrics
from repro.pipeline import DryBellPipeline
from repro.serving.server import ProductionServer
from repro.serving.tfx import TrainerSpec


def main():
    scale = get_scale(os.environ.get("REPRO_SCALE", "tiny"))
    dataset = generate_topic_dataset(scale, seed=3)
    print(f"dataset: {dataset.stats()}")

    lfs, registry = build_topic_lfs(dataset.world)
    print(f"\n{len(lfs)} labeling functions "
          f"({len(registry.servable_names())} servable):")
    for lf in lfs:
        flag = "servable" if lf.info.servable else "NON-SERVABLE"
        print(f"  {lf.name:<28} [{lf.info.category.value:<17}] {flag}")

    # End-to-end: LF execution (simulated MapReduce), generative model,
    # TFX training, staging.
    pipeline = DryBellPipeline(
        lfs,
        featurizer=topic_featurizer(num_buckets=2 ** 14),
        trainer=TrainerSpec(
            kind="logistic", logistic=LogisticConfig(n_iterations=1500)
        ),
        label_model_config=LabelModelConfig(),
        use_mapreduce=True,
        num_shards=8,
        model_name="topic-classifier",
    )
    dev_labels = np.array([e.label for e in dataset.dev])
    artifacts = pipeline.run(
        dataset.unlabeled, eval_examples=dataset.dev, eval_labels=dev_labels
    )
    report = artifacts.apply_report
    print(
        f"\nlabeled {report.examples} examples with {len(lfs)} LF binaries "
        f"in {report.wall_seconds:.1f}s "
        f"({report.examples_per_second:,.0f} examples/s)"
    )

    print("\nlearned labeling-function accuracies:")
    analysis = LFAnalysis(
        artifacts.label_matrix.matrix, artifacts.label_matrix.lf_names
    )
    print(analysis.as_table(
        learned_accuracies=artifacts.label_model.accuracies()
    ))

    # Serve the staged model and evaluate on the held-out test split.
    server = ProductionServer(pipeline.registry, "topic-classifier")
    server.refresh()
    y_test = np.array([e.label for e in dataset.test])
    scores = server.predict_batch(list(dataset.test))
    drybell = binary_metrics(y_test, scores)

    # Baseline: the same classifier trained on the hand-labeled dev set.
    featurizer = topic_featurizer(num_buckets=2 ** 14)
    from repro.discriminative.logistic import NoiseAwareLogisticRegression

    baseline = NoiseAwareLogisticRegression(
        featurizer.spec.dimension, LogisticConfig(n_iterations=1500)
    ).fit(featurizer.transform(dataset.dev), labels_to_soft_targets(dev_labels))
    base = binary_metrics(y_test, baseline.predict_proba(featurizer.transform(dataset.test)))

    rel = relative_metrics(drybell, base)
    print(f"\ndev-set baseline:  P={base.precision:.3f} R={base.recall:.3f} F1={base.f1:.3f}")
    print(f"Snorkel DryBell:   P={drybell.precision:.3f} R={drybell.recall:.3f} F1={drybell.f1:.3f}")
    print(f"relative (paper Table 2 format): "
          f"P={rel['precision']:.1f}% R={rel['recall']:.1f}% "
          f"F1={rel['f1']:.1f}% lift={rel['lift']:+.1f}%")
    print(f"\nserving stats: {server.stats.requests} requests, "
          f"mean latency {server.stats.mean_latency_ms:.2f}ms (virtual)")


if __name__ == "__main__":
    main()
