#!/usr/bin/env python
"""Cross-feature model serving (Section 4), demonstrated explicitly.

The point of this example is the *boundary*: labeling functions may use
expensive organizational resources (NER model servers, crawled pages,
knowledge graphs), but the deployed model may only touch servable
features. The serving layer enforces this in code — attempting to stage
a non-servable featurizer is an error — and the virtual latency
accounting shows why the boundary exists.

Run:  python examples/cross_feature_serving.py
"""

import numpy as np

from repro.applications.product import build_product_lfs, product_featurizer
from repro.config import TINY_SCALE
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.datasets.content import generate_product_dataset
from repro.discriminative.logistic import LogisticConfig
from repro.features.extractors import DictVectorFeaturizer
from repro.features.spec import FeatureView, NonServableAccessError
from repro.lf.applier import apply_lfs_in_memory
from repro.serving.model_registry import ModelRegistry
from repro.serving.server import ProductionServer
from repro.serving.tfx import TFXPipeline, TrainerSpec


def main():
    dataset = generate_product_dataset(TINY_SCALE, seed=7)
    lfs, registry = build_product_lfs(dataset.world)

    # ------------------------------------------------------------------
    # 1. The development side: LFs run against non-servable resources.
    # ------------------------------------------------------------------
    matrix = apply_lfs_in_memory(lfs, dataset.unlabeled)
    print("labeling-function cost accounting (virtual, per full pass):")
    for lf in lfs:
        resources = getattr(lf, "resources", [])
        for resource in resources:
            print(
                f"  {lf.name:<32} uses {resource.name:<16} "
                f"{resource.stats.calls:>6} calls, "
                f"{resource.stats.virtual_latency_ms / 1000:>8.1f}s virtual latency"
            )
    print("  (keyword/pattern LFs run directly on content: no service cost)")

    label_model = SamplingFreeLabelModel(LabelModelConfig()).fit(
        matrix.matrix
    )
    soft = label_model.predict_proba(matrix.matrix)
    covered = np.abs(matrix.matrix).sum(axis=1) > 0

    # ------------------------------------------------------------------
    # 2. The serving side: only servable features may cross the line.
    # ------------------------------------------------------------------
    registry_store = ModelRegistry()

    # Trying to deploy a model over the non-servable view fails loudly:
    try:
        TFXPipeline(
            "product-classifier",
            DictVectorFeaturizer(
                ["related_model_score"], FeatureView.NON_SERVABLE
            ),
            registry_store,
        )
    except NonServableAccessError as error:
        print(f"\nrefused non-servable deployment: {error}")

    # The legitimate path: servable hashed-text features.
    featurizer = product_featurizer()
    pipeline = TFXPipeline(
        "product-classifier",
        featurizer,
        registry_store,
        trainer=TrainerSpec(
            kind="logistic", logistic=LogisticConfig(n_iterations=1200)
        ),
    )
    examples = [e for e, keep in zip(dataset.unlabeled, covered) if keep]
    run = pipeline.run(
        examples,
        soft[covered],
        eval_examples=dataset.dev,
        eval_labels=np.array([e.label for e in dataset.dev]),
    )
    print(f"\nstaged {run.model_version.name} "
          f"v{run.model_version.version} (blessed={run.blessed}, "
          f"eval F1={run.eval_metrics.f1:.3f})")

    # ------------------------------------------------------------------
    # 3. Production requests: cheap, fast, SLA-accounted.
    # ------------------------------------------------------------------
    server = ProductionServer(registry_store, "product-classifier", sla_ms=5.0)
    server.refresh()
    for example in dataset.test[:2000]:
        server.predict(example)
    print(
        f"\nserved {server.stats.requests} requests, "
        f"mean virtual latency {server.stats.mean_latency_ms:.3f}ms, "
        f"SLA violations: {server.stats.sla_violations}"
    )
    nlp_cost = 40.0  # per-call ms of the NLP server the LFs used
    print(
        f"for comparison: one NLP-server annotation costs {nlp_cost:.0f}ms — "
        f"{nlp_cost / server.stats.mean_latency_ms:,.0f}x the serving "
        f"budget per request. That asymmetry is why cross-feature "
        f"transfer matters (Section 4)."
    )


if __name__ == "__main__":
    main()
