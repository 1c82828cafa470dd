#!/usr/bin/env python
"""Quickstart: weak supervision with the DryBell reproduction.

Builds a tiny weak-supervision problem from scratch — three labeling
functions over toy documents, the sampling-free generative model, and a
noise-aware logistic regression — and prints what each stage produces.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import LFAnalysis, SamplingFreeLabelModel
from repro.core.label_model import LabelModelConfig
from repro.core.noise_aware import labels_to_soft_targets
from repro.discriminative.logistic import (
    LogisticConfig,
    NoiseAwareLogisticRegression,
)
from repro.discriminative.metrics import binary_metrics
from repro.features.extractors import HashedTextFeaturizer
from repro.lf.applier import apply_lfs_in_memory
from repro.lf.templates import keyword_lf, url_domain_lf
from repro.types import Example


def make_documents(n=600, seed=0):
    """Toy corpus: sports docs (+1) vs cooking docs (-1)."""
    rng = np.random.default_rng(seed)
    sports = ["match", "league", "goal", "coach", "stadium", "playoff"]
    cooking = ["recipe", "oven", "flavor", "chef", "saucepan", "dinner"]
    filler = ["the", "a", "today", "report", "new", "about", "great"]
    examples, labels = [], []
    for i in range(n):
        label = 1 if rng.random() < 0.5 else -1
        pool = sports if label == 1 else cooking
        words = [
            *(pool[k] for k in rng.integers(0, len(pool), size=3)),
            *(filler[k] for k in rng.integers(0, len(filler), size=6)),
        ]
        rng.shuffle(words)
        domain = "pitchside.example" if label == 1 and rng.random() < 0.6 else "tablefare.example"
        examples.append(
            Example(
                example_id=f"doc-{i}",
                fields={
                    "title": " ".join(words[:3]),
                    "body": " ".join(words),
                    "url": f"https://{domain}/{i}",
                },
                label=label,
            )
        )
        labels.append(label)
    return examples, np.array(labels)


def main():
    examples, gold = make_documents()
    print(f"corpus: {len(examples)} documents (gold labels hidden from training)")

    # 1. Write labeling functions — black-box example -> {-1, 0, +1}.
    lfs = [
        keyword_lf("kw_sports", ["match", "league", "goal"], vote=1),
        keyword_lf("kw_cooking", ["recipe", "oven", "chef"], vote=-1),
        url_domain_lf("url_sports_site", ["pitchside.example"], vote=1),
    ]

    # 2. Apply them to the unlabeled pool -> label matrix Lambda.
    matrix = apply_lfs_in_memory(lfs, examples)
    print(f"label matrix: {matrix.shape[0]} examples x {matrix.shape[1]} LFs")

    # 3. Fit the sampling-free generative model (no gold labels used!)
    #    and inspect the learned accuracies.
    label_model = SamplingFreeLabelModel(LabelModelConfig()).fit(
        matrix.matrix
    )
    analysis = LFAnalysis(matrix.matrix, matrix.lf_names)
    print("\nLF diagnostics (empirical accuracy shown only for the demo):")
    print(
        analysis.as_table(
            gold=gold, learned_accuracies=label_model.accuracies()
        )
    )

    # 4. Probabilistic training labels.
    soft_labels = label_model.predict_proba(matrix.matrix)
    print(f"\nsoft labels: mean={soft_labels.mean():.3f}")

    # 5. Train a noise-aware discriminative model on servable features.
    featurizer = HashedTextFeaturizer(num_buckets=2 ** 12)
    X = featurizer.transform(examples)
    clf = NoiseAwareLogisticRegression(
        featurizer.spec.dimension, LogisticConfig(n_iterations=800)
    ).fit(X, soft_labels)

    weak = binary_metrics(gold, clf.predict_proba(X))
    print(
        f"\nweakly-supervised classifier (0 hand labels): "
        f"P={weak.precision:.3f} R={weak.recall:.3f} F1={weak.f1:.3f}"
    )

    # Compare with a fully supervised model on the same features.
    supervised = NoiseAwareLogisticRegression(
        featurizer.spec.dimension, LogisticConfig(n_iterations=800)
    ).fit(X, labels_to_soft_targets(gold))
    full = binary_metrics(gold, supervised.predict_proba(X))
    print(
        f"fully-supervised reference ({len(examples)} hand labels): "
        f"P={full.precision:.3f} R={full.recall:.3f} F1={full.f1:.3f}"
    )


if __name__ == "__main__":
    main()
