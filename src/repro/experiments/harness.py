"""Shared experiment state and arm definitions.

The evaluation protocol follows Section 6:

* the **baseline** for the content tasks is the discriminative classifier
  "trained directly on the hand-labeled development set"; every reported
  number in Tables 2-4 is normalized against its precision/recall/F1 at
  threshold 0.5;
* the **generative model only** arm applies the fitted label model to the
  test examples' labeling-function votes (non-servable; not deployable);
* the **Snorkel DryBell** arm trains the same logistic-regression
  configuration on the label model's probabilistic labels over the full
  unlabeled pool;
* the **servable-only** arm (Table 3) refits the generative model using
  only LFs whose every resource is servable;
* the **equal-weights** arm (Table 4) replaces the generative model's
  posteriors with the unweighted vote average;
* the **events** comparison (Section 6.4) trains the same DNN on
  DryBell posteriors vs Logical-OR labels and compares events identified
  under a fixed review budget, plus an average-precision quality metric.

Generative-model hard predictions use a strictly-greater threshold: an
all-abstain row carries no evidence and must not be called positive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import DEFAULT_SEED, ScaleConfig, get_scale
from repro.core.combiners import (
    equal_weight_probabilities,
    logical_or_probabilities,
)
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.noise_aware import labels_to_soft_targets
from repro.datasets.content import (
    ContentDataset,
    generate_product_dataset,
    generate_topic_dataset,
)
from repro.datasets.events import EventsDataset, generate_events_dataset
from repro.applications.events import build_event_lfs, event_featurizer
from repro.applications.product import build_product_lfs, product_featurizer
from repro.applications.topic import build_topic_lfs, topic_featurizer
from repro.discriminative.dnn import MLPConfig, NoiseAwareMLP
from repro.discriminative.logistic import (
    LogisticConfig,
    NoiseAwareLogisticRegression,
)
from repro.discriminative.metrics import (
    BinaryMetrics,
    average_precision,
    binary_metrics,
    relative_metrics,
)
from repro.lf.applier import apply_lfs_in_memory

__all__ = [
    "GEN_MODEL_THRESHOLD",
    "ExperimentResult",
    "ContentExperiment",
    "EventsExperiment",
    "get_content_experiment",
    "get_events_experiment",
    "results_path",
]

#: Strictly-above-0.5 cut for generative-model hard predictions (see
#: module docstring).
GEN_MODEL_THRESHOLD = 0.5 + 1e-9


@dataclass
class ExperimentResult:
    """One experiment's rendered output plus raw rows."""

    name: str
    text: str
    rows: list[dict[str, object]] = field(default_factory=list)

    def write(self, directory: str | None = None) -> str:
        """Persist the rendered table under ``results/``."""
        directory = directory or results_path()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.txt")
        with open(path, "w") as handle:
            handle.write(self.text + "\n")
        return path


def results_path() -> str:
    """Repository-level ``results/`` directory."""
    here = os.path.dirname(os.path.abspath(__file__))
    for candidate in (here, *[os.path.dirname(here)] * 5):
        repo = candidate
        while repo and repo != "/":
            if os.path.exists(os.path.join(repo, "pyproject.toml")):
                return os.path.join(repo, "results")
            repo = os.path.dirname(repo)
    return os.path.join(os.getcwd(), "results")


# ----------------------------------------------------------------------
# content applications
# ----------------------------------------------------------------------
class ContentExperiment:
    """Lazy, cached pipeline state for one content task."""

    def __init__(
        self,
        task: str = "topic",
        scale: ScaleConfig | str | None = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        if task not in ("topic", "product"):
            raise ValueError(f"task must be topic|product, got {task!r}")
        self.task = task
        self.scale = scale if isinstance(scale, ScaleConfig) else get_scale(scale)
        self.seed = seed

    # ------------------------------------------------------------------
    # data + labeling
    # ------------------------------------------------------------------
    @cached_property
    def dataset(self) -> ContentDataset:
        if self.task == "topic":
            return generate_topic_dataset(self.scale, seed=self.seed)
        return generate_product_dataset(self.scale, seed=self.seed)

    @cached_property
    def lfs_and_registry(self):
        if self.task == "topic":
            return build_topic_lfs(self.dataset.world)
        return build_product_lfs(self.dataset.world)

    @property
    def lfs(self):
        return self.lfs_and_registry[0]

    @property
    def registry(self):
        return self.lfs_and_registry[1]

    @cached_property
    def featurizer(self):
        return topic_featurizer() if self.task == "topic" else product_featurizer()

    @cached_property
    def L_unlabeled(self):
        return apply_lfs_in_memory(self.lfs, self.dataset.unlabeled)

    @cached_property
    def L_test(self):
        return apply_lfs_in_memory(self.lfs, self.dataset.test)

    @cached_property
    def label_model(self) -> SamplingFreeLabelModel:
        model = SamplingFreeLabelModel(self.label_model_config())
        model.fit(self.L_unlabeled.matrix)
        return model

    def label_model_config(self) -> LabelModelConfig:
        return LabelModelConfig(seed=self.seed)

    @cached_property
    def soft_labels(self) -> np.ndarray:
        return self.label_model.predict_proba(self.L_unlabeled.matrix)

    # ------------------------------------------------------------------
    # features + gold labels
    # ------------------------------------------------------------------
    @cached_property
    def X_unlabeled(self):
        return self.featurizer.transform(self.dataset.unlabeled)

    @cached_property
    def X_dev(self):
        return self.featurizer.transform(self.dataset.dev)

    @cached_property
    def X_test(self):
        return self.featurizer.transform(self.dataset.test)

    @cached_property
    def y_dev(self) -> np.ndarray:
        return np.array([e.label for e in self.dataset.dev])

    @cached_property
    def y_test(self) -> np.ndarray:
        return np.array([e.label for e in self.dataset.test])

    # ------------------------------------------------------------------
    # training arms
    # ------------------------------------------------------------------
    def logistic_config(self) -> LogisticConfig:
        """Per-task training budget (topic trains 10K iterations and
        product 100K in the paper; scaled ~3x down with the data)."""
        iterations = 3000 if self.task == "topic" else 6000
        if self.scale.is_full:
            iterations = 10_000 if self.task == "topic" else 100_000
        return LogisticConfig(n_iterations=iterations, alpha=0.2, seed=self.seed)

    def train_lr(self, X, soft_targets: np.ndarray) -> NoiseAwareLogisticRegression:
        model = NoiseAwareLogisticRegression(
            self.featurizer.spec.dimension, self.logistic_config()
        )
        return model.fit(X, soft_targets)

    @cached_property
    def baseline_model(self) -> NoiseAwareLogisticRegression:
        """LR trained directly on the hand-labeled development set."""
        return self.train_lr(self.X_dev, labels_to_soft_targets(self.y_dev))

    @cached_property
    def baseline_metrics(self) -> BinaryMetrics:
        return binary_metrics(
            self.y_test, self.baseline_model.predict_proba(self.X_test)
        )

    @cached_property
    def covered_rows(self) -> np.ndarray:
        """Mask of pool examples with at least one non-abstain vote.

        All-abstain examples carry exactly zero supervision signal
        (posterior = prior); weak-label training drops them, the standard
        Snorkel practice for training the end model.
        """
        return np.abs(self.L_unlabeled.matrix).sum(axis=1) > 0

    def train_lr_on_weak(self, soft: np.ndarray) -> NoiseAwareLogisticRegression:
        """Train the end classifier on weak labels, covered rows only."""
        mask = self.covered_rows
        return self.train_lr(self.X_unlabeled[mask], soft[mask])

    @cached_property
    def drybell_model(self) -> NoiseAwareLogisticRegression:
        """LR trained on the generative model's probabilistic labels."""
        return self.train_lr_on_weak(self.soft_labels)

    @cached_property
    def drybell_metrics(self) -> BinaryMetrics:
        return binary_metrics(
            self.y_test, self.drybell_model.predict_proba(self.X_test)
        )

    @cached_property
    def generative_metrics(self) -> BinaryMetrics:
        """The label model applied directly to test votes (Table 2's
        'Generative Model Only' — not servable in production)."""
        scores = self.label_model.predict_proba(self.L_test.matrix)
        return binary_metrics(self.y_test, scores, threshold=GEN_MODEL_THRESHOLD)

    # ------------------------------------------------------------------
    # ablation arms
    # ------------------------------------------------------------------
    def arm_with_lfs(self, lf_names: list[str]) -> BinaryMetrics:
        """Refit the generative model on an LF subset and retrain the
        end classifier (Table 3's servable-only arm)."""
        L_sub = self.L_unlabeled.select_lfs(lf_names)
        model = SamplingFreeLabelModel(self.label_model_config())
        model.fit(L_sub.matrix)
        soft = model.predict_proba(L_sub.matrix)
        mask = np.abs(L_sub.matrix).sum(axis=1) > 0
        lr = self.train_lr(self.X_unlabeled[mask], soft[mask])
        return binary_metrics(self.y_test, lr.predict_proba(self.X_test))

    @cached_property
    def servable_only_metrics(self) -> BinaryMetrics:
        return self.arm_with_lfs(self.registry.servable_names())

    @cached_property
    def equal_weights_metrics(self) -> BinaryMetrics:
        """Train the end classifier on the unweighted vote average
        (Table 4's 'Equal Weights' arm)."""
        soft = equal_weight_probabilities(self.L_unlabeled.matrix)
        lr = self.train_lr_on_weak(soft)
        return binary_metrics(self.y_test, lr.predict_proba(self.X_test))

    # ------------------------------------------------------------------
    # hand-label trade-off (Figure 5)
    # ------------------------------------------------------------------
    def hand_label_metrics(self, n_labels: int) -> BinaryMetrics:
        """Train the classifier on ``n_labels`` hand-labeled examples
        (simulated by revealing pool gold labels)."""
        if n_labels > len(self.dataset.unlabeled):
            raise ValueError(
                f"cannot hand-label {n_labels} of "
                f"{len(self.dataset.unlabeled)} pooled examples"
            )
        X = self.X_unlabeled[:n_labels]
        gold = self.dataset.unlabeled_gold[:n_labels]
        lr = self.train_lr(X, labels_to_soft_targets(gold))
        return binary_metrics(self.y_test, lr.predict_proba(self.X_test))

    # ------------------------------------------------------------------
    def relative(self, metrics: BinaryMetrics) -> dict[str, float]:
        """The paper's normalization against the dev-set baseline."""
        return relative_metrics(metrics, self.baseline_metrics)


# ----------------------------------------------------------------------
# events application
# ----------------------------------------------------------------------
class EventsExperiment:
    """Lazy, cached pipeline state for the real-time events task."""

    #: Review budget for 'events identified': the monitoring team can
    #: inspect the top 10% of scored events.
    REVIEW_BUDGET_FRACTION = 0.10

    def __init__(
        self,
        scale: ScaleConfig | str | None = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.scale = scale if isinstance(scale, ScaleConfig) else get_scale(scale)
        self.seed = seed

    @cached_property
    def dataset(self) -> EventsDataset:
        return generate_events_dataset(self.scale, seed=self.seed)

    @cached_property
    def lfs_and_registry(self):
        return build_event_lfs(self.dataset.world)

    @property
    def lfs(self):
        return self.lfs_and_registry[0]

    @property
    def registry(self):
        return self.lfs_and_registry[1]

    @cached_property
    def featurizer(self):
        return event_featurizer()

    @cached_property
    def L_unlabeled(self):
        return apply_lfs_in_memory(self.lfs, self.dataset.unlabeled)

    @cached_property
    def class_prior(self) -> float:
        """Base-rate estimate from a small calibration slice.

        Section 2 notes the class prior "can also be learned"; in the
        events deployment a rough base rate is available from historical
        review queues, simulated here with a 200-event calibration
        sample.
        """
        calibration = self.dataset.test_gold[:200]
        return float(np.clip((calibration == 1).mean(), 0.01, 0.5))

    @cached_property
    def label_model(self) -> SamplingFreeLabelModel:
        config = LabelModelConfig(seed=self.seed, init_class_prior=self.class_prior)
        return SamplingFreeLabelModel(config).fit(self.L_unlabeled.matrix)

    @cached_property
    def soft_labels(self) -> np.ndarray:
        return self.label_model.predict_proba(self.L_unlabeled.matrix)

    @cached_property
    def X_unlabeled(self) -> np.ndarray:
        return self.featurizer.transform(self.dataset.unlabeled)

    @cached_property
    def X_test(self) -> np.ndarray:
        return self.featurizer.transform(self.dataset.test)

    def mlp_config(self) -> MLPConfig:
        # Enough epochs to actually fit the targets: the Logical-OR arm's
        # hard 0/1 labels then drive its DNN to the over-confident score
        # pile-up of Figure 6, while the DryBell arm's soft targets keep
        # its distribution smooth at any budget.
        return MLPConfig(hidden_sizes=(64, 32), n_epochs=60, seed=self.seed)

    @cached_property
    def dnn_drybell(self) -> NoiseAwareMLP:
        model = NoiseAwareMLP(self.featurizer.spec.dimension, self.mlp_config())
        return model.fit(self.X_unlabeled, self.soft_labels)

    @cached_property
    def dnn_logical_or(self) -> NoiseAwareMLP:
        labels = logical_or_probabilities(self.L_unlabeled.matrix)
        model = NoiseAwareMLP(self.featurizer.spec.dimension, self.mlp_config())
        return model.fit(self.X_unlabeled, labels)

    @cached_property
    def scores_drybell(self) -> np.ndarray:
        return self.dnn_drybell.predict_proba(self.X_test)

    @cached_property
    def scores_logical_or(self) -> np.ndarray:
        return self.dnn_logical_or.predict_proba(self.X_test)

    # ------------------------------------------------------------------
    # Section 6.4 metrics
    # ------------------------------------------------------------------
    def review_budget(self) -> int:
        return max(1, int(len(self.dataset.test) * self.REVIEW_BUDGET_FRACTION))

    def events_identified(self, scores: np.ndarray) -> int:
        """True events of interest inside the top-K review budget."""
        k = self.review_budget()
        top = np.argsort(-scores)[:k]
        return int((self.dataset.test_gold[top] == 1).sum())

    def quality_metric(self, scores: np.ndarray) -> float:
        """The 'internal quality metric' proxy: average precision."""
        return average_precision(self.dataset.test_gold, scores)

    def comparison(self) -> dict[str, float]:
        """The Section 6.4 headline numbers."""
        found_db = self.events_identified(self.scores_drybell)
        found_or = self.events_identified(self.scores_logical_or)
        quality_db = self.quality_metric(self.scores_drybell)
        quality_or = self.quality_metric(self.scores_logical_or)
        return {
            "events_identified_drybell": found_db,
            "events_identified_logical_or": found_or,
            "identified_gain_pct": 100.0 * (found_db / max(found_or, 1) - 1.0),
            "quality_drybell": quality_db,
            "quality_logical_or": quality_or,
            "quality_gain_pct": 100.0 * (quality_db / max(quality_or, 1e-9) - 1.0),
        }


# ----------------------------------------------------------------------
# session-level cache
# ----------------------------------------------------------------------
_CONTENT_CACHE: dict[tuple[str, str, int], ContentExperiment] = {}
_EVENTS_CACHE: dict[tuple[str, int], EventsExperiment] = {}


def get_content_experiment(
    task: str,
    scale: str | None = None,
    seed: int = DEFAULT_SEED,
) -> ContentExperiment:
    """Cached experiment per (task, scale, seed)."""
    scale_cfg = get_scale(scale)
    key = (task, scale_cfg.name, seed)
    if key not in _CONTENT_CACHE:
        _CONTENT_CACHE[key] = ContentExperiment(task, scale_cfg, seed)
    return _CONTENT_CACHE[key]


def get_events_experiment(
    scale: str | None = None,
    seed: int = DEFAULT_SEED,
) -> EventsExperiment:
    scale_cfg = get_scale(scale)
    key = (scale_cfg.name, seed)
    if key not in _EVENTS_CACHE:
        _EVENTS_CACHE[key] = EventsExperiment(scale_cfg, seed)
    return _EVENTS_CACHE[key]


# ----------------------------------------------------------------------
# rendering helpers
# ----------------------------------------------------------------------
def format_relative_row(name: str, rel: dict[str, float]) -> str:
    return (
        f"{name:<28} P={rel['precision']:>6.1f}%  R={rel['recall']:>6.1f}%  "
        f"F1={rel['f1']:>6.1f}%  lift={rel['lift']:>+6.1f}%"
    )


def format_absolute_row(name: str, metrics: BinaryMetrics) -> str:
    return (
        f"{name:<28} P={metrics.precision:.3f}  R={metrics.recall:.3f}  "
        f"F1={metrics.f1:.3f}"
    )
