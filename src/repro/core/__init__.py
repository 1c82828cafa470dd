"""The paper's primary contribution: scalable, sampling-free generative
modeling of labeling-function accuracies, plus the combiners and baselines
the evaluation compares against.

Public surface:

* :class:`SamplingFreeLabelModel` — the Section 5.2 model: per-LF accuracy
  and propensity parameters in log space, fitted by a projected Newton
  solve of the exact marginal likelihood of the observed label matrix.
* :class:`OnlineLabelModel` — the streaming counterpart: a vote-pattern
  table (its vote moments read off on demand) solved on every batch,
  each solve exactly the offline fit (``repro.streaming`` feeds it
  micro-batches).
* :class:`DriftMonitor` / :class:`DriftPolicy` — moment-based drift
  alarms for streaming deployments: tracked reference vs. recent
  windows over LF fire rates and the agreement matrix, with pluggable
  reactions (log, reference reset).
* :class:`GibbsLabelModel` — the original-Snorkel Gibbs-sampling trainer,
  kept as the speed baseline for the Section 5.2 comparison.
* :mod:`repro.core.combiners` — Logical-OR and equal-weight baselines used
  in Sections 6.3/6.4.
* :class:`LFAnalysis` — coverage/overlap/conflict/accuracy diagnostics
  (how Section 3.3's "previously unknown low-quality sources" were found).
"""

from repro.core.drift import DriftCheck, DriftMonitor, DriftPolicy
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.core.gibbs import GibbsLabelModel
from repro.core.combiners import (
    equal_weight_probabilities,
    logical_or_labels,
    majority_vote_labels,
    weighted_vote_probabilities,
)
from repro.core.analysis import LFAnalysis
from repro.core.noise_aware import (
    expected_log_loss,
    labels_to_soft_targets,
    soft_targets_to_weights,
)

__all__ = [
    "LabelModelConfig",
    "SamplingFreeLabelModel",
    "OnlineLabelModel",
    "OnlineLabelModelConfig",
    "DriftCheck",
    "DriftMonitor",
    "DriftPolicy",
    "GibbsLabelModel",
    "LFAnalysis",
    "equal_weight_probabilities",
    "logical_or_labels",
    "majority_vote_labels",
    "weighted_vote_probabilities",
    "expected_log_loss",
    "labels_to_soft_targets",
    "soft_targets_to_weights",
]
