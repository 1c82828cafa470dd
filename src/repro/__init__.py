"""repro — a from-scratch reproduction of Snorkel DryBell.

Snorkel DryBell (Bach et al., SIGMOD 2019) is a weak-supervision
management system deployed at Google: engineers encode organizational
knowledge (internal models, knowledge graphs, heuristics) as labeling
functions; a sampling-free generative model denoises and combines their
votes into probabilistic training labels; and a discriminative model over
*servable* features is trained on those labels and staged for production.

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the generative label model and baselines,
* :mod:`repro.lf` — the labeling-function template library,
* :mod:`repro.dfs` / :mod:`repro.mapreduce` — the distributed substrate
  (record shards, and the retried map-task loop LF binaries run on),
* :mod:`repro.services` — simulated organizational resources,
* :mod:`repro.discriminative` / :mod:`repro.serving` — end models + TFX,
* :mod:`repro.datasets` / :mod:`repro.applications` — the three case
  studies from the paper,
* :mod:`repro.pipeline` — end-to-end orchestration (Figure 4),
* :mod:`repro.experiments` — the table/figure reproduction harness.

Quickstart::

    import numpy as np
    from repro.core import SamplingFreeLabelModel

    L = np.array([[1, 0, -1], [1, 1, 0], [-1, -1, -1]])
    model = SamplingFreeLabelModel().fit(L)
    probabilistic_labels = model.predict_proba(L)
"""

from repro.types import ABSTAIN, NEGATIVE, POSITIVE, Example, LabelMatrix, LFVote

__version__ = "1.0.0"

__all__ = [
    "ABSTAIN",
    "NEGATIVE",
    "POSITIVE",
    "Example",
    "LabelMatrix",
    "LFVote",
    "__version__",
]
