"""The labeling-function template library (Section 5.1).

The paper ships "a library of templated C++ classes" whose goal "is to
abstract away the repeated development of code for reading and writing to
Google's distributed filesystem, and for executing MapReduce pipelines".
Engineers "write only simple main files that define the function(s) that
computes the labeling function's vote for an individual example".

The Python reproduction keeps the same three-level shape:

* :class:`AbstractLabelingFunction` — owns all DFS I/O, the MapReduce
  pipeline definition and the LF's one lifecycle (``start`` / ``stop``:
  its offline resources and any node-local server); subclasses fill in
  template slots.
* :class:`LabelingFunction` — the default pipeline: a user function from
  example to vote, with optional offline resources (topic model, KG, ...).
* :class:`NLPLabelingFunction` — the model-server pipeline: launches an
  NLP server per compute node; users supply ``get_text`` and ``get_value``
  exactly as in the paper's code listing.

:mod:`repro.lf.templates` provides the factory helpers for the recurring
weak-supervision patterns in Section 3 (keyword, URL, topic-model,
knowledge-graph, model-score heuristics), and :class:`LFApplier` executes
a set of LF binaries over a DFS-resident corpus and joins their votes
into a :class:`repro.types.LabelMatrix`. Each LF's output shard is one
block of its non-abstaining votes; :func:`read_lf_votes` reads one back.
"""

from repro.lf.registry import LFCategory, LFInfo, LFRegistry
from repro.lf.base import AbstractLabelingFunction, LFRunResult, read_lf_votes
from repro.lf.default import LabelingFunction
from repro.lf.nlp import NLPLabelingFunction
from repro.lf.applier import LFApplier, apply_lfs_in_memory

__all__ = [
    "LFCategory",
    "LFInfo",
    "LFRegistry",
    "AbstractLabelingFunction",
    "LFRunResult",
    "LabelingFunction",
    "NLPLabelingFunction",
    "LFApplier",
    "apply_lfs_in_memory",
    "read_lf_votes",
]
