"""The default labeling-function pipeline.

Section 5.1: "The first pipeline is a default pipeline that does not
launch any additional services; it simply executes a user-defined function
... This class meets the needs of many use cases, such as content
heuristics, model-based heuristics for models that are executed offline as
part of data collection such as semantic categorization, and graph-based
heuristics that can query a knowledge graph offline."

A :class:`LabelingFunction` wraps a plain ``Example -> vote`` callable.
Offline resources it queries (the topic model, the knowledge graph, the
aggregate store) are declared via ``resources``; the LF's one lifecycle,
:meth:`~repro.lf.base.AbstractLabelingFunction.start` /
:meth:`~repro.lf.base.AbstractLabelingFunction.stop`, brings them up and
down — the lifecycle bug of calling a stopped service is surfaced loudly
by :class:`repro.services.ModelServer`.

A block is voted by one of three kernels, first match wins:

* the LF's ``fused_spec`` (the token-driven template factories attach
  one), applied through a one-spec :class:`repro.lf.templates.FusedPlan`
  — the same kernel that labels the whole suite on every runtime path;
* a ``batch_fn`` (``Sequence[Example] -> np.ndarray``), which the other
  template factories supply;
* otherwise the per-example ``fn``, looped, so handwritten LFs keep
  working on the batched path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.lf.base import AbstractLabelingFunction
from repro.lf.registry import LFInfo
from repro.services.base import ModelServer
from repro.types import Example

__all__ = ["LabelingFunction"]


class LabelingFunction(AbstractLabelingFunction):
    """Default pipeline: a user function, no per-node services."""

    #: Declarative batch spec (a :class:`repro.lf.templates.TokenMatchSpec`
    #: or :class:`repro.lf.templates.TopicVetoSpec`), attached by the
    #: template factories whose vote is a pure function of the example's
    #: token stream. When present, the suite's plan fuses all such LFs
    #: into one pass per example, and :meth:`label_batch` applies this
    #: spec alone through a one-spec plan.
    fused_spec = None

    def __init__(
        self,
        info: LFInfo,
        fn: Callable[[Example], int],
        resources: Sequence[ModelServer] = (),
        batch_fn: Callable[[Sequence[Example]], np.ndarray] | None = None,
    ) -> None:
        super().__init__(info)
        self._fn = fn
        self._batch_fn = batch_fn
        self.resources = list(resources)

    def _vote(self, example: Example, service: ModelServer | None) -> int:
        # The default pipeline's template slot has no service argument in
        # the paper; `service` is always None here.
        return self._fn(example)

    def _vote_batch(
        self, examples: Sequence[Example], service: ModelServer | None
    ) -> np.ndarray:
        if self.fused_spec is not None:
            # Local import: repro.lf.templates imports this module.
            from repro.lf.templates import FusedPlan

            return FusedPlan([self.fused_spec]).apply(examples)[:, 0]
        if self._batch_fn is not None:
            return self._batch_fn(examples)
        return super()._vote_batch(examples, service)
