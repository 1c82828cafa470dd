"""End-to-end DryBell orchestration (Figure 4).

The four numbered stages of the paper's system figure:

1. labeling functions are defined from the template library,
2. engineers' per-example vote functions run
3. as independent binaries over the distributed compute environment,
4. and the generative model turns the joined vote matrix into
   probabilistic training labels consumed by production ML systems.

:class:`DryBellPipeline` wires those stages to a dataset: it stages the
unlabeled pool to the simulated DFS, labels it with every LF in one
MapReduce job that writes each LF's own vote shards (or through the
in-memory fast path), fits the sampling-free generative model, and
hands soft labels to the TFX-style training pipeline which stages the
deployment model in a registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.lf.applier import ApplyReport, LFApplier, apply_lfs_in_memory, stage_examples
from repro.lf.base import AbstractLabelingFunction
from repro.serving.model_registry import ModelRegistry
from repro.serving.tfx import PipelineRun, TFXPipeline, TrainerSpec
from repro.types import Example, LabelMatrix

__all__ = ["DryBellArtifacts", "DryBellPipeline"]


@dataclass
class DryBellArtifacts:
    """Everything one end-to-end run produces."""

    label_matrix: LabelMatrix
    label_model: SamplingFreeLabelModel
    probabilistic_labels: np.ndarray
    pipeline_run: PipelineRun | None
    apply_report: ApplyReport | None
    wall_seconds: float

    @property
    def model(self) -> Any:
        if self.pipeline_run is None:
            raise RuntimeError("this run trained no discriminative model")
        return self.pipeline_run.model_version.model


class DryBellPipeline:
    """Orchestrates LF execution -> generative model -> TFX training."""

    def __init__(
        self,
        lfs: Sequence[AbstractLabelingFunction],
        featurizer: Any = None,
        trainer: TrainerSpec | None = None,
        label_model_config: LabelModelConfig | None = None,
        registry: ModelRegistry | None = None,
        use_mapreduce: bool = False,
        dfs: DistributedFileSystem | None = None,
        num_shards: int = 8,
        model_name: str = "drybell-model",
    ) -> None:
        if not lfs:
            raise ValueError("pipeline needs at least one labeling function")
        self.lfs = list(lfs)
        self.featurizer = featurizer
        self.trainer = trainer
        self.label_model_config = label_model_config or LabelModelConfig()
        self.registry = registry or ModelRegistry()
        self.use_mapreduce = use_mapreduce
        self.dfs = dfs or DistributedFileSystem()
        self.num_shards = num_shards
        self.model_name = model_name

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def label(self, examples: Sequence[Example]) -> tuple[LabelMatrix, ApplyReport | None]:
        """Stages 2-3: execute every LF, join votes into the matrix."""
        if not self.use_mapreduce:
            return apply_lfs_in_memory(self.lfs, examples), None
        run_id = self._unused_run_id()
        paths = stage_examples(
            self.dfs, list(examples), f"/data/{run_id}/examples", self.num_shards
        )
        report = LFApplier(self.dfs, paths, run_root=f"/runs/{run_id}").apply(
            self.lfs
        )
        return report.label_matrix, report

    def _unused_run_id(self) -> str:
        """The first ``run-N`` with nothing under ``/data/`` or ``/runs/``
        on this DFS. DFS files are immutable, so an id must not repeat on
        one DFS however close together two runs start."""
        n = 0
        while self.dfs.list(f"/data/run-{n}/") or self.dfs.list(f"/runs/run-{n}/"):
            n += 1
        return f"run-{n}"

    def fit_label_model(self, matrix: LabelMatrix) -> SamplingFreeLabelModel:
        """Stage 4: fit the sampling-free generative model."""
        model = SamplingFreeLabelModel(self.label_model_config)
        model.fit(matrix.matrix)
        return model

    def run(
        self,
        train_examples: Sequence[Example],
        eval_examples: Sequence[Example] | None = None,
        eval_labels: np.ndarray | None = None,
    ) -> DryBellArtifacts:
        """Full pipeline: label -> generative model -> TFX training."""
        start = time.perf_counter()
        matrix, report = self.label(train_examples)
        label_model = self.fit_label_model(matrix)
        soft_labels = label_model.predict_proba(matrix.matrix)

        pipeline_run = None
        if self.featurizer is not None:
            tfx = TFXPipeline(
                name=self.model_name,
                featurizer=self.featurizer,
                registry=self.registry,
                trainer=self.trainer,
            )
            # Align examples to the label matrix's row order: the
            # MapReduce path returns rows in shard-interleaved order,
            # not input order, and soft_labels follows the matrix.
            by_id = {e.example_id: e for e in train_examples}
            ordered_examples = [by_id[eid] for eid in matrix.example_ids]
            # All-abstain examples carry zero supervision signal
            # (posterior = prior); drop them from end-model training,
            # the standard Snorkel practice.
            covered = np.abs(matrix.matrix).sum(axis=1) > 0
            covered_examples = [
                example
                for example, keep in zip(ordered_examples, covered)
                if keep
            ]
            pipeline_run = tfx.run(
                covered_examples,
                soft_labels[covered],
                eval_examples=list(eval_examples) if eval_examples else None,
                eval_labels=eval_labels,
            )

        return DryBellArtifacts(
            label_matrix=matrix,
            label_model=label_model,
            probabilistic_labels=soft_labels,
            pipeline_run=pipeline_run,
            apply_report=report,
            wall_seconds=time.perf_counter() - start,
        )
