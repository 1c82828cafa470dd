"""Production serving substrate (the TFX substitute, Section 5.3).

"The probabilistic training labels estimated by Snorkel DryBell are
passed to TFX, where users can configure a model to train with a
noise-aware loss function. Once trained, we use TFX to automatically
stage it for serving."

The reproduction provides that lifecycle twice over, matching the two
ways models reach production:

* **batch deployment** — a declarative :class:`TFXPipeline` (ExampleGen
  -> Transform -> Trainer -> Evaluator -> Pusher), a versioned
  :class:`ModelRegistry` with evaluation-gated "blessing", and a
  :class:`ProductionServer` that loads the latest blessed model,
  enforces the servable-feature boundary, and accounts per-request
  latency against an SLA budget (Section 7: "products are composed of
  many services that are connected via latency agreements");
* **continuous deployment** — the low-latency label tier
  (:mod:`repro.serving.registry` + :mod:`repro.serving.service`):
  :class:`CheckpointModelRegistry` consumes the streaming tier's
  bit-exact checkpoint manifests as deployable artifacts and hot-swaps
  immutable :class:`ServingGeneration` snapshots without dropping
  in-flight requests, while :class:`LabelServer` micro-batches
  concurrent single-example requests through the vectorized labeling
  kernels, degrades gracefully (class-prior abstains) while no
  generation is deployed, and bounds request latency with counted
  timeouts. Configured in code through :class:`ServeConfig`. See
  ``docs/SERVING.md`` for the runbook.

The two stacks stay apart because they serve different models from
different artifacts: the first scores the *end model* on servable
features from staged in-memory versions; the second runs the LF suite
per request and serves *label-model posteriors* from checkpoint
manifests (``docs/SERVING.md``, "Why there are two serving stacks").
"""

from repro.serving.model_registry import ModelRegistry, ModelVersion
from repro.serving.registry import CheckpointModelRegistry, ServingGeneration
from repro.serving.server import ProductionServer, ServingStats
from repro.serving.service import (
    LabelServer,
    ServeConfig,
    ServeResult,
    ServeTimeout,
)
from repro.serving.tfx import PipelineRun, TFXPipeline, TrainerSpec

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "TFXPipeline",
    "PipelineRun",
    "TrainerSpec",
    "ProductionServer",
    "ServingStats",
    "CheckpointModelRegistry",
    "ServingGeneration",
    "LabelServer",
    "ServeConfig",
    "ServeResult",
    "ServeTimeout",
]
