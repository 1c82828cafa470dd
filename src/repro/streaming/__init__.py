"""Micro-batch streaming weak supervision.

The paper's deployment is an offline batch system: stage a corpus,
execute every labeling-function binary, fit the generative model, train
the end classifier. Production search/ads systems increasingly run the
same organizational-knowledge-to-labels conversion *continuously* over
live traffic (Vasudevan's weak-supervision-for-search deployment;
WRENCH's streaming workloads). This package turns the batched execution
engine of PR 1 into that continuous pipeline:

* :mod:`repro.streaming.sources` — incremental example sources: a
  bounded-memory reader over DFS record shards (records decode chunk by
  chunk, never as whole-shard blobs) that also reports seekable
  ``SourceCursor`` positions for O(1) resume, and an in-memory replay
  source for tests and benchmarks;
* :mod:`repro.streaming.pipeline` — :class:`MicroBatchPipeline`, one
  loop on the calling thread that assembles, labels and finalizes each
  micro-batch in turn (inline, or through a process pool's bounded
  in-flight window; peak resident records is capped at a fixed number
  of micro-batches), driving the same block-labeling kernel as the
  offline applier so streamed votes are vote-for-vote identical to an
  offline run. Its one per-batch hook is the ordered ``sinks`` list,
  each sink timed under its own ``sink/<name>/*`` counters;
* :mod:`repro.streaming.sinks` — durable per-batch outputs: vote and
  probabilistic-label record shards published atomically per finalized
  micro-batch, and their readers :func:`read_votes` and
  :func:`read_labels`. A batch's example ids are written once, in its
  vote shard; its label block holds only the posteriors, and
  :func:`read_labels` takes the ids from the vote shard beside it;
* :mod:`repro.streaming.checkpoint` — the fault-tolerance layer:
  :class:`CheckpointedStream` runs its sinks in the order
  ``label_model``, ``drift`` (with a policy), ``votes``, ``labels``
  (with ``write_labels``), ``checkpoint``; manifests
  (write-then-rename) snapshot the online model, the drift monitor
  when one is attached, and the source cursor, and a resumed stream
  writes byte-identical outputs;
* :class:`repro.core.online_label_model.OnlineLabelModel` — the
  streaming generative model the pipeline feeds (exported here for
  convenience), with cumulative and exponential-decay retention modes;
* :class:`repro.core.drift.DriftMonitor` — moment-based drift alarms
  (also re-exported): give a :class:`CheckpointedStream` a
  :class:`repro.core.drift.DriftPolicy` and read the ``drift/*``
  counters off its ``metrics`` (or the attached ``telemetry=``), or feed
  a monitor from a sink of your own.

Everything downstream is unchanged: probabilistic labels flow to the
FTRL-trained discriminative models exactly as in the offline pipeline.
"""

from repro.core.drift import DriftCheck, DriftMonitor, DriftPolicy
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.streaming.checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointedRunReport,
    CheckpointedStream,
    SimulatedCrash,
)
from repro.streaming.pipeline import (
    MicroBatchPipeline,
    PipelineStats,
    StreamReport,
)
from repro.streaming.sinks import (
    LabelSink,
    RecordBatchSink,
    VoteSink,
    read_labels,
    read_votes,
)
from repro.streaming.sources import (
    ExampleSource,
    MemorySource,
    RecordStreamSource,
    SourceCursor,
    iter_example_batches,
)

__all__ = [
    "ExampleSource",
    "MemorySource",
    "RecordStreamSource",
    "SourceCursor",
    "iter_example_batches",
    "MicroBatchPipeline",
    "PipelineStats",
    "StreamReport",
    "RecordBatchSink",
    "VoteSink",
    "LabelSink",
    "read_labels",
    "read_votes",
    "Checkpoint",
    "CheckpointManager",
    "CheckpointedStream",
    "CheckpointedRunReport",
    "SimulatedCrash",
    "OnlineLabelModel",
    "OnlineLabelModelConfig",
    "DriftCheck",
    "DriftMonitor",
    "DriftPolicy",
]
