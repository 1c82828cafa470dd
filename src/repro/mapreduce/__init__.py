"""Simulated MapReduce substrate.

Deploying Snorkel at Google "required decoupling and redesigning the
labeling function execution and generative modeling components of the
pipeline around a template library and distributed compute environment"
(Section 5). The LF templates each *define a MapReduce pipeline*, and the
NLP pipeline "uses Google's MapReduce framework to launch a model server
on each compute node" (Section 5.1).

This package reproduces the slice of MapReduce those templates need:

* a map-only job over DFS record files, one map task per shard, run in
  task order on the caller's thread,
* one node-local service per job (where model servers start/stop),
* counters and retry-on-worker-failure.
"""

from repro.mapreduce.counters import CounterSet
from repro.mapreduce.runner import (
    MapReduceJob,
    MapReduceResult,
    MapReduceSpec,
    NodeService,
    WorkerFailure,
)

__all__ = [
    "CounterSet",
    "MapReduceJob",
    "MapReduceResult",
    "MapReduceSpec",
    "WorkerFailure",
    "NodeService",
]
