"""Simulated MapReduce substrate.

Deploying Snorkel at Google "required decoupling and redesigning the
labeling function execution and generative modeling components of the
pipeline around a template library and distributed compute environment"
(Section 5). The LF templates each *define a MapReduce pipeline*, and the
NLP pipeline "uses Google's MapReduce framework to launch a model server
on each compute node" (Section 5.1).

This package keeps the slice of MapReduce those templates run:
:func:`run_map_tasks` — one map task per DFS record shard, run in task
order on the caller's thread, each one a block loop retried as a unit
(exhausted retries raise :class:`WorkerFailure`). Its counters live in
:mod:`repro.obs.counters`.

The callers own the rest: the LF binary
(:meth:`repro.lf.base.AbstractLabelingFunction.run`) brings its model
server up once per job and writes its own vote shards, and
:class:`repro.lf.applier.LFApplier` does the same for a whole suite.
"""

from repro.mapreduce.runner import MAX_RETRIES, WorkerFailure, run_map_tasks

__all__ = ["MAX_RETRIES", "WorkerFailure", "run_map_tasks"]
