"""Process-pool parallel labeling.

Single-process Python caps both hot paths: the vectorized in-memory
applier (PR 1) and the micro-batch streaming pipeline (PRs 2-3) label on
exactly one thread, and the GIL keeps LF suites CPU-bound there no
matter how many threads the simulator spreads map tasks over. This
package shards *example blocks* across worker processes instead — the
paper's actual deployment shape, where labeling functions run on
"Google's distributed compute environment" as many independent workers
over record shards.

The design keeps the repository's core invariant — byte identity with
the serial path — by construction:

* workers never receive live Python objects: the LF suite is rebuilt in
  each worker from a picklable :class:`LFSuiteSpec` (an importable
  factory reference), and a block crosses the pool once, as one pickled
  list of ``(example_id, fields, servable, non_servable, label)`` tuples
  the worker rebuilds its ``Example`` objects from — the field values a
  serial run reads, and exactly what decoding a record gives;
* the parent hands results back strictly in submission order (it only
  ever waits on the oldest in-flight block), so votes, sink shards, and
  posteriors are bit-exact with a serial run at any worker count;
* a worker crash is retried on a fresh process up to a bounded budget
  and surfaces as :class:`repro.mapreduce.runner.WorkerFailure` when
  exhausted — the same failure contract as the MapReduce engine.

Consumers: ``repro.lf.applier.apply_lfs_in_memory(executor=pool)`` and
``repro.streaming.pipeline.MicroBatchPipeline(executor=pool)``. The pool
is always built, and closed, by the caller
(``with ParallelLabelExecutor(spec, n) as pool``); consumers only borrow it.

One thread drives a pool: the consumers iterate its one submit/drain
loop on their caller's thread, the executor holds no lock, and anyone
calling ``submit`` / ``next_completed`` directly must be on that thread.
"""

from repro.parallel.executor import (
    DEFAULT_MAX_RETRIES,
    ParallelLabelExecutor,
    parallel_block_size,
)
from repro.parallel.spec import LFSuiteSpec

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "LFSuiteSpec",
    "ParallelLabelExecutor",
    "parallel_block_size",
]
