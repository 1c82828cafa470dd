"""The one observability contract: every key, and the stage that feeds it.

:data:`KEY_CONTRACT` pins the whole counter / gauge / histogram / span
surface of the example → votes → posterior → durable/served path, one
row per key: ``(key, kind, layer, conditional[, stage, field])``.

* ``kind`` is ``counter``, ``gauge`` or ``histogram``; ``layer`` is the
  subsystem that emits it (``stream``, ``offline``, ``parallel``,
  ``serving``); ``conditional`` keys appear only when their condition
  occurs (the pool label path, a full pool window, a configured sink, an
  attached drift monitor, a deploy), the rest in every non-empty run of
  their layer.
* ``stage`` names the stage event — and span — whose one
  :meth:`repro.obs.MetricsRegistry.stage` call feeds the key, and
  ``field`` which number it receives: ``"us"`` (the event's duration),
  ``"events"`` (one per call), or a keyword the call site passes
  (``records``, ``votes``, ``wait_us``, ``requests``, ``lf_us``,
  ``score_us``); a conditional row is fed only by calls that pass its
  field. Rows without a stage are emitted by key (``counter`` /
  ``record`` / ``gauge``). :data:`STAGES` is the same table grouped by
  stage.

``docs/OPERATIONS.md`` documents the keys in four tables that
``tests/test_docs.py`` diffs against filters of this one; the
``contract-closure`` rule in :mod:`repro.analysis` reads it from this
file's AST and proves every row is emitted somewhere in ``src/`` —
directly or through an invoked stage — and nothing else is. Dynamic keys
(the per-sink ``sink/<name>/us|batches|records`` family) and
un-namespaced per-LF MapReduce counters are outside the grammar.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["ContractKey", "KEY_CONTRACT", "STAGES"]


class ContractKey(NamedTuple):
    """One pinned observability key."""

    key: str
    kind: str
    layer: str
    conditional: bool
    stage: str | None = None
    field: str | None = None


KEY_CONTRACT: tuple[ContractKey, ...] = tuple(
    ContractKey(*row)
    for row in (
        # streaming pipeline: per-run counters (StreamReport.counters)
        ("ingest/records", "counter", "stream", False, "stream.ingest", "records"),
        ("ingest/batches", "counter", "stream", False, "stream.ingest", "events"),
        ("ingest/decode_us", "counter", "stream", False, "stream.ingest", "us"),
        ("label/records", "counter", "stream", False, "stream.label", "records"),
        ("label/batches", "counter", "stream", False, "stream.label", "events"),
        ("label/votes", "counter", "stream", False, "stream.label", "votes"),
        ("label/us", "counter", "stream", False, "stream.label", "us"),
        ("queue/wait_us", "counter", "stream", False, "stream.label", "wait_us"),
        # pool label path only: reads that waited on a full in-flight
        # window (backpressure) and their wait, and the hand-off to the
        # pool; an inline run has no window and no hand-off
        ("ingest/backpressure_waits", "counter", "stream", True),
        ("ingest/wait_us", "counter", "stream", True),
        ("ingest/encode_us", "counter", "stream", True),
        ("sink/us", "counter", "stream", True, "stream.sink", "us"),
        ("sink/batches", "counter", "stream", True, "stream.sink", "events"),
        ("sink/records", "counter", "stream", True, "stream.sink", "records"),
        ("drift/batches", "counter", "stream", True),
        ("drift/checks", "counter", "stream", True),
        ("drift/alarms", "counter", "stream", True),
        ("drift/reference_resets", "counter", "stream", True),
        # streaming pipeline: residency gauge and per-batch histograms
        ("stream/resident_records", "gauge", "stream", False),
        ("stream/decode_us", "histogram", "stream", False, "stream.ingest", "us"),
        ("stream/label_us", "histogram", "stream", False, "stream.label", "us"),
        ("stream/queue_wait_us", "histogram", "stream", False, "stream.label", "wait_us"),
        ("stream/batch_latency_us", "histogram", "stream", False),
        ("stream/sink_us", "histogram", "stream", True, "stream.sink", "us"),
        ("stream/checkpoint_us", "histogram", "stream", True, "stream.checkpoint", "us"),
        ("stream/drift_score", "histogram", "stream", True),
        # offline batched applier (per block)
        ("offline/blocks", "counter", "offline", False, "offline.label_block", "events"),
        ("offline/examples", "counter", "offline", False, "offline.label_block", "records"),
        ("offline/label_block_us", "histogram", "offline", False, "offline.label_block", "us"),
        # process pool: driver-side counters, worker-side histograms
        # (merged into the parent over the bytes-only IPC)
        ("parallel/blocks", "counter", "parallel", False),
        ("parallel/retries", "counter", "parallel", True),
        ("parallel/pool_restarts", "counter", "parallel", True),
        ("worker/decode_us", "histogram", "parallel", False),
        ("worker/label_us", "histogram", "parallel", False),
        # label serving: registry + server share one counter surface
        ("serving/requests", "counter", "serving", False),
        ("serving/batches", "counter", "serving", False, "serving.flush", "events"),
        ("serving/swaps", "counter", "serving", True, "serving.refresh", "events"),
        ("serving/degraded", "counter", "serving", True),
        ("serving/timeouts", "counter", "serving", True),
        ("serving/backpressure_waits", "counter", "serving", True),
        ("serving/refresh_errors", "counter", "serving", True),
        ("serving/batch_errors", "counter", "serving", True),
        ("serving/table_misses", "counter", "serving", True),
        ("serving/latency_us", "histogram", "serving", False),
        ("serving/batch_size", "histogram", "serving", False, "serving.flush", "requests"),
        ("serving/lf_us", "histogram", "serving", True, "serving.flush", "lf_us"),
        ("serving/score_us", "histogram", "serving", True, "serving.flush", "score_us"),
        ("serving/refresh_us", "histogram", "serving", True, "serving.refresh", "us"),
    )
)

#: Stage event (== span name) -> the rows one ``stage()`` call feeds.
STAGES: dict[str, tuple[ContractKey, ...]] = {
    stage: tuple(row for row in KEY_CONTRACT if row.stage == stage)
    for stage in dict.fromkeys(row.stage for row in KEY_CONTRACT if row.stage)
}
