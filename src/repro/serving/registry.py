"""Checkpoint-backed serving registry with atomic generation hot-swap.

The streaming tier (PR 3) already publishes bit-exact deployable
artifacts: every :class:`~repro.streaming.checkpoint.CheckpointManager`
manifest snapshots the online label model (plus drift state when a
policy is set) with write-then-rename atomicity. This module closes the loop the
paper describes for TFX — "once trained, we use TFX to automatically
stage it for serving" — by treating the newest manifest under a durable
root as the unit of deployment:

* :class:`CheckpointModelRegistry` lists the root on each
  :meth:`~CheckpointModelRegistry.refresh` (a
  :class:`~repro.serving.service.LabelServer` leader calls it on the
  request path, at most once per ``poll_ms``) and, when a newer
  manifest is there, restores it (the restore solves the snapshot's
  pattern table, so the label model is offline-exact), and swaps the
  new :class:`ServingGeneration` in with a single
  reference assignment — readers never block and never observe a
  half-loaded generation;
* every swap increments the ``serving/swaps`` counter, so operators can
  watch deployments through the same registry seam as every other
  subsystem (:attr:`CheckpointModelRegistry.generation` carries the
  level);
* generations are immutable (frozen dataclass): an in-flight request
  batch that snapshotted generation N keeps scoring against N even if
  N+1 activates mid-batch — the no-torn-reads contract the serving
  tests hammer.

Because the restore's solve and an offline
:meth:`~repro.core.label_model.SamplingFreeLabelModel.fit` are the same
``fit_compressed`` call on the same ``(patterns, counts)``, posteriors
served from a generation are bitwise equal to an offline fit of the
snapshot's stream prefix, in any row order (the ARCHITECTURE invariant
the serving benchmark enforces). The manifest carries O(patterns) state
and the restore's solve costs O(patterns x m^2) per step, so generation
activation does not slow down as streams grow.

The generation also owns scoring (:meth:`ServingGeneration.score`): at
load it scores the snapshot's retained vote patterns once and keeps
``{pattern -> posterior}``, so a request whose votes form a known
pattern — nearly all of them — is answered by a dictionary read, and
only patterns first seen after the snapshot take a ``predict_proba``
call. Both produce the same bits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.core.label_model import SamplingFreeLabelModel
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.dfs.filesystem import DistributedFileSystem
from repro.obs.registry import MetricsRegistry
from repro.streaming.checkpoint import Checkpoint, CheckpointManager

__all__ = ["ServingGeneration", "CheckpointModelRegistry"]

#: Vote blocks are zero-padded to a multiple of this many rows before
#: ``predict_proba``. BLAS gemv kernels process rows in small vector
#: blocks and fall back to a scalar loop for the remainder, which can
#: round the last ULP differently than the vectorized path; padding
#: keeps every *real* row on the vectorized path, making a row's
#: posterior independent of what else shares its block — bitwise equal
#: to offline full-matrix scoring for any micro-batch composition, and
#: to the same row scored alone for the pattern table. Zero rows are
#: valid votes (all-abstain) and are sliced off after scoring.
_SCORE_PAD_ROWS = 32


@dataclass(frozen=True)
class ServingGeneration:
    """One immutable deployed snapshot, built from a single manifest.

    A generation is the unit of hot swap: the registry builds it fully
    before anything can read it, then publishes it with one atomic
    reference assignment. Requests that captured an older generation
    finish against that object — nothing here mutates after
    construction.
    """

    generation: int
    """Monotonic deployment number (1 = first manifest ever served)."""
    manifest_path: str
    """The durable manifest this generation was loaded from."""
    batch: int
    """Last finalized stream batch covered by the snapshot."""
    cursor: int
    """Examples consumed by the stream up to and including ``batch``."""
    lf_names: tuple[str, ...]
    """LF suite recorded in the manifest (empty for legacy manifests)."""
    label_model: SamplingFreeLabelModel
    """Offline-exact generative model (the restore's solve), scoring-ready."""
    posteriors: Mapping[bytes, float]
    """Posterior of every vote pattern the snapshot's pattern table
    retains, keyed by the int8 row's bytes; read-only, filled at load by
    :meth:`score` itself."""

    def score(self, votes: np.ndarray) -> tuple[list[float], int]:
        """Score vote rows: the generation's one scoring method.

        Rows whose pattern is in :attr:`posteriors` are answered from
        it; the rest go together through one zero-padded
        ``predict_proba`` call. The table was filled by that same padded
        call and a row's posterior does not depend on what shares its
        block, so a hit is bitwise the value the miss path computes —
        and the snapshot's offline fit gives.

        Args:
            votes: ``(n, m)`` vote block.

        Returns:
            The ``n`` posteriors ``P(y = +1)`` in row order, and how many
            rows missed the table.
        """
        votes = np.asarray(votes, dtype=np.int8)
        width = votes.shape[1]
        data = votes.tobytes()
        lookup = self.posteriors.get
        posteriors = [
            lookup(data[at:at + width]) for at in range(0, len(data), width)
        ]
        misses = [i for i, hit in enumerate(posteriors) if hit is None]
        if misses:
            block = votes[misses]
            pad = (-len(misses)) % _SCORE_PAD_ROWS
            if pad:
                block = np.vstack([block, np.zeros((pad, width), np.int8)])
            scored = self.label_model.predict_proba(block).tolist()
            for i, posterior in zip(misses, scored):
                posteriors[i] = posterior
        return posteriors, len(misses)


class CheckpointModelRegistry:
    """Loads and hot-swaps serving generations from checkpoint manifests.

    The registry polls (via :meth:`refresh`, which a
    :class:`~repro.serving.service.LabelServer` leader calls before it
    scores a batch) the durable root written by a
    :class:`~repro.streaming.checkpoint.CheckpointedStream`. When the
    newest manifest path differs from the active generation's, it loads
    the manifest, restores the online label model with the *same*
    configuration the stream used (whose restore solves the table to
    offline-exact parameters), and atomically swaps the generation.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        root: str,
        online_config: OnlineLabelModelConfig | None = None,
    ) -> None:
        """Point a registry at a durable root.

        Args:
            dfs: Filesystem holding the checkpoint manifests.
            root: Durable root (manifests under ``{root}/checkpoints``).
            online_config: Label-model configuration, which must match
                the configuration the stream that wrote the manifests
                used — snapshot state only restores into an identically
                configured model. Defaults to the stream default.
        """
        self.manager = CheckpointManager(dfs, root)
        self.online_config = online_config or OnlineLabelModelConfig()
        #: The serving tier's one scoped registry; the
        #: :class:`~repro.serving.service.LabelServer` emits through it
        #: too and attaches its ``telemetry=`` / ``tracer=`` to it.
        self.metrics = MetricsRegistry().attach(None)
        self.counters = self.metrics.counters
        self._swap_lock = threading.Lock()
        self._active: ServingGeneration | None = None

    # ------------------------------------------------------------------
    # read side (request path — lock-free)
    # ------------------------------------------------------------------
    def active(self) -> ServingGeneration | None:
        """The currently deployed generation, or ``None`` before the
        first manifest loads (the degraded regime).

        Lock-free: a single reference read, safe from any thread. The
        returned object is immutable — callers score whole request
        batches against one captured generation.
        """
        return self._active

    @property
    def generation(self) -> int:
        """Active generation number; 0 while no generation is deployed."""
        active = self._active
        return 0 if active is None else active.generation

    def abstain_prior(self) -> float:
        """The degraded-mode posterior: the configured class prior.

        Before any generation is deployed, every example carries only
        the prior ``P(y = +1)`` of the configured label model.
        """
        return float(
            SamplingFreeLabelModel(
                replace(self.online_config.base)
            ).class_prior()
        )

    # ------------------------------------------------------------------
    # write side (deploy path: start() and a refreshing leader)
    # ------------------------------------------------------------------
    def refresh(self) -> ServingGeneration | None:
        """Deploy the newest manifest if it differs from the active one.

        Returns:
            The active generation after the check — the freshly swapped
            one when a newer manifest was found, the unchanged current
            one otherwise, or ``None`` when the root has no manifest
            yet.

        Raises:
            ValueError: If the newest manifest's records decode but do
                not form a deployable manifest (wrong schema, missing
                or malformed label-model state, ``lf_names`` that are
                not a list of names); the active generation is left
                untouched.
            repro.dfs.records.RecordCorruption: If the newest manifest's
                record framing is torn; the active generation is left
                untouched. (The server counts both cases as
                ``serving/refresh_errors`` and keeps serving.)
        """
        with self._swap_lock:
            path = self.manager.latest_path()
            if path is None:
                return self._active
            active = self._active
            if active is not None and active.manifest_path == path:
                return active
            started = self.metrics.clock()
            generation = self._load_generation(
                self.manager.load(path),
                1 if active is None else active.generation + 1,
            )
            # The swap: one reference assignment. In-flight batches that
            # captured the previous generation keep scoring against it.
            self._active = generation
            self.metrics.stage(
                "serving.refresh", since=started, generation=generation.generation
            )
            return generation

    def _load_generation(
        self, checkpoint: Checkpoint, number: int
    ) -> ServingGeneration:
        """Rebuild scoring-ready models from one decoded manifest.

        Raises:
            ValueError: If the meta's ``lf_names`` is not a list of
                strings, or the label-model state is malformed.
        """
        lf_names = checkpoint.meta.get("lf_names") or []
        if not isinstance(lf_names, list) or not all(
            isinstance(name, str) for name in lf_names
        ):
            raise ValueError(
                f"{checkpoint.path} has lf_names {lf_names!r}, not a list of names"
            )
        # The restore solves the snapshot's table: in cumulative mode
        # that is the offline fit of the stream prefix, bit for bit.
        online = OnlineLabelModel(self.online_config)
        online.load_state(checkpoint.label_model_state)
        generation = ServingGeneration(
            generation=number,
            manifest_path=checkpoint.path,
            batch=checkpoint.batch,
            cursor=checkpoint.cursor,
            lf_names=tuple(lf_names),
            label_model=online.model,
            posteriors=MappingProxyType({}),
        )
        # Score the retained patterns once, at load, through the request
        # path's own scoring method: against an empty table every row
        # takes the padded call.
        patterns = online.compressed_votes().patterns.astype(np.int8)
        scored, _ = generation.score(patterns)
        table = {row.tobytes(): p for row, p in zip(patterns, scored)}
        return replace(generation, posteriors=MappingProxyType(table))
