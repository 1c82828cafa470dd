"""Online generative label model for streaming weak supervision.

The Section 5.2 trainer (:class:`SamplingFreeLabelModel`) fits a whole
``(n, m)`` label matrix. A streaming deployment sees votes one
micro-batch at a time and can never hold the raw examples; this module
provides the incremental counterpart built on two observations about
the conditionally independent model:

1. **The data enters the likelihood only as a multiset of vote
   patterns.** For m labeling functions there are at most ``3^m``
   distinct vote rows, and in practice a handful: the stream is retained
   losslessly as a *pattern table* — each distinct row stored once, with
   the count (or recency weight) of examples that voted it. The table is
   O(patterns) however long the stream runs, and it is exactly the
   :class:`~repro.core.patterns.CompressedVotes` form every fit trains
   on.
2. **The vote moments are a function of the table.** Per-LF mean
   votes, fire rates, and the pairwise agreement matrix — the Section
   3.3 "previously unknown low-quality sources" diagnostics — are read
   off the table on demand (:func:`repro.core.patterns.vote_moments`,
   O(patterns x m^2) per call), so the stream keeps one record of its
   votes, not a table plus running sums.

There is one trainer. ``observe(votes)`` folds a micro-batch into the
pattern table and solves it with ``refit()`` — the
:meth:`SamplingFreeLabelModel.fit_compressed` call offline ``fit(L)``
makes on ``compress_votes(L)`` — on every batch, and ``load_state``
solves the restored table the same way. The parameters are a function
of the table: **every posterior the stream hands out is bitwise the
offline fit of the retained rows through its own batch, in any
order**.

Retention modes
---------------
Production traffic is non-stationary; a refit that pools all of history
keeps trusting labeling functions long after they rot. The table
therefore runs in one of two modes, selected by the config:

* **cumulative** (default): pattern counts grow without forgetting; a
  refit equals the offline fit of the whole stream prefix.
* **decay** (``decay=0.95``-ish): every observed micro-batch multiplies
  the per-pattern weights by ``decay`` before folding the new batch in
  — an exponential recency window with half-life ``ln 2 /
  ln(1/decay)`` batches. Patterns whose weight sinks below
  :data:`PATTERN_WEIGHT_FLOOR` are evicted, so the table's footprint tracks
  the *recent* pattern diversity, not all of history. Refits count each
  retained pattern ``round(weight)`` times; the moment views weigh it by
  its raw decayed weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.patterns import CompressedVotes, compress_votes, vote_moments
from repro.types import require_fields, require_int

__all__ = ["OnlineLabelModelConfig", "OnlineLabelModel"]

#: Decay mode evicts patterns whose decayed weight falls below this
#: floor. It lies in (0, 1), so a pattern seen in the current batch
#: (weight >= 1) is never evicted on arrival.
PATTERN_WEIGHT_FLOOR = 0.25


@dataclass
class OnlineLabelModelConfig:
    """Configuration for :class:`OnlineLabelModel`.

    ``base`` is the offline trainer configuration used verbatim by
    :meth:`OnlineLabelModel.refit` — keep it identical to the offline
    model you want streaming runs to converge to. ``decay`` picks the
    retention mode: cumulative when ``None``, decay otherwise.
    """

    base: LabelModelConfig = field(default_factory=LabelModelConfig)
    refit_every: int | None = None
    """Unread: every batch is solved. Kept so that configs built with
    one stay valid."""
    seed: int = 0
    """Unread: every update is a deterministic solve that draws
    nothing. Kept so that configs built with one stay valid."""
    decay: float | None = None
    """Per-batch exponential decay on pattern weights, in (0, 1);
    ``None`` keeps the cumulative all-of-history behavior."""


class OnlineLabelModel:
    """Streaming pattern table for the label model, solved on every
    batch.

    Feed micro-batches via :meth:`observe`; read the fit of the retained
    pattern table from :attr:`model`. Retention semantics (cumulative /
    decay) are set by the config — see the module docstring.
    """

    def __init__(self, config: OnlineLabelModelConfig | None = None) -> None:
        """Build an empty model.

        Args:
            config: Trainer + retention configuration; defaults to
                cumulative retention with the default offline config.

        Raises:
            ValueError: If the config sets ``decay`` outside (0, 1).
        """
        self.config = config or OnlineLabelModelConfig()
        cfg = self.config
        if cfg.decay is not None and not (0.0 < cfg.decay < 1.0):
            raise ValueError(f"decay must be in (0, 1), got {cfg.decay}")
        self._model = SamplingFreeLabelModel(replace(cfg.base))
        self.n_lfs: int | None = None
        self.n_observed = 0
        self.batches_observed = 0
        self.refits_done = 0
        # Pattern table: distinct vote rows in arrival order with the
        # retained mass per pattern — example counts (cumulative) or
        # decayed weights (decay).
        self._pattern_ids: dict[bytes, int] = {}
        self._pattern_rows: list[np.ndarray] = []
        self._pattern_weights = np.zeros(0)

    @property
    def mode(self) -> str:
        """Retention mode: ``"cumulative"`` or ``"decay"``."""
        return "cumulative" if self.config.decay is None else "decay"

    # ------------------------------------------------------------------
    # streaming updates
    # ------------------------------------------------------------------
    def observe(self, votes: np.ndarray) -> None:
        """Fold one micro-batch of votes into the model.

        ``votes`` is an ``(B, m)`` array over ``{-1, 0, +1}``; rows are
        counted into the pattern table (and, in decay mode, displace
        stale history), and the table is solved (:meth:`refit`).

        Args:
            votes: The micro-batch's vote rows.

        Raises:
            ValueError: On a non-2-D batch, a column-count mismatch with
                earlier batches, or votes outside ``{-1, 0, 1}``.
        """
        votes = self._validate(votes)
        if votes.shape[0] == 0:
            return
        self._append_patterns(votes)
        self.n_observed += votes.shape[0]
        self.batches_observed += 1
        self.refit()

    def refit(self) -> SamplingFreeLabelModel:
        """Solve the retained pattern table: the ``base`` config's
        :meth:`SamplingFreeLabelModel.fit_compressed` on
        :meth:`compressed_votes`, the call offline ``fit`` makes, so in
        cumulative mode the result is bitwise the offline fit of the
        retained rows in any order (in decay mode, of the
        recency-weighted rows), at O(patterns × m² + m³) per solver iteration.

        Returns:
            The fitted inner model (also exposed as :attr:`model`).

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        if self.n_observed == 0:
            raise RuntimeError("cannot refit before observing any votes")
        self._model = self._solve(self.compressed_votes())
        self.refits_done += 1
        return self._model

    def compressed_votes(self) -> CompressedVotes:
        """The retained stream as a pattern-compressed vote matrix.

        * cumulative mode: the retained patterns with their example
          counts — equal, field by field, to
          ``compress_votes`` of the retained rows;
        * decay mode: each pattern's multiplicity is ``round(weight)``
          (half-up, so a weight at 0.5 still contributes a row);
          zero-multiplicity patterns are omitted.

        Returns:
            The :class:`~repro.core.patterns.CompressedVotes` the next
            refit trains on.

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        if self.n_observed == 0:
            raise RuntimeError("no votes observed yet")
        return self._table_votes(np.vstack(self._pattern_rows), self._pattern_weights)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _table_votes(self, rows: np.ndarray, weights: np.ndarray) -> CompressedVotes:
        if self.mode == "decay":
            weights = np.floor(weights + 0.5)
        keep = weights > 0.0
        weights = weights[keep]
        return CompressedVotes(
            patterns=rows[keep], weights=weights, n_rows=float(weights.sum())
        )

    def _solve(self, votes: CompressedVotes) -> SamplingFreeLabelModel:
        return SamplingFreeLabelModel(replace(self.config.base)).fit_compressed(votes)

    def _validate(self, votes: np.ndarray) -> np.ndarray:
        votes = np.asarray(votes)
        if votes.ndim != 2:
            raise ValueError(f"votes must be 2-D, got shape {votes.shape}")
        if self.n_lfs is None:
            self.n_lfs = votes.shape[1]
        elif votes.shape[1] != self.n_lfs:
            raise ValueError(
                f"vote batch has {votes.shape[1]} columns, model has "
                f"{self.n_lfs} labeling functions"
            )
        outside = (votes != 0) & (votes != 1) & (votes != -1)
        if outside.any():
            raise ValueError(f"votes must be in {{-1, 0, 1}}, got {votes[outside][0]!r}")
        return votes.astype(np.int8, copy=False)

    def _append_patterns(self, votes: np.ndarray) -> None:
        decay = self.mode == "decay"
        batch = compress_votes(votes)
        if decay:
            # Age the whole table before folding this batch in.
            self._pattern_weights *= self.config.decay
        ids = np.empty(batch.n_patterns, dtype=np.int32)
        for k, row in enumerate(batch.patterns):
            key = row.tobytes()
            pattern = self._pattern_ids.get(key)
            if pattern is None:
                pattern = len(self._pattern_rows)
                self._pattern_ids[key] = pattern
                self._pattern_rows.append(row.copy())
            ids[k] = pattern
        new_rows = len(self._pattern_rows) - len(self._pattern_weights)
        if new_rows:
            self._pattern_weights = np.concatenate(
                [self._pattern_weights, np.zeros(new_rows)]
            )
        self._pattern_weights[ids] += batch.weights
        if decay:
            self._evict_patterns(self._pattern_weights >= PATTERN_WEIGHT_FLOOR)

    def _evict_patterns(self, keep: np.ndarray) -> None:
        """Drop patterns where ``keep`` is False; renumber the rest."""
        if bool(keep.all()):
            return
        self._pattern_rows = [
            row for row, kept in zip(self._pattern_rows, keep) if kept
        ]
        self._pattern_ids = {
            row.tobytes(): i for i, row in enumerate(self._pattern_rows)
        }
        self._pattern_weights = self._pattern_weights[keep]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Bit-exact snapshot of everything :meth:`observe` mutates: the
        counters (``batches_observed`` here, ``steps_taken`` on the inner
        model), the pattern table (rows and their counts or decayed
        weights) and its solved parameters, which a restore solves again.
        The vote moments are not stored: they are a function of the
        table. Everything is O(patterns), however long the stream runs.

        Returns:
            A JSON-safe dict (arrays as base64 raw buffers). Schema 6;
            readers accept schemas 1-5 too (see :meth:`load_state`).
        """
        from repro.dfs.records import encode_ndarray

        rows = np.vstack(self._pattern_rows) if self._pattern_rows else None
        return {
            "schema": 6,
            "n_lfs": self.n_lfs,
            "n_observed": self.n_observed,
            "batches_observed": self.batches_observed,
            "refits_done": self.refits_done,
            "pattern_rows": None if rows is None else encode_ndarray(rows),
            "pattern_weights": encode_ndarray(self._pattern_weights),
            "model": self._model.state_dict(),
        }

    def load_state(self, state: dict) -> "OnlineLabelModel":
        """Restore a :meth:`state_dict` snapshot onto this instance.

        The instance must have been constructed with the same config the
        snapshot was taken under (the snapshot carries only mutable
        state). Schemas 1 and 2's per-example pattern-id log is counted
        into pattern weights; schema 3's sliding-window keys, schemas
        1-4's stored vote moments and schemas 1-5's ``rng_state`` are
        ignored. The stored parameters are validated, then replaced by a
        solve of the restored table (not counted in ``refits_done``).

        Args:
            state: A dict produced by :meth:`state_dict` (schema 1-6).

        Returns:
            ``self``, for chaining.

        Raises:
            ValueError: If ``state`` is not a dict; on any other schema
                — a snapshot from a newer writer must not be half-read —
                on a missing key, a counter that is not an ``int`` >= 0,
                an ``n_lfs`` that is not an ``int`` >= 1 (or ``None`` for
                an empty model), a part that is not an encoded array,
                parts whose shapes disagree, or a pattern weight that is
                not finite and >= 0; nothing is restored then.
        """
        from repro.dfs.records import decode_ndarray

        def dec(payload):
            return None if payload is None else decode_ndarray(payload)

        schema = require_fields(state, "label-model state").get("schema")
        if schema not in (1, 2, 3, 4, 5, 6):
            raise ValueError(
                f"unsupported label-model state schema {schema!r}; this "
                "reader understands schemas 1 to 6"
            )
        names = ("n_observed", "batches_observed", "refits_done")
        require_fields(
            state, "label-model state", (*names, "n_lfs", "pattern_rows", "model")
        )
        counters = {key: require_int(state[key], key, minimum=0) for key in names}
        n_lfs = state["n_lfs"]
        if n_lfs is not None:
            require_int(n_lfs, "n_lfs", minimum=1)
        rows = dec(state["pattern_rows"])
        n_rows = 0 if rows is None else len(rows)
        weights = dec(state.get("pattern_weights"))
        logged = dec(state.get("row_ids")) if schema < 3 else None
        if logged is not None:  # one pattern id per example: keep the counts
            weights = np.bincount(logged, minlength=n_rows).astype(np.float64)
        weights = np.zeros(n_rows) if weights is None else weights
        model = SamplingFreeLabelModel(replace(self.config.base))
        model.load_state(state["model"])
        for name, array, shape in (
            ("pattern_rows", rows, (n_rows, n_lfs)),
            ("pattern_weights", weights, (n_rows,)),
            ("alpha", model.alpha, (n_lfs,)),
            ("beta", model.beta, (n_lfs,)),
        ):
            if array is not None and array.shape != shape:
                raise ValueError(
                    f"label-model state is malformed: {name} has shape "
                    f"{array.shape}, expected {shape} for n_lfs={n_lfs}"
                )
        if not (np.isfinite(weights) & (weights >= 0)).all():
            raise ValueError(
                "label-model state is malformed: pattern_weights must be "
                "finite and >= 0"
            )
        if n_rows:
            model = self._solve(self._table_votes(rows, weights))

        self.n_lfs = n_lfs
        self.n_observed = counters["n_observed"]
        self.batches_observed = counters["batches_observed"]
        self.refits_done = counters["refits_done"]
        self._pattern_rows = [] if rows is None else [row for row in rows]
        self._pattern_ids = {
            row.tobytes(): i for i, row in enumerate(self._pattern_rows)
        }
        self._pattern_weights = weights
        self._model = model
        return self

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def model(self) -> SamplingFreeLabelModel:
        """The fit of the retained pattern table."""
        return self._model

    @property
    def n_patterns(self) -> int:
        """Distinct vote rows retained — the compressed stream size."""
        return len(self._pattern_rows)

    @property
    def effective_examples(self) -> float:
        """The weight behind the moment views: ``n_observed`` in
        cumulative mode, the retained table's decayed mass in decay
        mode (0.0 before any votes)."""
        return float(self._pattern_weights.sum())

    def predict_proba(self, L: np.ndarray) -> np.ndarray:
        """Posterior ``P(Y=+1 | L)`` from the current parameter estimate.

        Args:
            L: ``(n, m)`` vote matrix over ``{-1, 0, 1}``.

        Returns:
            ``(n,)`` float64 posteriors.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.predict_proba(L)

    def predict(self, L: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels in ``{-1, +1}`` at a probability threshold.

        Args:
            L: ``(n, m)`` vote matrix over ``{-1, 0, 1}``.
            threshold: Posterior cut; rows at exactly the threshold
                (no-evidence rows under the uniform prior) stay -1.

        Returns:
            ``(n,)`` int8 labels.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.predict(L, threshold)

    def accuracies(self) -> np.ndarray:
        """Estimated ``P(lambda_j correct | lambda_j != 0)`` per LF.

        Returns:
            ``(m,)`` float64 accuracies from the current estimate.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.accuracies()

    def propensities(self) -> np.ndarray:
        """Estimated ``P(lambda_j != 0)`` per LF.

        Returns:
            ``(m,)`` float64 propensities from the current estimate.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.propensities()

    # ------------------------------------------------------------------
    # vote moments (monitoring surface)
    # ------------------------------------------------------------------
    # Each view is computed on demand from the pattern table. In
    # cumulative mode the sums are exact integers in float64, so a view
    # equals, bitwise, the same moment computed from every observed row.
    # In decay mode a view weighs each retained pattern by its raw
    # decayed weight, so it describes the table the next refit fits
    # (before the fit rounds weights to counts). It differs from the
    # exponentially decayed moment of every observed row only by the
    # mass of evicted patterns, each below PATTERN_WEIGHT_FLOOR when it
    # was dropped.
    def mean_votes(self) -> np.ndarray:
        """First vote moment per LF: ``E[lambda_j]`` over the retained
        (recency-weighted) stream.

        Returns:
            ``(m,)`` float64 means.

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        vote_sum, _, _, mass = self._moments()
        return vote_sum / mass

    def fire_rates(self) -> np.ndarray:
        """Empirical propensity per LF: ``P(lambda_j != 0)`` over the
        retained (recency-weighted) stream.

        Returns:
            ``(m,)`` float64 rates.

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        _, fire_sum, _, mass = self._moments()
        return fire_sum / mass

    def agreement_matrix(self) -> np.ndarray:
        """Second vote moment ``E[lambda_j lambda_k]`` over the retained
        (recency-weighted) stream — the signal the LF-quality
        diagnostics read for polarity conflicts.

        Returns:
            ``(m, m)`` float64 matrix.

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        _, _, agreement, mass = self._moments()
        return agreement / mass

    def _moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        if self.n_observed == 0:
            raise RuntimeError("no votes observed yet")
        return vote_moments(np.vstack(self._pattern_rows), self._pattern_weights)
