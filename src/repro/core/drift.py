"""Moment-based drift detection for streaming weak supervision.

DryBell's premise is labeling *non-stationary* organizational traffic:
content shifts, signals rot, and an LF suite that was accurate last
month quietly degrades (the paper's Section 3.3 diagnostics exist
precisely because "previously unknown low-quality sources" keep
appearing). A continuously running stream therefore needs an alarm that
fires when the vote distribution moves — *before* anyone inspects an
end-model metric — and a policy for what to do when it does.

The monitor reduces each micro-batch to its vote moments with
:func:`repro.core.patterns.vote_moments` — the formula the
:class:`~repro.core.online_label_model.OnlineLabelModel`'s monitoring
views read off its pattern table — and keeps them in two tracked
windows:

* a **reference window** — the first ``reference_batches`` micro-batches
  after start (or after a reference reset), aggregated once and then
  frozen: the regime the stream is assumed to be in;
* a **recent window** — a rolling window over the last
  ``recent_batches`` micro-batches: the regime the stream is actually
  in.

Per finalized micro-batch the monitor compares the two windows over
three moment families — per-LF mean votes ``E[lambda_j]`` (class-balance
and polarity shifts), per-LF fire rates ``P(lambda_j != 0)`` (coverage
shifts), and the pairwise agreement matrix ``E[lambda_j lambda_k]``
(correlation-structure shifts) — as pooled two-sample z statistics. The
**shift score** is the maximum absolute z over every tracked statistic;
an alarm fires when it exceeds ``threshold``. Because each statistic is
normalized by its pooled sampling variance, the score is ~O(1) on a
stationary stream regardless of batch size or LF count, so a single
threshold works across workloads.

Reactions are pluggable (``DriftPolicy.reactions``): ``"log"`` only
counts the alarm, and ``"reset_reference"`` adopts the recent window as
the new reference — the stream is declared to be in a new regime and
stops re-alarming on the same shift. (The online label model needs no
reaction: it solves its table on every batch.)

All monitor state snapshots bit-exactly (:meth:`DriftMonitor.state_dict`)
so checkpoint manifests can restore it and a resumed stream alarms on
exactly the batches the uninterrupted run would have.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.patterns import vote_moments
from repro.types import require_fields, require_int

__all__ = ["DriftPolicy", "DriftCheck", "DriftMonitor", "DRIFT_REACTIONS"]

#: The reaction names :class:`DriftPolicy` accepts, in execution order.
DRIFT_REACTIONS = ("log", "reset_reference")


@dataclass(frozen=True)
class DriftPolicy:
    """Configuration for :class:`DriftMonitor`.

    Attributes:
        reference_batches: Micro-batches aggregated into the frozen
            reference window after start or a reference reset. Larger
            values make the reference estimate tighter (fewer false
            alarms) but slow down the first possible check.
        recent_batches: Size of the rolling recent window. Detection
            latency is at most ``recent_batches`` micro-batches once the
            reference is built — the score is computed as soon as one
            shifted batch enters the window, but the statistic is
            diluted until the window is fully post-shift.
        threshold: Alarm threshold on the shift score (a max of pooled
            two-sample z statistics). Stationary streams score ~O(1-4)
            depending on how many statistics are tracked; the default 6
            keeps false alarms negligible while real shifts score in the
            tens.
        reactions: Reactions executed, in order, on every alarmed batch.
            Subset of :data:`DRIFT_REACTIONS`: ``"log"`` (count only),
            ``"reset_reference"`` (adopt the recent window as the new
            reference and clear the recent window).

    Raises:
        ValueError: If a window size is not an ``int`` >= 1 (a ``bool``
            is not one), the threshold is not positive, or a reaction
            name is unknown.
    """

    reference_batches: int = 8
    recent_batches: int = 4
    threshold: float = 6.0
    reactions: tuple[str, ...] = ("log",)

    def __post_init__(self) -> None:
        for name in ("reference_batches", "recent_batches"):
            require_int(getattr(self, name), name, minimum=1)
        if not self.threshold > 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        unknown = [r for r in self.reactions if r not in DRIFT_REACTIONS]
        if unknown:
            raise ValueError(
                f"unknown drift reactions {unknown}; choose from "
                f"{DRIFT_REACTIONS}"
            )


@dataclass(frozen=True)
class DriftCheck:
    """The outcome of feeding one micro-batch to :class:`DriftMonitor`.

    Attributes:
        batch: Monitor-local batch index (0-based count of observed
            batches).
        checked: Whether both windows were full, i.e. a score was
            actually computed. Batches consumed while the reference or
            recent window is still filling return ``checked=False``.
        score: The shift score (max pooled |z| over tracked statistics);
            0.0 when not checked.
        alarmed: Whether ``score`` exceeded the policy threshold.
        reactions: The reaction names that actually fired on this batch
            (empty unless alarmed).
    """

    batch: int
    checked: bool
    score: float
    alarmed: bool
    reactions: tuple[str, ...] = ()


@dataclass
class _WindowStats:
    """Vote-moment sums for one micro-batch (all integer-valued)."""

    vote_sum: np.ndarray
    fire_sum: np.ndarray
    agreement: np.ndarray
    count: float

    def __add__(self, other: "_WindowStats") -> "_WindowStats":
        return _WindowStats(
            self.vote_sum + other.vote_sum,
            self.fire_sum + other.fire_sum,
            self.agreement + other.agreement,
            self.count + other.count,
        )


def _window_total(window: deque[_WindowStats]) -> _WindowStats:
    """Aggregate a window's per-batch stats (exact: all integers)."""
    return functools.reduce(operator.add, window)


def _require_number(value, name: str) -> float:
    """``value`` as a float if it is an ``int`` or ``float`` (not a
    ``bool``, whose JSON is ``true``).

    Raises:
        ValueError: Otherwise.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class DriftMonitor:
    """Reference-vs-recent drift detector over streaming vote moments.

    Feed it every finalized micro-batch's votes, in stream order, via
    :meth:`observe_batch`. The monitor is deterministic: the same vote
    stream produces the same scores, alarms, and reactions, and a
    monitor restored from :meth:`state_dict` continues bit-exactly.

    Attributes:
        policy: The :class:`DriftPolicy` in force.
        n_lfs: LF count, fixed by the first observed batch.
        batches_observed: Total micro-batches fed to the monitor.
        checks_run: Batches for which a score was computed.
        alarms: Total alarmed batches.
        reference_resets: ``"reset_reference"`` reactions fired.
        first_alarm_batch: Monitor-local index of the first alarmed
            batch, or ``None``.
        last_score: The most recent computed score (0.0 before the first
            check).
    """

    def __init__(self, policy: DriftPolicy | None = None) -> None:
        """Create a monitor.

        Args:
            policy: Windows/threshold/reactions; defaults to
                ``DriftPolicy()``.
        """
        self.policy = policy or DriftPolicy()
        self.n_lfs: int | None = None
        self.batches_observed = 0
        self.checks_run = 0
        self.alarms = 0
        self.reference_resets = 0
        self.first_alarm_batch: int | None = None
        self.last_score = 0.0
        # Frozen reference window (sums over reference_batches batches).
        self._ref: _WindowStats | None = None
        self._ref_batches = 0
        # Rolling recent window, one _WindowStats per batch.
        self._recent: deque[_WindowStats] = deque()

    # ------------------------------------------------------------------
    # streaming interface
    # ------------------------------------------------------------------
    def observe_batch(self, votes: np.ndarray) -> DriftCheck:
        """Fold one micro-batch of votes in; maybe score, maybe alarm.

        Args:
            votes: ``(B, m)`` array over ``{-1, 0, +1}``, in stream
                order. ``m`` is fixed by the first batch.

        Returns:
            A :class:`DriftCheck` describing what happened — whether a
            score was computed, its value, and any reactions fired.

        Raises:
            ValueError: On a non-2-D batch, a column-count mismatch, or
                votes outside ``{-1, 0, 1}``.
        """
        stats = self._batch_stats(votes)
        batch = self.batches_observed
        self.batches_observed += 1
        if stats.count == 0:
            return DriftCheck(batch=batch, checked=False, score=0.0, alarmed=False)
        if self._ref_batches < self.policy.reference_batches:
            self._fold_into_reference(stats)
            return DriftCheck(batch=batch, checked=False, score=0.0, alarmed=False)
        self._recent.append(stats)
        while len(self._recent) > self.policy.recent_batches:
            self._recent.popleft()
        if len(self._recent) < self.policy.recent_batches:
            return DriftCheck(batch=batch, checked=False, score=0.0, alarmed=False)
        score = self._score()
        self.checks_run += 1
        self.last_score = score
        alarmed = bool(score > self.policy.threshold)
        fired: tuple[str, ...] = ()
        if alarmed:
            self.alarms += 1
            if self.first_alarm_batch is None:
                self.first_alarm_batch = batch
            fired = self._react()
        return DriftCheck(
            batch=batch,
            checked=True,
            score=score,
            alarmed=alarmed,
            reactions=fired,
        )

    def reset_reference(self) -> None:
        """Adopt the recent window as the new reference regime.

        The recent window's aggregate seeds the new reference and the
        recent window empties. When ``recent_batches <
        reference_batches`` the seeded reference keeps absorbing
        subsequent batches until it holds ``reference_batches`` of them
        (only then does the recent window start refilling), so the next
        check happens up to ``reference_batches`` batches after the
        reset — the post-alarm blind spot to budget for when sizing the
        windows. With an empty recent window this clears the reference
        entirely and the next ``reference_batches`` batches rebuild it.
        """
        if self._recent:
            self._ref = _window_total(self._recent)
            self._ref_batches = len(self._recent)
            self._recent.clear()
        else:
            self._ref = None
            self._ref_batches = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _batch_stats(self, votes: np.ndarray) -> _WindowStats:
        """Validate one batch and reduce it to its moment sums."""
        votes = np.asarray(votes)
        if votes.ndim != 2:
            raise ValueError(f"votes must be 2-D, got shape {votes.shape}")
        if self.n_lfs is None:
            self.n_lfs = votes.shape[1]
        elif votes.shape[1] != self.n_lfs:
            raise ValueError(
                f"vote batch has {votes.shape[1]} columns, monitor has "
                f"{self.n_lfs} labeling functions"
            )
        if votes.size and not np.isin(votes, (-1, 0, 1)).all():
            bad = votes[~np.isin(votes, (-1, 0, 1))][0]
            raise ValueError(f"votes must be in {{-1, 0, 1}}, got {bad!r}")
        return _WindowStats(*vote_moments(votes))

    def _fold_into_reference(self, stats: _WindowStats) -> None:
        """Accumulate one batch into the still-filling reference window."""
        self._ref = stats if self._ref is None else self._ref + stats
        self._ref_batches += 1

    def _score(self) -> float:
        """Max pooled two-sample |z| over mean/fire/agreement statistics."""
        ref = self._ref
        rec = _window_total(self._recent)
        n1, n2 = ref.count, rec.count
        inv = 1.0 / n1 + 1.0 / n2
        # A variance floor keeps deterministic statistics (zero sample
        # variance) from dividing by zero while still letting a changed
        # deterministic statistic score far above any threshold.
        var_floor = 1.0 / (n1 + n2)

        def z(diff: np.ndarray, pooled_var: np.ndarray) -> float:
            se = np.sqrt(np.maximum(pooled_var, var_floor) * inv)
            return float(np.max(np.abs(diff) / se)) if diff.size else 0.0

        scores = []
        # Mean votes: E[lambda_j]; var = E[lambda^2] - E[lambda]^2 and
        # E[lambda^2] is exactly the fire rate for votes in {-1, 0, 1}.
        mean1 = ref.vote_sum / n1
        mean2 = rec.vote_sum / n2
        pooled_mean = (ref.vote_sum + rec.vote_sum) / (n1 + n2)
        pooled_fire = (ref.fire_sum + rec.fire_sum) / (n1 + n2)
        scores.append(z(mean1 - mean2, pooled_fire - pooled_mean**2))
        # Fire rates: Bernoulli variance p(1-p) at the pooled rate.
        fire1 = ref.fire_sum / n1
        fire2 = rec.fire_sum / n2
        scores.append(z(fire1 - fire2, pooled_fire * (1.0 - pooled_fire)))
        # Agreement matrix, strict upper triangle (the diagonal is the
        # fire rate, already covered). The product lambda_j lambda_k is
        # in {-1, 0, 1}, so E[(lambda_j lambda_k)^2] <= 1 and we bound
        # its variance by 1 - E[lambda_j lambda_k]^2, the worst case
        # over co-fire rates — slightly conservative, which only ever
        # *suppresses* false alarms.
        m = self.n_lfs or 0
        if m >= 2:
            iu = np.triu_indices(m, k=1)
            agree1 = (ref.agreement / n1)[iu]
            agree2 = (rec.agreement / n2)[iu]
            pooled_agree = ((ref.agreement + rec.agreement) / (n1 + n2))[iu]
            scores.append(z(agree1 - agree2, 1.0 - pooled_agree**2))
        return max(scores)

    def _react(self) -> tuple[str, ...]:
        """Execute the policy's reactions; returns the names fired."""
        fired = []
        for reaction in self.policy.reactions:
            if reaction == "log":
                fired.append(reaction)
            elif reaction == "reset_reference":
                self.reset_reference()
                self.reference_resets += 1
                fired.append(reaction)
        return tuple(fired)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Bit-exact snapshot of everything :meth:`observe_batch` mutates.

        Returns:
            A JSON-safe dict (arrays as base64 raw buffers) that
            :meth:`load_state` restores exactly — a resumed monitor
            scores and alarms on the same batches as one that never
            stopped.
        """
        from repro.dfs.records import encode_ndarray

        def enc_window(stats: _WindowStats | None) -> dict | None:
            if stats is None:
                return None
            return {
                "vote_sum": encode_ndarray(stats.vote_sum),
                "fire_sum": encode_ndarray(stats.fire_sum),
                "agreement": encode_ndarray(stats.agreement),
                "count": stats.count,
            }

        return {
            "schema": 1,
            "n_lfs": self.n_lfs,
            "batches_observed": self.batches_observed,
            "checks_run": self.checks_run,
            "alarms": self.alarms,
            "reference_resets": self.reference_resets,
            "first_alarm_batch": self.first_alarm_batch,
            "last_score": self.last_score,
            "reference": enc_window(self._ref),
            "reference_batches": self._ref_batches,
            "recent": [enc_window(stats) for stats in self._recent],
        }

    def load_state(self, state: dict) -> "DriftMonitor":
        """Restore a :meth:`state_dict` snapshot onto this instance.

        The monitor must have been constructed with the same policy the
        snapshot was taken under (policies are the caller's contract,
        the snapshot carries only mutable state).

        Args:
            state: A dict produced by :meth:`state_dict` (an earlier
                writer's ``forced_refits`` count is ignored).

        Returns:
            ``self``, for chaining.

        Raises:
            ValueError: If ``state`` is not a dict; on any schema but 1
                — a snapshot from a newer writer must not be half-read
                — a missing key, a counter or ``n_lfs`` that is not an
                ``int``, a score or window count that is not a number,
                or a window that is not a dict of encoded arrays shaped
                for ``n_lfs``; everything is decoded before any state
                changes, so nothing is restored then.
        """
        from repro.dfs.records import decode_ndarray

        schema = require_fields(state, "drift state").get("schema")
        if schema != 1:
            raise ValueError(
                f"unsupported drift state schema {schema!r}; "
                "this reader understands schema 1"
            )
        names = (
            "batches_observed",
            "checks_run",
            "alarms",
            "reference_resets",
            "reference_batches",
        )
        require_fields(
            state,
            "drift state",
            (*names, "n_lfs", "first_alarm_batch", "last_score", "reference", "recent"),
        )
        counters = {key: require_int(state[key], key) for key in names}
        first = state["first_alarm_batch"]
        if first is not None:
            first = require_int(first, "first_alarm_batch")
        n_lfs = state["n_lfs"]
        if n_lfs is not None:
            require_int(n_lfs, "n_lfs", minimum=0)
        last_score = _require_number(state["last_score"], "last_score")
        if not isinstance(state["recent"], list):
            raise ValueError(f"drift state recent must be a list, got {state['recent']!r}")

        def dec_window(payload: dict) -> _WindowStats:
            require_fields(
                payload, "drift window", ("vote_sum", "fire_sum", "agreement", "count")
            )
            stats = _WindowStats(
                vote_sum=decode_ndarray(payload["vote_sum"]),
                fire_sum=decode_ndarray(payload["fire_sum"]),
                agreement=decode_ndarray(payload["agreement"]),
                count=_require_number(payload["count"], "drift window count"),
            )
            m = -1 if n_lfs is None else n_lfs  # no shape fits an empty monitor
            shapes = (stats.vote_sum.shape, stats.fire_sum.shape, stats.agreement.shape)
            if shapes != ((m,), (m,), (m, m)):
                raise ValueError(
                    f"drift window has shapes {shapes} for n_lfs={n_lfs}"
                )
            return stats

        reference = None if state["reference"] is None else dec_window(state["reference"])
        recent = deque(dec_window(payload) for payload in state["recent"])

        self.n_lfs = n_lfs
        self.batches_observed = counters["batches_observed"]
        self.checks_run = counters["checks_run"]
        self.alarms = counters["alarms"]
        self.reference_resets = counters["reference_resets"]
        self.first_alarm_batch = first
        self.last_score = last_score
        self._ref = reference
        self._ref_batches = counters["reference_batches"]
        self._recent = recent
        return self
