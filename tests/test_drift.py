"""Tests for the drift layer: retention modes + the drift monitor.

Covers the tentpole bottom-up: the :class:`OnlineLabelModel`'s decay and
sliding-window retention modes (moment math, weighted pattern log,
eviction, recency-weighted reconstruction, bit-exact snapshots), the
:class:`DriftMonitor` (window mechanics, detection, false-alarm
behavior, reactions, bit-exact resume), and the pipeline/checkpoint
wiring that surfaces ``drift/*`` counters.
"""

import numpy as np
import pytest

from repro.core.drift import DriftMonitor, DriftPolicy
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.streaming import MemorySource, MicroBatchPipeline
from repro.types import Example

from tests.conftest import same_rows, synthetic_label_matrix


def draw_batches(
    n_batches,
    batch=256,
    accuracies=(0.9, 0.85, 0.8, 0.7),
    propensities=(0.6, 0.5, 0.55, 0.45),
    positive_rate=0.5,
    seed=0,
):
    """Seeded vote batches from the paper's generative model."""
    rng = np.random.default_rng(seed)
    accuracies = np.asarray(accuracies, dtype=float)
    propensities = np.asarray(propensities, dtype=float)
    out = []
    for _ in range(n_batches):
        y = np.where(rng.random(batch) < positive_rate, 1, -1).astype(np.int8)
        L = np.zeros((batch, len(accuracies)), dtype=np.int8)
        for j, (acc, prop) in enumerate(zip(accuracies, propensities)):
            fires = rng.random(batch) < prop
            correct = rng.random(batch) < acc
            L[fires, j] = np.where(correct[fires], y[fires], -y[fires])
        out.append(L)
    return out


SHIFTED = dict(accuracies=(0.1, 0.85, 0.5, 0.7), positive_rate=0.25)


# ----------------------------------------------------------------------
# policy validation
# ----------------------------------------------------------------------
class TestDriftPolicy:
    def test_defaults_are_valid(self):
        policy = DriftPolicy()
        assert policy.reactions == ("log",)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="reference_batches"):
            DriftPolicy(reference_batches=0)
        with pytest.raises(ValueError, match="recent_batches"):
            DriftPolicy(recent_batches=0)
        with pytest.raises(ValueError, match="threshold"):
            DriftPolicy(threshold=0.0)
        with pytest.raises(ValueError, match="unknown drift reactions"):
            DriftPolicy(reactions=("log", "page_oncall"))

    def test_refit_reaction_requires_callback(self):
        with pytest.raises(ValueError, match="refit_callback"):
            DriftMonitor(DriftPolicy(reactions=("refit",)))


# ----------------------------------------------------------------------
# monitor mechanics
# ----------------------------------------------------------------------
class TestDriftMonitor:
    def test_no_checks_until_both_windows_fill(self):
        monitor = DriftMonitor(DriftPolicy(reference_batches=3, recent_batches=2))
        checks = [
            monitor.observe_batch(votes) for votes in draw_batches(6, seed=1)
        ]
        # 3 reference batches + 2 to fill the recent window: the first
        # score appears on the 5th batch.
        assert [c.checked for c in checks] == [False] * 4 + [True, True]
        assert monitor.checks_run == 2
        assert all(c.score == 0.0 for c in checks[:4])

    def test_stationary_stream_never_alarms(self):
        monitor = DriftMonitor(DriftPolicy())
        for votes in draw_batches(40, seed=2):
            monitor.observe_batch(votes)
        assert monitor.alarms == 0
        assert monitor.first_alarm_batch is None
        assert monitor.checks_run == 40 - 8 - 3  # ref 8, recent fills at 12

    def test_injected_shift_alarms_quickly_and_only_after(self):
        monitor = DriftMonitor(DriftPolicy())
        batches = draw_batches(20, seed=3) + draw_batches(8, seed=4, **SHIFTED)
        for votes in batches:
            monitor.observe_batch(votes)
        assert monitor.alarms >= 1
        # Monitor-local indices: the shift lands at batch 20.
        assert 20 <= monitor.first_alarm_batch <= 24
        assert monitor.last_score > monitor.policy.threshold

    def test_reset_reference_adopts_new_regime(self):
        policy = DriftPolicy(reactions=("log", "reset_reference"))
        monitor = DriftMonitor(policy)
        stream = draw_batches(16, seed=5) + draw_batches(24, seed=6, **SHIFTED)
        for votes in stream:
            monitor.observe_batch(votes)
        assert monitor.reference_resets >= 1
        # After adopting the shifted regime, continued shifted traffic
        # must stop alarming — the reset is what silences the siren.
        alarms_after_adoption = monitor.alarms
        for votes in draw_batches(12, seed=7, **SHIFTED):
            monitor.observe_batch(votes)
        assert monitor.alarms == alarms_after_adoption

    def test_without_reset_the_alarm_keeps_firing(self):
        monitor = DriftMonitor(DriftPolicy())  # log only
        stream = draw_batches(16, seed=5) + draw_batches(24, seed=6, **SHIFTED)
        for votes in stream:
            monitor.observe_batch(votes)
        # Reference still points at the old regime: every post-shift
        # check keeps scoring above threshold.
        assert monitor.alarms > 5

    def test_refit_reaction_invokes_callback(self):
        fired = []
        monitor = DriftMonitor(
            DriftPolicy(reactions=("refit", "reset_reference")),
            refit_callback=lambda: fired.append(True),
        )
        stream = draw_batches(16, seed=8) + draw_batches(8, seed=9, **SHIFTED)
        checks = [monitor.observe_batch(votes) for votes in stream]
        assert fired
        assert monitor.forced_refits == len(fired)
        alarmed = [c for c in checks if c.alarmed]
        assert alarmed and alarmed[0].reactions == ("refit", "reset_reference")

    def test_validation(self):
        monitor = DriftMonitor(DriftPolicy())
        with pytest.raises(ValueError, match="2-D"):
            monitor.observe_batch(np.array([1, 0, -1]))
        monitor.observe_batch(np.array([[1, -1, 0]]))
        with pytest.raises(ValueError, match="columns"):
            monitor.observe_batch(np.array([[1, -1]]))
        with pytest.raises(ValueError, match="votes"):
            monitor.observe_batch(np.array([[3, 0, 0]]))

    def test_empty_batch_is_counted_but_not_scored(self):
        monitor = DriftMonitor(DriftPolicy(reference_batches=1, recent_batches=1))
        check = monitor.observe_batch(np.zeros((0, 3), dtype=np.int8))
        assert not check.checked
        assert monitor.batches_observed == 1
        assert monitor._ref is None  # nothing entered the reference

    def test_state_round_trip_is_bitwise(self):
        """Resume mid-stream; scores/alarms must match an unbroken run."""
        policy = DriftPolicy(reactions=("log", "reset_reference"))
        stream = draw_batches(14, seed=10) + draw_batches(
            14, seed=11, **SHIFTED
        )

        straight = DriftMonitor(policy)
        straight_checks = [straight.observe_batch(v) for v in stream]

        prefix = DriftMonitor(policy)
        for votes in stream[:17]:
            prefix.observe_batch(votes)
        resumed = DriftMonitor(policy).load_state(prefix.state_dict())
        resumed_checks = [resumed.observe_batch(v) for v in stream[17:]]

        assert [c.score for c in resumed_checks] == [
            c.score for c in straight_checks[17:]
        ]
        assert resumed.alarms == straight.alarms
        assert resumed.first_alarm_batch == straight.first_alarm_batch
        assert resumed.reference_resets == straight.reference_resets
        assert resumed.state_dict() == straight.state_dict()


# ----------------------------------------------------------------------
# decay retention mode
# ----------------------------------------------------------------------
DECAY_CONFIG = OnlineLabelModelConfig(
    base=LabelModelConfig(n_steps=100, seed=0),
    steps_per_batch=0,
    decay=0.8,
)


class TestDecayMode:
    def test_mode_selection_and_validation(self):
        assert OnlineLabelModel().mode == "cumulative"
        assert OnlineLabelModel(DECAY_CONFIG).mode == "decay"
        assert (
            OnlineLabelModel(
                OnlineLabelModelConfig(window_batches=4)
            ).mode == "window"
        )
        with pytest.raises(ValueError, match="mutually exclusive"):
            OnlineLabelModel(
                OnlineLabelModelConfig(decay=0.9, window_batches=3)
            )
        with pytest.raises(ValueError, match="decay"):
            OnlineLabelModel(OnlineLabelModelConfig(decay=1.0))
        with pytest.raises(ValueError, match="decay"):
            OnlineLabelModel(OnlineLabelModelConfig(decay=0.0))
        with pytest.raises(ValueError, match="window_batches"):
            OnlineLabelModel(OnlineLabelModelConfig(window_batches=0))
        with pytest.raises(ValueError, match="pattern_weight_floor"):
            OnlineLabelModel(
                OnlineLabelModelConfig(decay=0.9, pattern_weight_floor=1.5)
            )

    def test_moments_follow_exponential_decay(self):
        batches = draw_batches(5, batch=100, seed=12)
        model = OnlineLabelModel(DECAY_CONFIG)
        for votes in batches:
            model.observe(votes)
        d = DECAY_CONFIG.decay
        expected_vote = np.zeros(4)
        expected_weight = 0.0
        for votes in batches:
            expected_vote = d * expected_vote + votes.astype(float).sum(axis=0)
            expected_weight = d * expected_weight + len(votes)
        np.testing.assert_array_equal(model._vote_sum, expected_vote)
        assert model.effective_examples == expected_weight
        np.testing.assert_allclose(
            model.mean_votes(), expected_vote / expected_weight
        )
        # The effective mass is far below the raw observed count.
        assert model.effective_examples < model.n_observed

    def test_pattern_weights_decay_and_evict(self):
        model = OnlineLabelModel(
            OnlineLabelModelConfig(steps_per_batch=0, decay=0.5)
        )
        early = np.array([[1, -1, 0]] * 4, dtype=np.int8)
        late = np.array([[0, 1, 1]] * 4, dtype=np.int8)
        model.observe(early)
        assert model.n_patterns == 1
        # 0.5 decay: the early pattern's weight is 4 * 0.5^k after k
        # later batches; with floor 0.25 it evicts once below.
        for _ in range(4):
            model.observe(late)
        assert model.n_patterns == 2  # weight 0.25 >= floor: retained
        model.observe(late)
        assert model.n_patterns == 1  # 0.125 < 0.25: evicted
        assert np.array_equal(model.compressed_votes().patterns, late[:1])

    def test_reconstruct_matrix_repeats_by_rounded_weight(self):
        """The matrix a default decay refit stands for (the expansion of
        ``compressed_votes()``) repeats each pattern round(weight) times."""
        model = OnlineLabelModel(
            OnlineLabelModelConfig(steps_per_batch=0, decay=0.5)
        )
        a = np.array([[1, 0, -1]] * 6, dtype=np.int8)
        b = np.array([[0, 1, 0]] * 2, dtype=np.int8)
        model.observe(a)
        model.observe(b)
        # Weights now: a = 6 * 0.5 = 3, b = 2.
        L = model.compressed_votes().expand()
        assert L.shape == (5, 3)
        assert (L == a[0]).all(axis=1).sum() == 3
        assert (L == b[0]).all(axis=1).sum() == 2

    def test_decayed_refit_adapts_after_shift(self):
        """The point of the mode: post-shift fits forget stale traffic."""
        pre = draw_batches(12, seed=13)
        post = draw_batches(12, seed=14, **SHIFTED)
        config = LabelModelConfig(n_steps=300, seed=0)
        cumulative = OnlineLabelModel(
            OnlineLabelModelConfig(base=config, steps_per_batch=0)
        )
        decayed = OnlineLabelModel(
            OnlineLabelModelConfig(base=config, steps_per_batch=0, decay=0.7)
        )
        for votes in pre + post:
            cumulative.observe(votes)
            decayed.observe(votes)
        # LF 0 flipped to 10% accuracy post-shift. The decayed refit
        # must rate it near-useless; the cumulative refit still trusts
        # the pooled history.
        acc_cumulative = cumulative.refit().accuracies()
        acc_decayed = decayed.refit().accuracies()
        assert acc_decayed[0] < acc_cumulative[0] - 0.1

    def test_compat_refit_pins_round_weight_semantics_bit_exactly(self):
        """Regression pin: a decay-mode refit is, to the bit, the
        offline fit of the matrix that repeats each retained pattern
        ``round(weight)`` times (half-up) — in any row order."""
        stream = draw_batches(8, seed=13) + draw_batches(8, seed=14, **SHIFTED)
        base = LabelModelConfig(n_steps=300, seed=0)
        model = OnlineLabelModel(
            OnlineLabelModelConfig(base=base, steps_per_batch=0, decay=0.7)
        )
        for votes in stream:
            model.observe(votes)
        reps = np.floor(model._pattern_weights + 0.5).astype(np.int64)
        assert (reps != model._pattern_weights).any()  # rounding binds
        L = np.repeat(np.vstack(model._pattern_rows), reps, axis=0)
        L = L[np.random.default_rng(0).permutation(len(L))]
        assert same_rows(model.compressed_votes(), L)

        refit = model.refit()
        offline = SamplingFreeLabelModel(base).fit(L)
        assert np.array_equal(offline.alpha, refit.alpha)
        assert np.array_equal(offline.beta, refit.beta)
        assert np.array_equal(offline.predict_proba(L), refit.predict_proba(L))

    def test_state_round_trip_is_bitwise(self):
        stream = draw_batches(6, seed=15) + draw_batches(6, seed=16, **SHIFTED)
        config = OnlineLabelModelConfig(
            base=LabelModelConfig(n_steps=80, seed=3), decay=0.85
        )
        straight = OnlineLabelModel(config)
        for votes in stream:
            straight.observe(votes)

        prefix = OnlineLabelModel(config)
        for votes in stream[:7]:
            prefix.observe(votes)
        resumed = OnlineLabelModel(config).load_state(prefix.state_dict())
        np.testing.assert_array_equal(
            resumed._pattern_weights, prefix._pattern_weights
        )
        for votes in stream[7:]:
            resumed.observe(votes)

        assert resumed.state_dict() == straight.state_dict()
        L = straight.compressed_votes().expand()
        assert same_rows(resumed.compressed_votes(), L)
        assert (
            straight.refit().predict_proba(L).tobytes()
            == resumed.refit().predict_proba(L).tobytes()
        )


# ----------------------------------------------------------------------
# sliding-window retention mode
# ----------------------------------------------------------------------
class TestWindowMode:
    def test_moments_cover_exactly_the_window(self):
        batches = draw_batches(7, batch=90, seed=17)
        model = OnlineLabelModel(
            OnlineLabelModelConfig(steps_per_batch=0, window_batches=3)
        )
        for votes in batches:
            model.observe(votes)
        tail = np.vstack(batches[-3:]).astype(np.float64)
        assert model.effective_examples == len(tail)
        np.testing.assert_array_equal(model.mean_votes(), tail.mean(axis=0))
        np.testing.assert_array_equal(
            model.fire_rates(), np.abs(tail).mean(axis=0)
        )
        np.testing.assert_array_equal(
            model.agreement_matrix(), tail.T @ tail / len(tail)
        )

    def test_reconstruct_is_exactly_the_last_n_batches(self):
        batches = draw_batches(6, batch=50, seed=18)
        model = OnlineLabelModel(
            OnlineLabelModelConfig(steps_per_batch=0, window_batches=2)
        )
        for votes in batches:
            model.observe(votes)
        assert same_rows(model.compressed_votes(), np.vstack(batches[-2:]))

    def test_patterns_evict_when_they_leave_the_window(self):
        model = OnlineLabelModel(
            OnlineLabelModelConfig(steps_per_batch=0, window_batches=2)
        )
        a = np.array([[1, 0]] * 3, dtype=np.int8)
        b = np.array([[0, -1]] * 3, dtype=np.int8)
        c = np.array([[1, 1]] * 3, dtype=np.int8)
        model.observe(a)
        model.observe(b)
        assert model.n_patterns == 2
        model.observe(c)  # a slides out of the 2-batch window
        assert model.n_patterns == 2
        assert same_rows(model.compressed_votes(), np.vstack([b, c]))

    def test_windowed_refit_matches_offline_fit_of_the_window(self):
        """A window refit is *exactly* the offline fit of the tail."""
        L, _ = synthetic_label_matrix(m=900, seed=19)
        batches = [L[i:i + 100] for i in range(0, 900, 100)]
        config = LabelModelConfig(n_steps=200, seed=5)
        model = OnlineLabelModel(
            OnlineLabelModelConfig(
                base=config, steps_per_batch=0, window_batches=4
            )
        )
        for votes in batches:
            model.observe(votes)
        tail = np.vstack(batches[-4:])
        offline = SamplingFreeLabelModel(config).fit(tail)
        refit = model.refit()
        np.testing.assert_array_equal(refit.alpha, offline.alpha)
        np.testing.assert_array_equal(refit.beta, offline.beta)

    def test_state_round_trip_is_bitwise(self):
        stream = draw_batches(9, seed=20)
        config = OnlineLabelModelConfig(
            base=LabelModelConfig(n_steps=60, seed=1), window_batches=3
        )
        straight = OnlineLabelModel(config)
        for votes in stream:
            straight.observe(votes)

        prefix = OnlineLabelModel(config)
        for votes in stream[:5]:
            prefix.observe(votes)
        resumed = OnlineLabelModel(config).load_state(prefix.state_dict())
        for votes in stream[5:]:
            resumed.observe(votes)

        assert resumed.state_dict() == straight.state_dict()
        assert same_rows(
            resumed.compressed_votes(), np.vstack(stream[-3:])
        )


# ----------------------------------------------------------------------
# pipeline wiring
# ----------------------------------------------------------------------
class TestPipelineDrift:
    def _examples(self, n=400, seed=21):
        rng = np.random.default_rng(seed)
        words = ["alpha", "beta", "gamma", "delta", "plain", "note"]
        return [
            Example(
                example_id=f"d{i}",
                fields={
                    "title": " ".join(
                        words[k] for k in rng.integers(0, len(words), size=4)
                    )
                },
            )
            for i in range(n)
        ]

    def _lfs(self):
        from repro.lf.templates import keyword_lf

        return [
            keyword_lf("kw_alpha", ["alpha", "beta"], vote=1),
            keyword_lf("kw_plain", ["plain"], vote=-1),
        ]

    def test_stationary_pipeline_run_emits_quiet_drift_counters(self):
        monitor = DriftMonitor(
            DriftPolicy(reference_batches=2, recent_batches=2)
        )
        report = MicroBatchPipeline(
            self._lfs(), batch_size=50, drift_monitor=monitor
        ).run(MemorySource(self._examples()))
        assert report.counters["drift/batches"] == report.batches
        assert report.counters["drift/checks"] == monitor.checks_run > 0
        assert "drift/alarms" not in report.counters  # nothing fired
        assert monitor.alarms == 0

    def test_monitor_feed_order_is_stream_order(self):
        """The monitor and on_batch see the same batches, same order."""
        seen = []
        monitor = DriftMonitor(
            DriftPolicy(reference_batches=1, recent_batches=1)
        )
        MicroBatchPipeline(
            self._lfs(),
            batch_size=64,
            on_batch=lambda seq, batch, votes: seen.append(len(batch)),
            drift_monitor=monitor,
        ).run(MemorySource(self._examples()))
        assert monitor.batches_observed == len(seen)
