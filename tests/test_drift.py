"""Tests for the drift layer: retention modes + the drift monitor.

Covers the layer bottom-up: the :class:`OnlineLabelModel`'s decay
retention mode (moment math, weighted pattern log, eviction,
recency-weighted reconstruction, bit-exact snapshots), the
:class:`DriftMonitor` (window mechanics, detection, false-alarm
behavior, the reference reset, bit-exact resume), and the durable
stream's ``drift`` sink that surfaces ``drift/*`` counters.
"""

import numpy as np
import pytest

from repro.core.drift import DriftMonitor, DriftPolicy
from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.online_label_model import (
    PATTERN_WEIGHT_FLOOR,
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.dfs.records import decode_ndarray, encode_ndarray
from repro.dfs.filesystem import DistributedFileSystem
from repro.streaming import CheckpointedStream, MemorySource
from repro.types import Example

from tests.conftest import same_rows


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
        assert policy.reset_on_alarm is False

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="reference_batches"):
            DriftPolicy(reference_batches=0)
        with pytest.raises(ValueError, match="recent_batches"):
            DriftPolicy(recent_batches=0)
        with pytest.raises(ValueError, match="threshold"):
            DriftPolicy(threshold=0.0)

    @pytest.mark.parametrize("name", ["reference_batches", "recent_batches"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    def test_window_sizes_must_be_ints(self, name, value):
        """A fractional window never fills to its size (``recent_batches
        =1.5`` used to score no batch at all), and a bool is not a
        size."""
        with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
            DriftPolicy(**{name: value})

    def test_refit_is_no_longer_a_reaction(self):
        """The online model solves every batch, so there is nothing for
        a refit reaction to force: the reference reset is the one
        reaction, and there is no list of named ones to put a refit in."""
        with pytest.raises(TypeError):
            DriftPolicy(reactions=("refit",))


def _with(key, value):
    """A state edit: ``key`` set to ``value``."""
    return lambda state: {**state, key: value}


def _with_reference(key, value):
    """A state edit: the reference window's ``key`` set to ``value``
    (``value`` of ``...`` drops the key)."""
    def edit(state):
        window = {**state["reference"], key: value}
        if value is ...:
            del window[key]
        return {**state, "reference": window}
    return edit


def _nan_array(payload, value=float("nan")):
    """An encoded window array with its first entry set to ``value``."""
    array = decode_ndarray(payload).astype(np.float64)
    array.flat[0] = value
    return encode_ndarray(array)


#: Drift snapshots ``load_state`` must refuse, as edits of a real one.
MALFORMED_DRIFT_STATES = {
    "a_list": lambda state: [state],
    "a_string": lambda state: "state",
    **{
        f"no_{key}": lambda state, key=key: {k: v for k, v in state.items() if k != key}
        for key in ("n_lfs", "last_score", "reference", "recent", "checks_run")
    },
    "n_lfs_fractional": _with("n_lfs", 4.5),
    "n_lfs_a_string": _with("n_lfs", "4"),
    "n_lfs_negative": _with("n_lfs", -1),
    "n_lfs_not_the_windows": lambda state: {**state, "n_lfs": state["n_lfs"] + 1},
    "reference_batches_negative": _with("reference_batches", -5),
    "checks_run_negative": _with("checks_run", -1),
    "first_alarm_batch_negative": _with("first_alarm_batch", -1),
    "last_score_a_string": _with("last_score", "0.5"),
    "last_score_none": _with("last_score", None),
    "last_score_a_bool": _with("last_score", True),
    "reference_a_list": _with("reference", [1.0]),
    "reference_without_count": _with_reference("count", ...),
    "reference_without_agreement": _with_reference("agreement", ...),
    "reference_count_a_string": _with_reference("count", "64"),
    "reference_count_nan": _with_reference("count", float("nan")),
    "reference_count_inf": _with_reference("count", float("inf")),
    "reference_count_negative": _with_reference("count", -1.0),
    "reference_count_zero": _with_reference("count", 0.0),
    "reference_vote_sum_nan": lambda state: _with_reference(
        "vote_sum", _nan_array(state["reference"]["vote_sum"])
    )(state),
    "reference_agreement_inf": lambda state: _with_reference(
        "agreement", _nan_array(state["reference"]["agreement"], float("inf"))
    )(state),
    "recent_count_nan": lambda state: {
        **state,
        "recent": [*state["recent"][:-1], {**state["recent"][-1], "count": float("nan")}],
    },
    "reference_vote_sum_not_an_array": _with_reference("vote_sum", [1, 2]),
    "recent_not_a_list": _with("recent", 5),
    "recent_holds_none": lambda state: {**state, "recent": [None, *state["recent"]]},
    "recent_window_a_list": lambda state: {**state, "recent": [*state["recent"], []]},
}


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
        policy = DriftPolicy(reset_on_alarm=True)
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
        monitor = DriftMonitor(DriftPolicy())  # alarms are only counted
        stream = draw_batches(16, seed=5) + draw_batches(24, seed=6, **SHIFTED)
        for votes in stream:
            monitor.observe_batch(votes)
        # Reference still points at the old regime: every post-shift
        # check keeps scoring above threshold.
        assert monitor.alarms > 5

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
        policy = DriftPolicy(reset_on_alarm=True)
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

    def test_earlier_states_with_a_forced_refit_count_load(self):
        """Earlier writers stored the refit reaction's count; it is
        ignored, and the rest restores bitwise."""
        policy = DriftPolicy(reference_batches=2, recent_batches=2)
        source = DriftMonitor(policy)
        for votes in draw_batches(5, seed=13):
            source.observe_batch(votes)
        state = source.state_dict()
        assert "forced_refits" not in state
        restored = DriftMonitor(policy).load_state({**state, "forced_refits": 2})
        assert restored.state_dict() == state

    @pytest.mark.parametrize(
        "key",
        [
            "batches_observed",
            "checks_run",
            "alarms",
            "reference_resets",
            "reference_batches",
            "first_alarm_batch",
        ],
    )
    @pytest.mark.parametrize("value", [4.5, True])
    def test_load_state_refuses_non_int_counters(self, key, value):
        policy = DriftPolicy(reference_batches=2, recent_batches=2)
        source = DriftMonitor(policy)
        for votes in draw_batches(5, seed=13):
            source.observe_batch(votes)
        state = {**source.state_dict(), key: value}
        target = DriftMonitor(policy)
        with pytest.raises(ValueError, match=f"{key} must be an int"):
            target.load_state(state)
        assert target.state_dict() == DriftMonitor(policy).state_dict()

    @pytest.mark.parametrize("case", sorted(MALFORMED_DRIFT_STATES))
    def test_load_state_refuses_malformed_state_unchanged(self, case):
        """A malformed snapshot is a ``ValueError``, and the monitor it
        was loaded onto keeps every bit of its own state."""
        policy = DriftPolicy(reference_batches=2, recent_batches=2)
        source = DriftMonitor(policy)
        for votes in draw_batches(5, seed=13):
            source.observe_batch(votes)
        state = source.state_dict()
        assert state["reference"] is not None and len(state["recent"]) == 2
        target = DriftMonitor(policy)
        for votes in draw_batches(3, seed=14):
            target.observe_batch(votes)
        before = target.state_dict()
        with pytest.raises(ValueError):
            target.load_state(MALFORMED_DRIFT_STATES[case](state))
        assert target.state_dict() == before

    @pytest.mark.parametrize("schema", [2, 0, None, "x"])
    def test_load_state_refuses_unknown_schema(self, schema):
        """A snapshot from a newer (or foreign) writer is refused whole,
        not half-read under this reader's layout."""
        policy = DriftPolicy(reference_batches=2, recent_batches=2)
        source = DriftMonitor(policy)
        for votes in draw_batches(5, seed=13):
            source.observe_batch(votes)
        state = source.state_dict()
        assert state["schema"] == 1
        state["schema"] = schema
        target = DriftMonitor(policy)
        with pytest.raises(ValueError, match="schema"):
            target.load_state(state)
        assert target.state_dict() == DriftMonitor(policy).state_dict()


# ----------------------------------------------------------------------
# decay retention mode
# ----------------------------------------------------------------------
DECAY_CONFIG = OnlineLabelModelConfig(base=LabelModelConfig(seed=0), decay=0.8)


def assert_views_weigh_rows(model, rows, w):
    """The model's moment views are those of ``rows`` weighted by ``w``."""
    assert model.effective_examples == pytest.approx(w.sum())
    np.testing.assert_allclose(model.mean_votes(), w @ rows / w.sum())
    np.testing.assert_allclose(model.fire_rates(), w @ np.abs(rows) / w.sum())
    np.testing.assert_allclose(
        model.agreement_matrix(), (rows.T * w) @ rows / w.sum()
    )


class TestDecayMode:
    def test_mode_selection_and_validation(self):
        assert OnlineLabelModel().mode == "cumulative"
        assert OnlineLabelModel(DECAY_CONFIG).mode == "decay"
        with pytest.raises(ValueError, match="decay"):
            OnlineLabelModel(OnlineLabelModelConfig(decay=1.0))
        with pytest.raises(ValueError, match="decay"):
            OnlineLabelModel(OnlineLabelModelConfig(decay=0.0))

    def test_moments_follow_exponential_decay(self):
        """With nothing evicted, the views are the exponentially decayed
        moments of every observed row: batch ``b`` of ``n`` weighs
        ``decay ** (n - 1 - b)``."""
        batches = draw_batches(5, batch=100, seed=12)
        model = OnlineLabelModel(DECAY_CONFIG)
        for votes in batches:
            model.observe(votes)
        d = DECAY_CONFIG.decay
        rows = np.vstack(batches).astype(float)
        w = np.concatenate(
            [np.full(len(v), d ** (len(batches) - 1 - b)) for b, v in enumerate(batches)]
        )
        assert model.n_patterns == len(np.unique(rows, axis=0))
        assert_views_weigh_rows(model, rows, w)
        # The effective mass is far below the raw observed count.
        assert model.effective_examples < model.n_observed

    def test_views_are_the_retained_tables_moments(self):
        """Once patterns are evicted, the views describe the retained
        table — the rows the next refit fits — at raw decayed weight."""
        d = 0.5
        model = OnlineLabelModel(OnlineLabelModelConfig(decay=d))
        rng = np.random.default_rng(3)
        table: dict[tuple, float] = {}
        evicted = 0
        for _ in range(12):
            votes = rng.integers(-1, 2, size=(rng.integers(1, 6), 3)).astype(np.int8)
            model.observe(votes)
            table = {row: weight * d for row, weight in table.items()}
            for row in map(tuple, votes.tolist()):
                table[row] = table.get(row, 0.0) + 1.0
            kept = {r: w for r, w in table.items() if w >= PATTERN_WEIGHT_FLOOR}
            evicted += len(table) - len(kept)
            table = kept
        assert evicted > 0
        rows = np.array(list(table), dtype=float)
        w = np.array(list(table.values()))
        assert model.n_patterns == len(table)
        assert_views_weigh_rows(model, rows, w)

    def test_pattern_weights_decay_and_evict(self):
        model = OnlineLabelModel(
            OnlineLabelModelConfig(decay=0.5)
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
            OnlineLabelModelConfig(decay=0.5)
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
        config = LabelModelConfig(seed=0)
        cumulative = OnlineLabelModel(
            OnlineLabelModelConfig(base=config)
        )
        decayed = OnlineLabelModel(
            OnlineLabelModelConfig(base=config, decay=0.7)
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
        base = LabelModelConfig(seed=0)
        model = OnlineLabelModel(
            OnlineLabelModelConfig(base=base, decay=0.7)
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
            base=LabelModelConfig(seed=3), decay=0.85
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
# durable-stream wiring
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

    def _stream(self, batch_size, policy):
        return CheckpointedStream(
            DistributedFileSystem(),
            self._lfs(),
            "/drift",
            batch_size=batch_size,
            drift=policy,
        )

    def test_stationary_pipeline_run_emits_quiet_drift_counters(self):
        stream = self._stream(
            50, DriftPolicy(reference_batches=2, recent_batches=2)
        )
        report = stream.run(MemorySource(self._examples()))
        monitor = stream.drift_monitor
        counters = stream.metrics.counters.as_dict()
        assert counters["drift/batches"] == report.batches_finalized
        assert counters["drift/checks"] == monitor.checks_run > 0
        assert "drift/alarms" not in counters  # nothing fired
        assert monitor.alarms == 0

    def test_monitor_feed_order_is_stream_order(self):
        """The monitor sees every batch the stream finalizes, after the
        model and before the durable sinks."""
        stream = self._stream(
            64, DriftPolicy(reference_batches=1, recent_batches=1)
        )
        report = stream.run(MemorySource(self._examples()))
        assert stream.drift_monitor.batches_observed == report.batches_finalized
        # Counters are kept in first-emission order: batch 0's sinks.
        order = [
            key.split("/")[1]
            for key in report.stream.counters
            if key.startswith("sink/") and key.endswith("/batches")
            and key.count("/") == 2
        ]
        assert order == ["label_model", "drift", "votes", "labels", "checkpoint"]
