"""Differential fuzz harness: the one fit path vs a row-wise reference.

Every label-model fit in ``src/`` runs on ``(patterns, counts)`` in one
canonical pattern order. The oracle here is deliberately *not* that: a
plain row-wise trainer over the expanded ``(n, m)`` matrix, written in
this module from the formulas in the ``label_model`` docstring — it
samples row indices, slices rows, sums over rows, and writes its own
SGD update and warm start, sharing no code with ``_StepKernel``,
``CompressedVotes`` or ``compress_votes``.
Every case family draws a seeded randomized vote matrix, fits it both
ways, and asserts the contract:

* **minibatch regime** (``batch_size < n``): ``fit(L)`` samples rows of
  the count-ordered expansion — ``L`` with its rows sorted
  lexicographically — with the RNG calls the row-wise trainer makes on
  that matrix, so alpha, beta, posteriors, and the tracked loss curve
  must be **bitwise identical**;
* **full-batch regime** (``batch_size >= n``): the fit uses exact
  count-weighted gradients over distinct patterns, which reorder
  summation — the posteriors must agree to <= 1e-9 (empirically
  ~1e-15);
* ``fit`` depends on the multiset of rows only: any row permutation of
  ``L`` fits to the same bits, and a cumulative online refit is
  bitwise the offline ``fit`` of the retained rows, shuffled.

Families: dense uniform votes, abstain-heavy, duplicate-heavy (few
distinct patterns), single-pattern degenerate, matrices with all-abstain
rows — across several (n, m) shapes and seeds.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.label_model import (
    _CHUNK_VOTES,
    LabelModelConfig,
    SamplingFreeLabelModel,
)
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.core.patterns import CompressedVotes, compress_votes

from tests.conftest import same_rows


# ----------------------------------------------------------------------
# the reference: row-wise fits of an expanded matrix
# ----------------------------------------------------------------------
def canonical_rows(L):
    """``L`` with its rows sorted lexicographically (column 0 most
    significant): the count-ordered expansion ``fit`` samples from."""
    L = np.asarray(L)
    return L[np.lexsort(L.T[::-1])]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


#: The warm start of every accuracy parameter, and the floor each step
#: projects the accuracies back onto.
INIT_ALPHA = 0.7
MIN_ALPHA = 0.0


def _outcome_probs(alpha, beta):
    """Per-LF P(correct), P(wrong), P(abstain) and log partition Z_j."""
    logits = np.stack([alpha + beta, -alpha + beta, np.zeros_like(alpha)])
    peak = logits.max(axis=0)
    Z = peak + np.log(np.exp(logits - peak).sum(axis=0))
    probs = np.exp(logits - Z)
    return probs[0], probs[1], probs[2], Z


def reference_fit_binary(L, config):
    """Row-wise Section 5.2 trainer over the (n, m) matrix ``L``.

    Per step: draw ``batch_size`` row indices (or take every row when
    the batch covers the matrix), then for the batch ``B``::

        a_i = sum_j L_ij alpha_j          b_i = sum_j |L_ij| beta_j
        NLL = -sum_i [b_i - sum_j Z_j + logaddexp(a_i + log pi+,
                                                  -a_i + log pi-)]
        p_i = sigmoid(2 a_i + logit pi+)
        dNLL/dalpha_j = -sum_i (2 p_i - 1) L_ij + |B| (Pc_j - Pw_j)
        dNLL/dbeta_j  = -sum_i |L_ij|          + |B| (1 - Pabstain_j)

    then one SGD step on each parameter and the projection onto
    ``alpha >= 0``.
    """
    cfg = config
    L = np.asarray(L, dtype=np.float64)
    n, m = L.shape
    rng = np.random.default_rng(cfg.seed)
    alpha = np.full(m, INIT_ALPHA)
    propensity = np.clip(np.abs(L).sum(axis=0) / float(n), 1e-3, 1 - 1e-3)
    beta = np.log(propensity / (1 - propensity)) / 2.0
    prior = min(max(cfg.init_class_prior, 1e-9), 1 - 1e-9)
    prior_logit = float(np.log(prior / (1 - prior)))
    loss_history = []

    for step in range(cfg.n_steps):
        rows = L if cfg.batch_size >= n else L[rng.integers(0, n, size=cfg.batch_size)]
        B = rows.shape[0]
        fired = np.abs(rows)
        a = rows @ alpha
        b = fired @ beta
        p_correct, p_wrong, p_abstain, Z = _outcome_probs(alpha, beta)
        log_pos = -np.logaddexp(0.0, -prior_logit)
        log_neg = -np.logaddexp(0.0, prior_logit)
        lse = np.logaddexp(a + log_pos, -a + log_neg)
        loss = -float(np.sum(b - float(Z.sum()) + lse))
        posterior = _sigmoid(2.0 * a + prior_logit)
        grad_alpha = -(rows.T @ (2.0 * posterior - 1.0)) + B * (p_correct - p_wrong)
        grad_beta = -fired.sum(axis=0) + B * (1.0 - p_abstain)
        grad_prior = -float(np.sum(posterior - _sigmoid(prior_logit)))
        alpha = alpha - cfg.learning_rate * grad_alpha
        beta = beta - cfg.learning_rate * grad_beta
        if cfg.learn_class_prior:
            prior_logit -= cfg.learning_rate * grad_prior
        alpha = np.maximum(alpha, MIN_ALPHA)
        if cfg.track_loss_every and step % cfg.track_loss_every == 0:
            loss_history.append((step, loss / B))

    return SimpleNamespace(
        alpha=alpha,
        beta=beta,
        prior_logit=prior_logit,
        loss_history=loss_history,
        predict_proba=lambda M: _sigmoid(
            2.0 * (np.asarray(M, dtype=np.float64) @ alpha) + prior_logit
        ),
    )


# ----------------------------------------------------------------------
# case families (binary): seeded generators over {-1, 0, 1}
# ----------------------------------------------------------------------
def uniform(rng, n, m):
    return rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(n, m))


def abstain_heavy(rng, n, m):
    votes = rng.choice(
        np.array([-1, 0, 1], dtype=np.int8), size=(n, m), p=[0.08, 0.85, 0.07]
    )
    return votes


def duplicate_heavy(rng, n, m):
    pool = rng.choice(np.array([-1, 0, 0, 1], dtype=np.int8), size=(12, m))
    return pool[rng.integers(0, len(pool), size=n)]


def single_pattern(rng, n, m):
    row = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(1, m))
    return np.repeat(row, n, axis=0)


def with_all_abstain_rows(rng, n, m):
    votes = uniform(rng, n, m)
    votes[rng.random(n) < 0.3] = 0
    return votes


FAMILIES = [
    uniform,
    abstain_heavy,
    duplicate_heavy,
    single_pattern,
    with_all_abstain_rows,
]

SHAPES = [(400, 5), (1_500, 12)]

#: Steps whose rows a fit of 64-row batches over 8 LFs draws in one
#: call, and a step budget it cannot take in whole chunks: two full
#: chunks and a ragged tail. (Fewer rows or LFs per batch only make a
#: chunk longer than this, never shorter.)
CHUNK_STEPS = _CHUNK_VOTES // (64 * 8)
RAGGED_STEPS = 2 * CHUNK_STEPS + 37


def fit_both(L, **config):
    """The row-wise reference on the count-ordered rows of ``L``, and
    the model's own ``fit`` on ``L`` as given."""
    cfg = LabelModelConfig(**config)
    reference = reference_fit_binary(canonical_rows(L), cfg)
    return reference, SamplingFreeLabelModel(cfg).fit(L)


def assert_bitwise(full, compressed, L):
    assert np.array_equal(full.alpha, compressed.alpha)
    assert np.array_equal(full.beta, compressed.beta)
    assert full.prior_logit == compressed.prior_logit
    assert full.loss_history == compressed.loss_history
    assert np.array_equal(
        full.predict_proba(L), compressed.predict_proba(L)
    )


# ----------------------------------------------------------------------
# binary model
# ----------------------------------------------------------------------
class TestBinaryEquivalence:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}m{s[1]}")
    @pytest.mark.parametrize("seed", [0, 7])
    def test_minibatch_fit_is_bitwise(self, family, shape, seed):
        """batch_size < n: every family, shape, and seed to the bit."""
        n, m = shape
        L = family(np.random.default_rng(seed), n, m)
        full, compressed = fit_both(
            L, n_steps=250, batch_size=64, seed=seed
        )
        assert_bitwise(full, compressed, L)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_full_batch_fit_within_1e9(self, family, seed):
        """batch_size >= n: weighted gradients, <= 1e-9 posteriors."""
        L = family(np.random.default_rng(seed), 500, 8)
        full, compressed = fit_both(
            L,
            n_steps=250,
            batch_size=10_000,
            seed=seed,
            learning_rate=0.0005,
        )
        gap = np.max(
            np.abs(full.predict_proba(L) - compressed.predict_proba(L))
        )
        assert gap <= 1e-9, gap
        assert np.max(np.abs(full.alpha - compressed.alpha)) <= 1e-9

    def test_learned_prior_stays_bitwise_in_minibatch(self):
        """A learned class prior rides the one kernel."""
        L = duplicate_heavy(np.random.default_rng(3), 1_000, 10)
        full, compressed = fit_both(
            L,
            n_steps=250,
            batch_size=64,
            seed=3,
            learn_class_prior=True,
        )
        assert_bitwise(full, compressed, L)

    @pytest.mark.parametrize("track_loss_every", [0, 1, 7])
    def test_chunked_draws_are_bitwise_across_chunk_boundaries(
        self, track_loss_every
    ):
        """Rows are drawn a chunk of steps at a time. Two chunks and a
        ragged tail, with the loss off, on every step, and at cadences
        that do not divide the chunk: same bits, same loss curve."""
        L = duplicate_heavy(np.random.default_rng(17), 1_200, 8)
        full, compressed = fit_both(
            L,
            n_steps=RAGGED_STEPS,
            batch_size=64,
            seed=17,
            track_loss_every=track_loss_every,
        )
        assert_bitwise(full, compressed, L)
        tracked = range(0, RAGGED_STEPS, track_loss_every) if track_loss_every else []
        assert [step for step, _ in compressed.loss_history] == list(tracked)
        assert compressed.steps_taken == RAGGED_STEPS

    @pytest.mark.parametrize("batch_size", [64, 10_000], ids=["minibatch", "full"])
    def test_zero_steps_is_the_warm_start(self, batch_size):
        L = uniform(np.random.default_rng(1), 300, 6)
        full, compressed = fit_both(L, n_steps=0, batch_size=batch_size, seed=1)
        assert_bitwise(full, compressed, L)
        assert compressed.steps_taken == 0

    def test_learned_prior_stays_bitwise_across_a_chunk_boundary(self):
        L = abstain_heavy(np.random.default_rng(9), 1_000, 8)
        full, compressed = fit_both(
            L,
            n_steps=CHUNK_STEPS + 44,
            batch_size=64,
            seed=9,
            learn_class_prior=True,
            track_loss_every=7,
        )
        assert_bitwise(full, compressed, L)

    def test_learned_prior_from_a_skewed_start_is_bitwise(self):
        """A learned prior that starts off 0.5, on a matrix with
        all-abstain rows."""
        L = with_all_abstain_rows(np.random.default_rng(4), 900, 8)
        full, compressed = fit_both(
            L,
            n_steps=CHUNK_STEPS + 5,
            batch_size=64,
            seed=4,
            learn_class_prior=True,
            init_class_prior=0.3,
        )
        assert_bitwise(full, compressed, L)

    def test_full_batch_past_a_chunk_of_steps_within_1e9(self):
        """The full-batch regime draws no rows, so it has no chunks to
        cross: a budget longer than two of them, with an odd loss
        cadence and a learned prior, keeps today's tolerance."""
        L = duplicate_heavy(np.random.default_rng(6), 500, 8)
        full, compressed = fit_both(
            L,
            n_steps=RAGGED_STEPS,
            batch_size=10_000,
            seed=6,
            learning_rate=0.0005,
            learn_class_prior=True,
            track_loss_every=7,
        )
        gap = np.max(
            np.abs(full.predict_proba(L) - compressed.predict_proba(L))
        )
        assert gap <= 1e-9, gap
        assert np.max(np.abs(full.alpha - compressed.alpha)) <= 1e-9
        assert [s for s, _ in compressed.loss_history] == [
            s for s, _ in full.loss_history
        ]
        assert np.allclose(
            [l for _, l in compressed.loss_history],
            [l for _, l in full.loss_history],
            rtol=0,
            atol=1e-9,
        )

    def test_default_budget_on_a_bench_shaped_table(self):
        """The regime every benchmark workload fits: 6,000 steps of 64
        rows over 8,000 rows that are <= 25 distinct patterns of 8 LFs
        — 93 full chunks and a tail, the default loss cadence."""
        rng = np.random.default_rng(2026)
        pool = rng.choice(
            np.array([-1, 0, 1], dtype=np.int8), size=(24, 8), p=[0.1, 0.75, 0.15]
        )
        skew = rng.dirichlet(np.full(len(pool), 0.3))
        L = pool[rng.choice(len(pool), size=8_000, p=skew)]
        assert compress_votes(L).n_patterns <= 25
        full, compressed = fit_both(L, seed=2026)
        assert full.loss_history and len(full.loss_history) == 6_000 // 50
        assert_bitwise(full, compressed, L)

    @pytest.mark.parametrize("size", [1, 50, 64])
    def test_chunked_sampler_draws_what_per_step_draws_would(self, size):
        """One ``(k, size)`` draw is, index for index, ``k`` successive
        per-step draws from an equally seeded generator — each of them
        the row-wise draw over the expansion — and leaves the generator
        where they leave it."""
        votes = compress_votes(duplicate_heavy(np.random.default_rng(8), 700, 6))
        expanded = votes.expand()
        k = CHUNK_STEPS + 3
        chunked_rng, stepped_rng, row_rng = (
            np.random.default_rng(33) for _ in range(3)
        )
        chunked = votes.row_sampler(chunked_rng, size)(k)
        step = votes.row_sampler(stepped_rng, size)
        stepped = np.stack([step(1)[0] for _ in range(k)])
        assert chunked.shape == (k, size)
        assert np.array_equal(chunked, stepped)
        for indices in chunked:
            rows = expanded[row_rng.integers(0, len(expanded), size=size)]
            assert np.array_equal(votes.patterns[indices], rows)
        assert (
            chunked_rng.bit_generator.state
            == stepped_rng.bit_generator.state
            == row_rng.bit_generator.state
        )

    def test_all_abstain_matrix(self):
        """The fully degenerate stream: one all-zero pattern."""
        L = np.zeros((200, 6), dtype=np.int8)
        full, compressed = fit_both(L, n_steps=60, batch_size=64, seed=0)
        assert_bitwise(full, compressed, L)

    def test_aggregated_weights_match_pattern_order_expansion(self):
        """Hand-built integer weights (the decay-mode shape), patterns
        supplied in *reverse* order: ``CompressedVotes`` re-sorts them,
        and the fit is bitwise the row-wise fit of the pattern-order
        expansion — the searchsorted sampler reproduces np.repeat's row
        order index for index."""
        L = duplicate_heavy(np.random.default_rng(5), 900, 9)
        exact = compress_votes(L)
        aggregated = CompressedVotes(
            patterns=exact.patterns[::-1],
            weights=exact.weights[::-1],
            n_rows=exact.n_rows,
        )
        assert np.array_equal(aggregated.patterns, exact.patterns)
        assert np.array_equal(aggregated.expand(), canonical_rows(L))
        config = LabelModelConfig(n_steps=250, batch_size=64, seed=5)
        full = reference_fit_binary(aggregated.expand(), config)
        compressed = SamplingFreeLabelModel(config)
        compressed.fit_compressed(aggregated)
        assert_bitwise(full, compressed, L)

    @pytest.mark.parametrize("batch_size", [64, 10_000], ids=["minibatch", "full"])
    def test_fit_is_row_order_invariant(self, batch_size):
        """``fit(L) == fit(L[perm])`` to the bit, in both regimes."""
        rng = np.random.default_rng(11)
        L = with_all_abstain_rows(rng, 1_000, 7)
        config = LabelModelConfig(n_steps=250, batch_size=batch_size, seed=4)
        straight = SamplingFreeLabelModel(config).fit(L)
        shuffled = SamplingFreeLabelModel(config).fit(L[rng.permutation(len(L))])
        assert_bitwise(straight, shuffled, L)


# ----------------------------------------------------------------------
# the compression carrier itself
# ----------------------------------------------------------------------
class TestCompressVotes:
    def test_round_trip_reconstructs_bit_for_bit(self):
        """Lossless up to row order, whatever the input dtype."""
        L = duplicate_heavy(np.random.default_rng(4), 700, 6)
        votes = compress_votes(L)
        assert np.array_equal(votes.expand(), canonical_rows(L))
        assert votes.weights.sum() == len(L)
        assert votes.n_patterns == len(np.unique(L, axis=0))
        assert np.array_equal(votes.patterns, np.unique(L, axis=0))
        for dtype in (np.int64, np.float64):
            again = compress_votes(L.astype(dtype))
            assert np.array_equal(again.patterns, votes.patterns)
            assert np.array_equal(again.weights, votes.weights)
        strided = compress_votes(np.asfortranarray(L))
        assert np.array_equal(strided.expand(), votes.expand())

    def test_zero_row_matrix(self):
        votes = compress_votes(np.zeros((0, 5), dtype=np.int8))
        assert votes.n_patterns == 0
        assert votes.n_rows == 0.0
        assert votes.expand().shape == (0, 5)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            compress_votes(np.zeros(4))
        with pytest.raises(ValueError, match="weights shape"):
            CompressedVotes(
                patterns=np.zeros((2, 3)),
                weights=np.ones(3),
                n_rows=3.0,
            )
        with pytest.raises(ValueError, match="strictly positive"):
            CompressedVotes(
                patterns=np.zeros((2, 3)),
                weights=np.array([1.0, 0.0]),
                n_rows=1.0,
            )
        # Votes are validated on the pattern rows, after compression.
        bad = np.zeros((50, 4), dtype=np.int8)
        bad[17, 2] = 2
        with pytest.raises(ValueError, match="-1, 0, 1"):
            SamplingFreeLabelModel(LabelModelConfig(n_steps=1)).fit(bad)
        # The row mass is the weights' sum: an n_rows that disagrees
        # would mis-size the minibatch sampler's draws.
        for n_rows in (10.0, 3.0):
            with pytest.raises(ValueError, match="n_rows"):
                CompressedVotes(
                    patterns=np.array([[1, 0], [0, 1]]),
                    weights=np.array([2.0, 3.0]),
                    n_rows=n_rows,
                )

    def test_expand_refuses_real_valued_weights(self):
        """A real-valued weighting has no expanded matrix, so it never
        reaches ``expand``: construction refuses it."""
        with pytest.raises(ValueError, match="real-valued"):
            CompressedVotes(
                patterns=np.zeros((1, 3)),
                weights=np.array([1.5]),
                n_rows=1.5,
            )


# ----------------------------------------------------------------------
# online refits ride the same path
# ----------------------------------------------------------------------
class TestOnlineRefitEquivalence:
    BASE = LabelModelConfig(n_steps=100, seed=0)

    def _observed(self, batches, **kwargs):
        model = OnlineLabelModel(
            OnlineLabelModelConfig(base=self.BASE, steps_per_batch=0, **kwargs)
        )
        for votes in batches:
            model.observe(votes)
        return model

    @pytest.mark.parametrize("rows", [12, 300], ids=["full", "minibatch"])
    def test_refit_is_offline_fit_of_the_retained_rows_shuffled(self, rows):
        """Both step regimes (12-row batches keep the cumulative total
        under ``batch_size``): the refit depends on the retained
        multiset only."""
        rng = np.random.default_rng(21)
        batches = [duplicate_heavy(rng, rows, 5) for _ in range(4)]
        model = self._observed(batches)
        retained = np.vstack(batches)
        assert same_rows(model.compressed_votes(), retained)
        shuffled = retained[rng.permutation(len(retained))]
        offline = SamplingFreeLabelModel(self.BASE).fit(shuffled)
        assert_bitwise(offline, model.refit(), retained)

    def test_compressed_votes_matches_offline_compression(self):
        L = duplicate_heavy(np.random.default_rng(0), 300, 5)
        votes = self._observed([L[:100], L[100:]]).compressed_votes()
        assert same_rows(votes, L)
        assert votes.n_rows == len(L)
