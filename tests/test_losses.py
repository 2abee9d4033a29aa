import math

import numpy as np
import pytest

from clover_forge.errors import GradCheckError
from clover_forge.losses import (
    GRAD_CHECK_TOL,
    EmbeddingBatch,
    MatchBatch,
    TokenLogits,
    eq1_likelihood,
    grad_check,
    itc_loss,
    itc_loss_from_similarities,
    itc_similarities,
    itc_similarity_grad,
    itg_nll,
    itm_loss,
    itm_probs_grad,
    realized_nll,
    realized_nll_grad,
    run_kernel_check,
)


def unit_rows(rng, *shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_batch(rng, b=3, nq=2, d=6):
    return EmbeddingBatch(unit_rows(rng, b, nq, d), unit_rows(rng, b, d))


def random_logits(rng, n=4, vocab=7):
    probs = rng.random((n, vocab)) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    return TokenLogits(probs, rng.integers(0, vocab, size=n))


class TestInputContracts:
    def test_non_normalized_embeddings_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="unit-normalized"):
            EmbeddingBatch(rng.standard_normal((2, 2, 4)), unit_rows(rng, 2, 4))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            EmbeddingBatch(unit_rows(rng, 2, 2, 4), unit_rows(rng, 3, 4))

    def test_probability_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TokenLogits(np.array([[0.5, 0.4]]), np.array([0]))

    def test_answer_ids_must_index_vocab(self):
        with pytest.raises(ValueError, match="vocabulary"):
            TokenLogits(np.array([[0.5, 0.5]]), np.array([2]))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TokenLogits(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_match_batch_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            MatchBatch(np.array([0.5, 0.5]), np.array([1.0]))

    def test_match_labels_binary(self):
        with pytest.raises(ValueError, match="labels"):
            MatchBatch(np.array([0.5]), np.array([0.3]))


class TestContrastive:
    def test_uniform_similarities_give_ln_b(self):
        for b in (2, 3, 8):
            loss = itc_loss_from_similarities(np.zeros((b, b)), temperature=1.0)
            assert loss == pytest.approx(math.log(b), abs=1e-12)

    def test_sharp_diagonal_drives_loss_to_zero(self):
        sim = np.full((2, 2), -10.0)
        np.fill_diagonal(sim, 10.0)
        assert itc_loss_from_similarities(sim, temperature=0.05) < 1e-6

    def test_batch_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            itc_loss_from_similarities(np.array([[1.0]]), 0.1)

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            itc_loss_from_similarities(np.zeros((2, 2)), 0.0)

    def test_max_and_mean_pooling_differ_on_heterogeneous_queries(self):
        # item 0 has queries e1 and e2; texts are e1 and e2: max pooling sees
        # similarity 1 everywhere, mean pooling sees 0.5
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        batch = EmbeddingBatch(
            np.array([[e1, e2], [e2, e1]]), np.array([e1, e2])
        )
        sims_max = itc_similarities(batch, "max")
        sims_mean = itc_similarities(batch, "mean")
        assert sims_max == pytest.approx(np.ones((2, 2)))
        assert sims_mean == pytest.approx(np.full((2, 2), 0.5))
        # both matrices above are uniform, so the losses tie at ln 2; a
        # lopsided second text breaks the tie between the poolings
        t_off = np.array([math.sqrt(0.5), math.sqrt(0.5)])
        batch2 = EmbeddingBatch(np.array([[e1, e2], [e2, e1]]), np.array([e1, t_off]))
        assert itc_loss(batch2, 0.5, "max") != itc_loss(batch2, 0.5, "mean")

    def test_loss_from_embeddings_matches_similarity_path(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng)
        direct = itc_loss(batch, 0.07)
        via_sim = itc_loss_from_similarities(itc_similarities(batch, "max"), 0.07)
        assert direct == via_sim

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, b=4, nq=3, d=8)
        q, r = np.linalg.qr(rng.standard_normal((8, 8)))
        rotation = q * np.sign(np.diag(r))
        rotated = EmbeddingBatch(
            batch.query_embeddings @ rotation, batch.text_embeddings @ rotation
        )
        assert itc_loss(batch, 0.07) == pytest.approx(itc_loss(rotated, 0.07), abs=1e-9)

    def test_batch_permutation_leaves_loss_unchanged(self):
        rng = np.random.default_rng(3)
        sim = rng.uniform(-1, 1, size=(5, 5))
        perm = rng.permutation(5)
        permuted = sim[np.ix_(perm, perm)]
        assert itc_loss_from_similarities(sim, 0.07) == pytest.approx(
            itc_loss_from_similarities(permuted, 0.07), abs=1e-12
        )


class TestGenerationLoss:
    def test_hand_value_two_steps(self):
        tl = TokenLogits(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0, 0]))
        assert itg_nll(tl) == pytest.approx(2.0794415416798357, abs=1e-12)

    def test_certainty_gives_zero(self):
        tl = TokenLogits(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        assert itg_nll(tl) == 0.0

    def test_uniform_vocab_ten(self):
        tl = TokenLogits(np.full((3, 10), 0.1), np.array([0, 5, 9]))
        assert itg_nll(tl) == pytest.approx(3 * math.log(10), abs=1e-12)
        assert eq1_likelihood(tl) == pytest.approx(1e-3, abs=1e-15)

    def test_single_token_likelihood(self):
        tl = TokenLogits(np.array([[0.7, 0.3]]), np.array([0]))
        assert eq1_likelihood(tl) == pytest.approx(0.7, abs=1e-15)

    def test_nll_and_likelihood_are_consistent(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            tl = random_logits(rng)
            a, b = math.exp(-itg_nll(tl)), eq1_likelihood(tl)
            assert abs(a - b) / max(abs(a), abs(b)) <= 1e-9

    def test_zero_probability_is_clamped_not_inf(self):
        tl = TokenLogits(np.array([[1.0, 0.0]]), np.array([1]))
        assert itg_nll(tl) == pytest.approx(-math.log(1e-12))
        assert eq1_likelihood(tl) > 0


class TestMatchingLoss:
    def test_confident_correct_is_near_zero(self):
        batch = MatchBatch(np.array([1 - 1e-9]), np.array([1.0]))
        assert itm_loss(batch) < 1e-8

    def test_maximal_uncertainty_is_ln_two(self):
        batch = MatchBatch(np.array([0.5, 0.5, 0.5]), np.array([1.0, 0.0, 1.0]))
        assert itm_loss(batch) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self):
        batch = MatchBatch(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        assert itm_loss(batch) == pytest.approx(0.164252033486018, abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, size=6)
        y = rng.integers(0, 2, size=6).astype(float)
        perm = rng.permutation(6)
        assert itm_loss(MatchBatch(p, y)) == pytest.approx(
            itm_loss(MatchBatch(p[perm], y[perm])), abs=1e-15
        )


class TestGradCheck:
    def test_itc_gradient_on_random_batch(self):
        rng = np.random.default_rng(23)
        sim = itc_similarities(random_batch(rng, b=3), "max")
        error = grad_check(
            lambda s: itc_loss_from_similarities(s, 0.1),
            lambda s: itc_similarity_grad(s, 0.1),
            sim,
        )
        assert error <= GRAD_CHECK_TOL, error

    def test_itm_gradient(self):
        rng = np.random.default_rng(29)
        labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        probs = rng.uniform(0.1, 0.9, size=5)
        error = grad_check(
            lambda p: itm_loss(MatchBatch(p, labels)),
            lambda p: itm_probs_grad(p, labels),
            probs,
        )
        assert error <= GRAD_CHECK_TOL, error

    def test_itg_gradient_over_realized_probs(self):
        rng = np.random.default_rng(31)
        realized = rng.uniform(0.1, 1.0, size=6)
        error = grad_check(realized_nll, realized_nll_grad, realized)
        assert error <= GRAD_CHECK_TOL, error

    def test_constant_function_has_zero_gradient(self):
        x = np.ones(4)
        assert grad_check(lambda _: 1.25, lambda v: np.zeros_like(v), x) == 0.0

    def test_non_finite_loss_names_coordinate(self):
        def exploding(v):
            return math.inf if v[1] > 1.0 else float(v.sum())

        with pytest.raises(GradCheckError, match=r"\(1,\)"):
            grad_check(exploding, lambda v: np.ones_like(v), np.array([0.0, 1.0]))

    def test_wrong_gradient_fails(self):
        error = grad_check(
            lambda v: float((v**2).sum()), lambda v: 3 * v, np.array([1.0, 2.0])
        )
        assert error > GRAD_CHECK_TOL


class TestFixturesAndSuite:
    def test_kernel_check_passes(self):
        report = run_kernel_check(seed=0)
        assert report["passed"], report
        names = {c["name"] for c in report["checks"]}
        assert {
            "likelihood_identity",
            "itc_equal_similarity_ln_b",
            "itc_gradient",
            "itm_gradient",
            "itg_gradient",
            "rotation_invariance",
            "permutation_equivariance",
            "hand_values",
        } <= names
