"""Numeric kernel for the two-stage training objectives.

Stage-1 alignment losses (contrastive, matching, grounded generation) and the
stage-2 autoregressive likelihood, computed over caller-supplied embeddings
and probabilities. No encoders, no parameters, no state: every function here
is a pure map from arrays to a scalar, plus a finite-difference checker that
verifies the analytic gradients.

Probabilities are clamped at 1e-12 before any logarithm so implementations
agree at tolerance level instead of disagreeing at -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradCheckError

PROB_FLOOR = 1e-12
NORM_TOL = 1e-6
PROB_SUM_TOL = 1e-9
GRAD_CHECK_STEP = 1e-4
GRAD_CHECK_TOL = 1e-5
IDENTITY_CASES = 1000  # random draws for the likelihood-identity check
POOLINGS = ("max", "mean")


# --- input containers -------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingBatch:
    """Unit-normalized visual query embeddings [B, Nq, D] and text embeddings [B, D]."""

    query_embeddings: np.ndarray
    text_embeddings: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.query_embeddings, dtype=float)
        t = np.asarray(self.text_embeddings, dtype=float)
        if q.ndim != 3 or t.ndim != 2:
            raise ValueError("expected query [B, Nq, D] and text [B, D] arrays")
        if q.shape[0] != t.shape[0] or q.shape[2] != t.shape[1]:
            raise ValueError(
                f"incompatible shapes: query {q.shape} vs text {t.shape}"
            )
        for name, arr in (("query", q.reshape(-1, q.shape[2])), ("text", t)):
            norms = np.linalg.norm(arr, axis=-1)
            if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
                worst = float(np.max(np.abs(norms - 1.0)))
                raise ValueError(
                    f"{name} embedding rows must be unit-normalized (worst deviation {worst:.2e})"
                )
        object.__setattr__(self, "query_embeddings", q)
        object.__setattr__(self, "text_embeddings", t)


@dataclass(frozen=True)
class TokenLogits:
    """Per-position probability vectors [n_a, V] and the realized token ids [n_a]."""

    stepwise_probs: np.ndarray
    answer_ids: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.stepwise_probs, dtype=float)
        ids = np.asarray(self.answer_ids, dtype=int)
        if p.ndim != 2 or ids.ndim != 1 or p.shape[0] != ids.shape[0]:
            raise ValueError("expected probs [n_a, V] with one answer id per position")
        if p.shape[0] == 0:
            raise ValueError("empty answer sequence")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        sums = p.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= PROB_SUM_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"probability rows must sum to 1 (worst deviation {worst:.2e})")
        if np.any(ids < 0) or np.any(ids >= p.shape[1]):
            raise ValueError("answer ids must index within the vocabulary")
        object.__setattr__(self, "stepwise_probs", p)
        object.__setattr__(self, "answer_ids", ids)

    def realized_probs(self) -> np.ndarray:
        return self.stepwise_probs[np.arange(len(self.answer_ids)), self.answer_ids]


@dataclass(frozen=True)
class MatchBatch:
    """Match probabilities and binary same-pair labels for the matching loss."""

    match_probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.match_probs, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if p.shape != y.shape or p.ndim != 1:
            raise ValueError(
                f"match_probs and labels must be equal-length vectors, got {p.shape} vs {y.shape}"
            )
        if p.size == 0:
            raise ValueError("empty match batch")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("match probabilities must lie in [0, 1]")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "match_probs", p)
        object.__setattr__(self, "labels", y)


# --- contrastive loss -------------------------------------------------------

def itc_similarities(batch: EmbeddingBatch, pooling: str = "max") -> np.ndarray:
    """Pairwise similarity s[i, j]: queries of item i pooled against text j."""
    if pooling not in POOLINGS:
        raise ValueError(f"pooling must be one of {POOLINGS}, got '{pooling}'")
    # [B, Nq, D] x [B', D] -> [B, B', Nq]
    per_query = np.einsum("bqd,jd->bjq", batch.query_embeddings, batch.text_embeddings)
    return per_query.max(axis=2) if pooling == "max" else per_query.mean(axis=2)


def _log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def itc_loss_from_similarities(sim: np.ndarray, temperature: float) -> float:
    """Symmetric cross-entropy against the diagonal of a similarity matrix."""
    sim = np.asarray(sim, dtype=float)
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {sim.shape}")
    b = sim.shape[0]
    if b < 2:
        raise ValueError(f"contrastive loss needs a batch of at least 2, got {b}")
    z = sim / temperature
    diag = np.arange(b)
    row_ce = -_log_softmax(z, axis=1)[diag, diag].mean()
    col_ce = -_log_softmax(z, axis=0)[diag, diag].mean()
    return float(0.5 * (row_ce + col_ce))


def itc_loss(batch: EmbeddingBatch, temperature: float, pooling: str = "max") -> float:
    return itc_loss_from_similarities(itc_similarities(batch, pooling), temperature)


def itc_similarity_grad(sim: np.ndarray, temperature: float) -> np.ndarray:
    """Analytic d(loss)/d(sim): (P_row + P_col - 2I) / (2 B temperature)."""
    sim = np.asarray(sim, dtype=float)
    b = sim.shape[0]
    z = sim / temperature
    p_row = np.exp(_log_softmax(z, axis=1))
    p_col = np.exp(_log_softmax(z, axis=0))
    return (p_row + p_col - 2 * np.eye(b)) / (2 * b * temperature)


# --- generation loss and likelihood ------------------------------------------

def realized_nll(realized: np.ndarray) -> float:
    """Negative log-likelihood of a vector of realized-token probabilities."""
    realized = np.asarray(realized, dtype=float)
    if realized.size == 0:
        raise ValueError("empty answer sequence")
    return float(-np.log(np.clip(realized, PROB_FLOOR, None)).sum())


def realized_nll_grad(realized: np.ndarray) -> np.ndarray:
    return -1.0 / np.clip(np.asarray(realized, dtype=float), PROB_FLOOR, None)


def itg_nll(logits: TokenLogits) -> float:
    """Sum of -ln p(realized token) over answer positions."""
    return realized_nll(logits.realized_probs())


def eq1_likelihood(logits: TokenLogits) -> float:
    """Product of realized-token probabilities: exp(-itg_nll) by construction."""
    realized = np.clip(logits.realized_probs(), PROB_FLOOR, None)
    return float(np.prod(realized))


# --- matching loss -----------------------------------------------------------

def itm_loss(batch: MatchBatch) -> float:
    """Mean binary cross-entropy of match probabilities against pair labels."""
    p = np.clip(batch.match_probs, PROB_FLOOR, 1 - PROB_FLOOR)
    y = batch.labels
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def itm_probs_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic d(itm)/d(p): (p - y) / (p (1 - p) n)."""
    p = np.clip(np.asarray(probs, dtype=float), PROB_FLOOR, 1 - PROB_FLOOR)
    y = np.asarray(labels, dtype=float)
    return (p - y) / (p * (1 - p) * p.size)


# --- finite-difference gradient checking --------------------------------------

def grad_check(loss_fn, grad_fn, x) -> float:
    """Largest relative error of central finite differences per coordinate
    against the analytic gradient; a correct gradient stays within GRAD_CHECK_TOL."""
    x = np.asarray(x, dtype=float)
    analytic = np.asarray(grad_fn(x), dtype=float)
    if analytic.shape != x.shape:
        raise ValueError(
            f"analytic gradient shape {analytic.shape} does not match input {x.shape}"
        )
    max_rel = 0.0
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += GRAD_CHECK_STEP
        fp = loss_fn(xp)
        xm = x.copy()
        xm[idx] -= GRAD_CHECK_STEP
        fm = loss_fn(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GradCheckError(f"non-finite loss at perturbed coordinate {idx}")
        numeric = (fp - fm) / (2 * GRAD_CHECK_STEP)
        denom = max(abs(numeric), abs(analytic[idx]), 1e-8)
        max_rel = max(max_rel, abs(numeric - analytic[idx]) / denom)
    return float(max_rel)


# --- self-check suite ----------------------------------------------------------

def _random_unit(rng: np.random.Generator, *shape: int) -> np.ndarray:
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def run_kernel_check(seed: int = 0) -> dict:
    """Run every kernel invariant and gradient check; returns a JSON-able report."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def add(name: str, max_error: float, tolerance: float) -> None:
        checks.append(
            {
                "name": name,
                "max_error": float(max_error),
                "tolerance": tolerance,
                "passed": bool(max_error <= tolerance),
            }
        )

    worst = 0.0
    for _ in range(IDENTITY_CASES):
        n_a = int(rng.integers(1, 9))
        vocab = int(rng.integers(2, 13))
        probs = rng.random((n_a, vocab)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        tl = TokenLogits(probs, rng.integers(0, vocab, size=n_a))
        worst = max(worst, _rel_err(np.exp(-itg_nll(tl)), eq1_likelihood(tl)))
    add("likelihood_identity", worst, 1e-9)

    worst = 0.0
    for b in (2, 3, 8):
        loss = itc_loss_from_similarities(np.full((b, b), 0.3), temperature=0.07)
        worst = max(worst, abs(loss - np.log(b)))
    add("itc_equal_similarity_ln_b", worst, 1e-9)

    sim = rng.uniform(-1, 1, size=(3, 3))
    tau = 0.1
    error = grad_check(
        lambda s: itc_loss_from_similarities(s, tau),
        lambda s: itc_similarity_grad(s, tau),
        sim,
    )
    add("itc_gradient", error, GRAD_CHECK_TOL)

    probs = rng.uniform(0.05, 0.95, size=8)
    labels = rng.integers(0, 2, size=8).astype(float)
    error = grad_check(
        lambda p: itm_loss(MatchBatch(p, labels)),
        lambda p: itm_probs_grad(p, labels),
        probs,
    )
    add("itm_gradient", error, GRAD_CHECK_TOL)

    realized = rng.uniform(0.05, 1.0, size=6)
    error = grad_check(realized_nll, realized_nll_grad, realized)
    add("itg_gradient", error, GRAD_CHECK_TOL)

    batch = EmbeddingBatch(_random_unit(rng, 4, 3, 8), _random_unit(rng, 4, 8))
    rotation = _random_orthogonal(rng, 8)
    rotated = EmbeddingBatch(
        batch.query_embeddings @ rotation, batch.text_embeddings @ rotation
    )
    worst = 0.0
    for pooling in POOLINGS:
        worst = max(
            worst,
            abs(itc_loss(batch, 0.07, pooling) - itc_loss(rotated, 0.07, pooling)),
        )
    add("rotation_invariance", worst, 1e-9)

    perm = rng.permutation(4)
    sim4 = rng.uniform(-1, 1, size=(4, 4))
    worst = abs(
        itc_loss_from_similarities(sim4, 0.07)
        - itc_loss_from_similarities(sim4[np.ix_(perm, perm)], 0.07)
    )
    p4 = rng.uniform(0.1, 0.9, size=4)
    y4 = np.array([1.0, 0.0, 1.0, 0.0])
    worst = max(
        worst, abs(itm_loss(MatchBatch(p4, y4)) - itm_loss(MatchBatch(p4[perm], y4[perm])))
    )
    add("permutation_equivariance", worst, 1e-12)

    hand = MatchBatch(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
    worst = abs(itm_loss(hand) - (-(np.log(0.9) + np.log(0.8)) / 2))
    two_step = TokenLogits(
        np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0, 0])
    )
    worst = max(worst, abs(itg_nll(two_step) - (-np.log(0.5) - np.log(0.25))))
    uniform = TokenLogits(np.full((3, 10), 0.1), np.array([0, 1, 2]))
    worst = max(worst, abs(eq1_likelihood(uniform) - 1e-3))
    add("hand_values", worst, 1e-12)

    return {
        "passed": all(c["passed"] for c in checks),
        "seed": seed,
        "identity_cases": IDENTITY_CASES,
        "checks": checks,
    }
