"""Variational-EM Latent Dirichlet Allocation.

The standard Blei/Ng/Jordan batch algorithm: per-document variational
E-step (fixed point on the topic responsibilities ``phi`` and the
Dirichlet posterior ``gamma``), then an M-step re-estimating the
topic-word distributions from aggregated sufficient statistics.  The
E-step is embarrassingly parallel over documents — which is exactly
what SparkPlug distributes.

``e_step`` runs the fixed point on a padded block of documents at once
rather than looping over documents in Python; each document still
converges on its own and stops iterating at its own tolerance check,
so results match a one-document-at-a-time loop to rounding (1e-12,
tested against such a loop).

The objective tracked is the EM lower bound restricted to the terms
that change (token likelihood under the variational posterior plus the
theta-prior term); the test suite checks it is non-decreasing, the
hallmark of a correct variational EM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import digamma, gammaln

from repro.lda.corpus import SyntheticCorpus
from repro.util.rng import make_rng

Doc = Tuple[np.ndarray, np.ndarray]

#: documents per padded E-step block; caps the (D, K, W) working arrays
_DOC_BLOCK = 256


@dataclass
class LdaModel:
    """Model state: topic-word distributions and hyperparameters."""

    beta: np.ndarray          # (K, V), rows sum to 1
    alpha: float = 0.3
    eta: float = 0.01

    def __post_init__(self) -> None:
        if self.beta.ndim != 2:
            raise ValueError("beta must be (K, V)")
        if self.alpha <= 0 or self.eta <= 0:
            raise ValueError("hyperparameters must be positive")
        rows = self.beta.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-8):
            raise ValueError("beta rows must sum to 1")

    @property
    def n_topics(self) -> int:
        return self.beta.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.beta.shape[1]

    @staticmethod
    def random_init(n_topics: int, vocab_size: int, seed: int = 0,
                    alpha: float = 0.3, eta: float = 0.01) -> "LdaModel":
        rng = make_rng(seed)
        beta = rng.random((n_topics, vocab_size)) + 0.01
        beta /= beta.sum(axis=1, keepdims=True)
        return LdaModel(beta=beta, alpha=alpha, eta=eta)


def e_step(
    model: LdaModel,
    docs: Sequence[Doc],
    max_iters: int = 40,
    tol: float = 1e-4,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Variational E-step over *docs*, batched across documents.

    Returns (sufficient statistics (K, V), gammas (D, K), bound
    contribution).  The bound term is the per-document token
    likelihood bound sum_w c_w * log(sum_k phi_kw-weighted terms)
    evaluated in its numerically stable log-sum-exp form.

    Documents run in blocks of ``_DOC_BLOCK``, each padded to its
    longest document (count 0, word id 0), so every fixed-point
    iteration is one set of array operations over the block.
    Convergence stays per document: a document leaves the active set at
    the iteration where its own ``max|delta gamma| < tol``, exactly
    where a one-document loop would stop.  Inside the fixed point phi
    is normalised over topics in linear space, from beta taken relative
    to each token's likeliest topic (one exp per call, not per
    iteration); the final pass computes phi, ``ss`` and the bound in the
    log-sum-exp form.  ``ss`` accumulates in document order, over real
    tokens only.
    """
    k = model.n_topics
    log_beta = np.log(np.maximum(model.beta, 1e-300))
    ss = np.zeros_like(model.beta)
    gammas = np.zeros((len(docs), k))
    bound = 0.0
    for lo in range(0, len(docs), _DOC_BLOCK):
        block = docs[lo:lo + _DOC_BLOCK]
        bound += _e_step_block(model, log_beta, block, max_iters, tol, ss,
                               gammas[lo:lo + len(block)])
    return ss, gammas, bound


def _e_step_block(model, log_beta, docs, max_iters, tol, ss, gamma):
    """E-step on one block of documents: fills ``gamma`` (D, K) and adds
    into ``ss`` in place, returns the block's bound contribution."""
    k, alpha = model.n_topics, model.alpha
    lengths = np.array([len(ids) for ids, _ in docs])
    valid = np.arange(lengths.max()) < lengths[:, None]  # (D, W)
    ids = np.zeros(valid.shape, dtype=np.intp)
    ids[valid] = np.concatenate([i for i, _ in docs])
    counts = np.zeros(valid.shape)
    counts[valid] = np.concatenate([c for _, c in docs])
    lb = np.ascontiguousarray(log_beta[:, ids].swapaxes(0, 1))  # (D, K, W)
    # beta relative to each token's likeliest topic, in [1e-300, 1]
    # since beta is clamped at 1e-300: the per-token normaliser below
    # is at least 1e-300 and no iteration takes an exp over (D, K, W)
    rel_beta = np.exp(lb - lb.max(axis=1, keepdims=True))

    gamma[:] = alpha + counts.sum(axis=1, keepdims=True) / k
    active = np.arange(len(docs))
    rel_a, counts_a, gamma_a = rel_beta, counts, gamma
    for _ in range(max_iters):
        if not active.size:
            break
        # phi is exp(E[log theta]) * beta normalised over topics; the
        # digamma of sum(gamma) is one factor per document and cancels
        elog_theta = digamma(gamma_a)
        p = np.exp(elog_theta - elog_theta.max(axis=1, keepdims=True))
        p = p[:, :, None] * rel_a
        scaled = (counts_a / p.sum(axis=1))[:, :, None]
        gamma_new = alpha + (p @ scaled)[:, :, 0]
        done = np.abs(gamma_new - gamma_a).max(axis=1) < tol
        gamma_a = gamma_new
        if done.any():
            # converged documents leave the active set at this iteration
            gamma[active[done]] = gamma_new[done]
            keep = ~done
            active = active[keep]
            rel_a, counts_a = rel_a[keep], counts_a[keep]
            gamma_a = gamma_a[keep]
    gamma[active] = gamma_a

    elog_theta = digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
    log_phi = lb + elog_theta[:, :, None]
    m = log_phi.max(axis=1, keepdims=True)
    log_norm = m + np.log(np.exp(log_phi - m).sum(axis=1, keepdims=True))
    phi = np.exp(log_phi - log_norm)
    weighted = (phi * counts[:, None, :]).swapaxes(1, 2)  # (D, W, K)
    np.add.at(ss.T, ids[valid], weighted[valid])
    # per-doc bound: token terms + theta entropy/prior terms; the
    # log_norm form accounts for the phi entropy exactly (standard
    # identity)
    per_doc = (
        np.einsum("dw,dw->d", counts, log_norm[:, 0, :])
        + (gammaln(k * alpha) - k * gammaln(alpha))
        + gammaln(gamma).sum(axis=1) - gammaln(gamma.sum(axis=1))
        + ((alpha - gamma) * elog_theta).sum(axis=1)
    )
    return float(per_doc.sum())


def m_step(model: LdaModel, ss: np.ndarray) -> LdaModel:
    """Re-estimate beta from sufficient statistics (smoothed MLE)."""
    if ss.shape != model.beta.shape:
        raise ValueError("sufficient statistics shape mismatch")
    beta = ss + model.eta
    beta /= beta.sum(axis=1, keepdims=True)
    return LdaModel(beta=beta, alpha=model.alpha, eta=model.eta)


def fit(
    corpus: SyntheticCorpus,
    n_topics: int,
    n_iters: int = 20,
    seed: int = 0,
) -> Tuple[LdaModel, List[float]]:
    """Single-process reference EM loop; returns (model, bound history)."""
    model = LdaModel.random_init(n_topics, corpus.vocab_size, seed=seed)
    history: List[float] = []
    for _ in range(n_iters):
        ss, _, bound = e_step(model, corpus.docs)
        history.append(bound)
        model = m_step(model, ss)
    return model, history


def perplexity(model: LdaModel, docs: Sequence[Doc]) -> float:
    """exp(-bound / tokens): lower is better."""
    ss, _, bound = e_step(model, docs)
    tokens = sum(float(c.sum()) for _, c in docs)
    return float(np.exp(-bound / max(tokens, 1.0)))


def topic_recovery_score(model: LdaModel, true_topics: np.ndarray) -> float:
    """Mean best-match cosine similarity between learned and true topics."""
    def normalize(m):
        return m / np.maximum(
            np.linalg.norm(m, axis=1, keepdims=True), 1e-300
        )

    learned = normalize(model.beta)
    truth = normalize(true_topics)
    sim = learned @ truth.T  # (K_learned, K_true)
    return float(sim.max(axis=0).mean())
