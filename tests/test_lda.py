"""Tests for the LDA corpus, variational EM, and SparkPlug driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma, gammaln

from repro.lda.corpus import make_corpus
from repro.lda.sparkplug import SparkPlugLDA, compare_stacks
from repro.lda.vem import (
    LdaModel,
    e_step,
    fit,
    m_step,
    perplexity,
    topic_recovery_score,
)
from repro.spark.engine import SparkEngine


def reference_e_step(model, docs, max_iters=40, tol=1e-4):
    """One-document-at-a-time E-step: the exactness reference for the
    document-batched ``e_step``."""
    k = model.n_topics
    log_beta = np.log(np.maximum(model.beta, 1e-300))
    ss = np.zeros_like(model.beta)
    gammas = np.zeros((len(docs), k))
    bound = 0.0
    for d, (ids, counts) in enumerate(docs):
        gamma = np.full(k, model.alpha + counts.sum() / k)
        lb = log_beta[:, ids]  # (K, W)
        for _ in range(max_iters):
            elog_theta = digamma(gamma) - digamma(gamma.sum())
            log_phi = lb + elog_theta[:, None]
            log_norm = _logsumexp(log_phi, axis=0)
            phi = np.exp(log_phi - log_norm[None, :])
            gamma_new = model.alpha + phi @ counts
            if np.abs(gamma_new - gamma).max() < tol:
                gamma = gamma_new
                break
            gamma = gamma_new
        elog_theta = digamma(gamma) - digamma(gamma.sum())
        log_phi = lb + elog_theta[:, None]
        log_norm = _logsumexp(log_phi, axis=0)
        phi = np.exp(log_phi - log_norm[None, :])
        np.add.at(ss.T, ids, (phi * counts[None, :]).T)
        gammas[d] = gamma
        # per-doc bound: token terms + theta entropy/prior terms
        bound += float(counts @ log_norm)
        bound += float(
            gammaln(k * model.alpha) - k * gammaln(model.alpha)
            + np.sum(gammaln(gamma)) - gammaln(gamma.sum())
            + np.sum((model.alpha - gamma) * elog_theta)
        )
        # subtract E_q[log q(z)] - ... already folded: log_norm form
        # accounts for the phi entropy exactly (standard identity).
    return ss, gammas, bound


def _logsumexp(a, axis):
    m = a.max(axis=axis)
    return m + np.log(np.sum(np.exp(a - np.expand_dims(m, axis)), axis=axis))


def _empty_doc():
    return np.zeros(0, dtype=np.int64), np.zeros(0)


def _assert_estep_close(got, want):
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    assert got[2] == pytest.approx(want[2], rel=1e-12)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(n_docs=100, vocab_per_language=120, n_languages=2,
                       n_topics=3, doc_length=50, seed=0)


class TestCorpus:
    def test_shapes(self, corpus):
        assert corpus.vocab_size == 240
        assert corpus.n_docs == 100
        assert corpus.n_tokens == 100 * 50

    def test_language_blocks_disjoint(self, corpus):
        """Each document uses exactly one language's vocabulary block."""
        for ids, _ in corpus.docs:
            langs = set((ids // 120).tolist())
            assert len(langs) == 1

    def test_true_topics_language_local(self, corpus):
        t = corpus.true_topics
        for row in range(3):
            assert t[row, 120:].sum() == 0.0  # language-0 topics
        for row in range(3, 6):
            assert t[row, :120].sum() == 0.0

    def test_zipf_heavy_head(self, corpus):
        counts = corpus.dense_matrix().sum(axis=0)
        lang0 = counts[:120]
        top10 = np.sort(lang0)[::-1][:10].sum()
        assert top10 > 0.25 * lang0.sum()

    def test_deterministic(self):
        a = make_corpus(n_docs=5, seed=3)
        b = make_corpus(n_docs=5, seed=3)
        for (ia, ca), (ib, cb) in zip(a.docs, b.docs):
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(ca, cb)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_corpus(n_docs=0)
        with pytest.raises(ValueError):
            make_corpus(zipf_exponent=0.0)


class TestVem:
    def test_bound_monotone(self, corpus):
        _, history = fit(corpus, n_topics=6, n_iters=10, seed=1)
        diffs = np.diff(history)
        assert np.all(diffs > -1e-6 * np.abs(history[0]))

    def test_recovers_planted_topics(self, corpus):
        model, _ = fit(corpus, n_topics=6, n_iters=15, seed=1)
        assert topic_recovery_score(model, corpus.true_topics) > 0.8

    def test_perplexity_improves_with_training(self, corpus):
        m0 = LdaModel.random_init(6, corpus.vocab_size, seed=2)
        trained, _ = fit(corpus, n_topics=6, n_iters=10, seed=2)
        assert perplexity(trained, corpus.docs) < perplexity(m0, corpus.docs)

    def test_ss_totals_match_token_counts(self, corpus):
        model = LdaModel.random_init(6, corpus.vocab_size, seed=0)
        ss, gammas, _ = e_step(model, corpus.docs)
        assert ss.sum() == pytest.approx(corpus.n_tokens, rel=1e-10)
        assert gammas.shape == (corpus.n_docs, 6)
        assert np.all(gammas > 0)

    def test_m_step_normalizes(self, corpus):
        model = LdaModel.random_init(4, corpus.vocab_size, seed=0)
        ss = np.random.default_rng(0).random(model.beta.shape)
        new = m_step(model, ss)
        np.testing.assert_allclose(new.beta.sum(axis=1), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LdaModel(beta=np.ones((2, 3)))  # rows don't sum to 1
        with pytest.raises(ValueError):
            LdaModel.random_init(2, 10, alpha=-1.0)
        model = LdaModel.random_init(2, 10)
        with pytest.raises(ValueError):
            m_step(model, np.zeros((3, 10)))


class TestBatchedEStep:
    """The document-batched ``e_step`` against the per-document loop."""

    @given(
        k=st.integers(2, 8),
        n_docs=st.integers(1, 40),
        doc_length=st.integers(1, 120),
        n_languages=st.integers(1, 3),
        seed=st.integers(0, 1000),
        one_word_at=st.one_of(st.none(), st.integers(0, 40)),
        max_iters=st.sampled_from([0, 1, 40]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_document_reference(self, k, n_docs, doc_length,
                                            n_languages, seed, one_word_at,
                                            max_iters):
        c = make_corpus(n_docs=n_docs, vocab_per_language=60,
                        n_languages=n_languages, n_topics=2,
                        doc_length=doc_length, seed=seed)
        docs = list(c.docs)
        if one_word_at is not None:
            # ragged block: a 1-word document among long ones
            ids, counts = docs[0]
            docs.insert(min(one_word_at, len(docs)), (ids[:1], counts[:1]))
        model = LdaModel.random_init(k, c.vocab_size, seed=seed)
        _assert_estep_close(
            e_step(model, docs, max_iters=max_iters),
            reference_e_step(model, docs, max_iters=max_iters),
        )

    def test_matches_reference_across_blocks(self, corpus):
        """More documents than one padded block holds."""
        docs = corpus.docs * 3
        model = LdaModel.random_init(6, corpus.vocab_size, seed=4)
        _assert_estep_close(e_step(model, docs),
                            reference_e_step(model, docs))

    def test_batch_composition_invariance(self, corpus):
        """A document's gamma does not depend on which documents share
        its call: a converged document that kept iterating would move
        at the 1e-4 tolerance scale."""
        ids, counts = corpus.docs[3]
        docs = corpus.docs[:24] + [(ids[:1], counts[:1])]
        model = LdaModel.random_init(6, corpus.vocab_size, seed=7)
        ss, gammas, _ = e_step(model, docs)
        singles = [e_step(model, [doc]) for doc in docs]
        np.testing.assert_allclose(
            gammas, np.vstack([g for _, g, _ in singles]), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            ss, sum(s for s, _, _ in singles), rtol=0, atol=1e-12
        )
        for cut in (1, 9, 24):
            head, tail = e_step(model, docs[:cut]), e_step(model, docs[cut:])
            np.testing.assert_allclose(
                gammas, np.vstack([head[1], tail[1]]), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(ss, head[0] + tail[0], rtol=0,
                                       atol=1e-12)

    def test_no_documents(self, corpus):
        model = LdaModel.random_init(5, corpus.vocab_size, seed=0)
        ss, gammas, bound = e_step(model, [])
        np.testing.assert_array_equal(ss, np.zeros((5, corpus.vocab_size)))
        assert gammas.shape == (0, 5)
        assert bound == 0.0

    def test_document_without_words(self, corpus):
        model = LdaModel.random_init(5, corpus.vocab_size, seed=0)
        # alone, the padded block has no word slots at all
        ss, gammas, bound = e_step(model, [_empty_doc()])
        np.testing.assert_array_equal(ss, 0.0)
        np.testing.assert_array_equal(gammas, [[model.alpha] * 5])
        assert np.isfinite(bound)
        _assert_estep_close((ss, gammas, bound),
                            reference_e_step(model, [_empty_doc()]))
        # beside real documents it contributes nothing to ss
        docs = [corpus.docs[0], _empty_doc(), corpus.docs[1]]
        got = e_step(model, docs)
        np.testing.assert_array_equal(got[1][1], [model.alpha] * 5)
        _assert_estep_close(got, reference_e_step(model, docs))
        np.testing.assert_allclose(
            got[0], e_step(model, docs[::2])[0], rtol=0, atol=1e-12
        )


class TestSparkPlug:
    def test_distributed_matches_reference(self, corpus):
        eng = SparkEngine(4)
        lda = SparkPlugLDA(corpus, 6, eng, seed=1)
        lda.iterate(3)
        ref = LdaModel.random_init(6, corpus.vocab_size, seed=1)
        for _ in range(3):
            ss, _, _ = e_step(ref, corpus.docs)
            ref = m_step(ref, ss)
        np.testing.assert_allclose(lda.model.beta, ref.beta, atol=1e-12)

    def test_single_partition_bitwise(self, corpus):
        """At one partition the distributed run is bitwise the
        single-process reference; other partition counts add partial
        statistics in another order (test above, 1e-12)."""
        eng = SparkEngine(1)
        lda = SparkPlugLDA(corpus, 6, eng, seed=1)
        lda.iterate(3)
        ref = LdaModel.random_init(6, corpus.vocab_size, seed=1)
        for _ in range(3):
            ss, _, _ = e_step(ref, corpus.docs)
            ref = m_step(ref, ss)
        assert np.array_equal(lda.model.beta, ref.beta)

    def test_partition_count_invariance(self, corpus):
        models = []
        for p in (2, 7):
            eng = SparkEngine(p)
            lda = SparkPlugLDA(corpus, 4, eng, seed=5)
            lda.iterate(2)
            models.append(lda.model.beta)
        np.testing.assert_allclose(models[0], models[1], atol=1e-12)

    def test_phases_populated(self, corpus):
        eng = SparkEngine(8)
        lda = SparkPlugLDA(corpus, 4, eng)
        lda.iterate(1)
        breakdown = lda.phase_breakdown()
        for phase in ("compute", "shuffle", "aggregate"):
            assert breakdown[phase] > 0

    def test_bound_history_grows(self, corpus):
        eng = SparkEngine(4)
        lda = SparkPlugLDA(corpus, 4, eng, seed=2)
        lda.iterate(5)
        assert len(lda.bound_history) == 5
        assert lda.bound_history[-1] > lda.bound_history[0]

    def test_fig2_shape(self, corpus):
        """Fig 2: optimized stack more than 2X faster overall, with
        shuffle shrinking the most."""
        res = compare_stacks(corpus, 4, n_workers=32, n_iters=2)
        speedup = res["default"]["total"] / res["optimized"]["total"]
        assert speedup > 2.0
        shuffle_gain = res["default"]["shuffle"] / res["optimized"]["shuffle"]
        compute_gain = res["default"]["compute"] / res["optimized"]["compute"]
        assert shuffle_gain > compute_gain

    def test_fig2_artifact_pinned(self):
        """The EXPERIMENTS.md Fig 2 row, from the bench_fig2_lda.py
        corpus and settings."""
        c = make_corpus(n_docs=240, vocab_per_language=250, n_languages=3,
                        n_topics=4, doc_length=90, seed=0)
        res = compare_stacks(c, 8, n_workers=32, n_iters=3, seed=0)
        rows = {
            label: tuple(round(res[label][phase], 4)
                         for phase in ("compute", "shuffle", "aggregate",
                                       "total"))
            for label in ("default", "optimized")
        }
        assert rows == {
            "default": (0.0123, 0.0219, 0.0029, 0.037),
            "optimized": (0.0068, 0.0032, 0.001, 0.011),
        }
        speedup = res["default"]["total"] / res["optimized"]["total"]
        assert f"{speedup:.2f}X" == "3.37X"

    def test_validation(self, corpus):
        eng = SparkEngine(2)
        with pytest.raises(ValueError):
            SparkPlugLDA(corpus, 0, eng)
        with pytest.raises(ValueError):
            SparkPlugLDA(corpus, 2, eng, shuffle_algorithm="sort")
        with pytest.raises(ValueError):
            SparkPlugLDA(corpus, 2, eng, aggregate_algorithm="ring")
        lda = SparkPlugLDA(corpus, 2, eng)
        with pytest.raises(ValueError):
            lda.iterate(-1)
