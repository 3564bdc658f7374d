"""ROUGE metrics and cluster-level salience scores."""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pyramid_masker import (
    ClusterScorer,
    DocumentCluster,
    SalienceVariant,
    rouge_l,
    rouge_n,
    segment_cluster,
)
from pyramid_masker.rouge import LCS_TOKEN_CAP
from pyramid_masker.segment import NormalizationConfig, Sentence, Stemming

from oracles import (
    cluster_rouge_oracle,
    principle_oracle,
    rouge_l_oracle,
    rouge_n_oracle,
)
from synth import synthetic_cluster


def test_rouge_n_identity():
    score = rouge_n(["a", "b", "c"], ["a", "b", "c"], 1)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_n_partial():
    score = rouge_n(["a", "b"], ["b", "c"], 1)
    assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)


def test_rouge_n_clipping():
    score = rouge_n(["a", "a"], ["a"], 1)
    assert score.precision == 0.5
    assert score.recall == 1.0


def test_rouge_n_empty_inputs():
    for cand, ref in (([], ["a"]), (["a"], []), ([], [])):
        score = rouge_n(cand, ref, 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_n_too_short_for_n():
    score = rouge_n(["a"], ["a", "b"], 2)
    assert score.f1 == 0.0


def test_rouge_n_rejects_bad_n():
    with pytest.raises(ValueError):
        rouge_n(["a"], ["a"], 0)


def test_rouge_l_identity_and_disjoint():
    assert rouge_l(["a", "b"], ["a", "b"]).f1 == 1.0
    assert rouge_l(["a"], ["z"]).f1 == 0.0


def test_rouge_l_reorder():
    score = rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "b"])
    assert score.precision == 0.75
    assert score.recall == 0.75


def test_rouge_l_cap_truncates_long_side():
    long = ["x"] * (LCS_TOKEN_CAP + 500)
    score = rouge_l(long, ["x"] * 10)
    # only the first LCS_TOKEN_CAP candidate tokens are considered
    assert score.precision == 10 / LCS_TOKEN_CAP
    assert score.recall == 1.0


TOKENS = st.lists(st.sampled_from("abcde"), max_size=12)


@given(TOKENS, TOKENS, st.integers(1, 3))
def test_rouge_n_matches_oracle(cand, ref, n):
    ours = rouge_n(cand, ref, n)
    p, r, f = rouge_n_oracle(cand, ref, n)
    assert ours.precision == pytest.approx(p, abs=1e-12)
    assert ours.recall == pytest.approx(r, abs=1e-12)
    assert ours.f1 == pytest.approx(f, abs=1e-12)


@given(TOKENS, TOKENS)
def test_rouge_l_matches_oracle(cand, ref):
    ours = rouge_l(cand, ref)
    p, r, f = rouge_l_oracle(cand, ref)
    assert ours.precision == pytest.approx(p, abs=1e-12)
    assert ours.recall == pytest.approx(r, abs=1e-12)
    assert ours.f1 == pytest.approx(f, abs=1e-12)


@given(st.lists(st.sampled_from("abc"), min_size=2, max_size=10))
def test_rouge_identity_f1_is_one(tokens):
    assert rouge_n(tokens, tokens, 1).f1 == 1.0
    assert rouge_n(tokens, tokens, 2).f1 == 1.0
    assert rouge_l(tokens, tokens).f1 == 1.0


@given(TOKENS, TOKENS)
def test_adding_matching_token_never_decreases_recall(cand, ref):
    if not ref:
        return
    before = rouge_n(cand, ref, 1).recall
    after = rouge_n(cand + [ref[0]], ref, 1).recall
    assert after >= before


def sentence(doc: int, sent: int, words: str) -> Sentence:
    return Sentence("c", doc, sent, words)


def test_principle_empty_context_is_zero():
    target = sentence(0, 0, "a b")
    assert ClusterScorer([target]).principle(target) == 0.0


def test_principle_full_containment_recall():
    target = sentence(0, 0, "a b")
    scorer = ClusterScorer([target, sentence(0, 1, "a b c d")], SalienceVariant.R1_F1)
    _, _, expected = rouge_n_oracle(["a", "b"], ["a", "b", "c", "d"], 1)
    assert scorer.principle(target) == pytest.approx(expected)


def test_cluster_rouge_single_document_is_zero():
    sentences = [sentence(0, 0, "a b"), sentence(0, 1, "c d")]
    assert ClusterScorer(sentences).cluster(sentences[0]) == 0.0


def test_cluster_rouge_verbatim_twin_document():
    twin = [sentence(0, 0, "a b c"), sentence(1, 0, "a b c")]
    assert ClusterScorer(twin, SalienceVariant.R1_F1).cluster(twin[0]) == 1.0


def test_cluster_rouge_invariant_to_document_relabeling():
    """The relabelled sentences go to the scorer in document order.  Only
    the summation order of the per-document scores changes."""
    rng = random.Random(11)
    cluster = synthetic_cluster(rng, "perm", num_docs=4, total_sentences=12)
    sentences = segment_cluster(cluster)
    baseline = ClusterScorer(sentences)
    perm = [3, 0, 2, 1]
    relabeled = sorted(
        (Sentence(s.cluster_id, perm[s.doc_index], s.sent_index, s.text) for s in sentences),
        key=lambda s: s.key,
    )
    scorer = ClusterScorer(relabeled)
    for s in sentences:
        moved = next(r for r in relabeled if r.key == (perm[s.doc_index], s.sent_index))
        assert scorer.cluster(moved) == pytest.approx(baseline.cluster(s), abs=1e-12)


# Shapes the seeded synthetic clusters rarely or never produce.
SCORER_EDGE_CLUSTERS = [
    # a sentence with no tokens between two that have some
    DocumentCluster("empty", ("Smoke rose. ... Crews left.", "Smoke rose again.")),
    # verbatim duplicates, within one document and across documents
    DocumentCluster("dupes", ("Crews held the line. Crews held the line.", "Crews held the line.")),
    # "go go" inside a sentence and across both of its seams
    DocumentCluster("seam", ("Go. Go go go. Go home.", "Go home.")),
    DocumentCluster("single", ("Crews held the line. Wind pushed the fire. Crews rested.",)),
]


# The default normalization, every stage off, and stemming alone off.
NORMALIZATIONS = [
    NormalizationConfig(),
    NormalizationConfig(lowercase=False, strip_punctuation=False, stemming=Stemming.NONE),
    NormalizationConfig(stemming=Stemming.NONE),
]


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(SalienceVariant)))
def test_scorer_matches_naive_functions(seed, variant):
    """Every normalization in ``NORMALIZATIONS`` runs on every example."""
    rng = random.Random(seed)
    clusters = [synthetic_cluster(rng, f"eq{seed}", total_sentences=rng.randint(5, 14))]
    clusters += SCORER_EDGE_CLUSTERS
    for cluster, norm in itertools.product(clusters, NORMALIZATIONS):
        sentences = segment_cluster(cluster)
        # A fresh scorer per order: whichever method runs first fills the
        # shared per-sentence cache the other then reads.
        for cluster_first in (True, False):
            scorer = ClusterScorer(sentences, variant, norm)
            for s in sentences if cluster_first else reversed(sentences):
                expected_principle = principle_oracle(s, sentences, variant.value, norm)
                expected_cluster = cluster_rouge_oracle(s, sentences, variant.value, norm)
                if cluster_first:
                    assert scorer.cluster(s) == expected_cluster
                    assert scorer.principle(s) == expected_principle
                else:
                    assert scorer.principle(s) == expected_principle
                    assert scorer.cluster(s) == expected_cluster


# Clusters over a three-word vocabulary, so sentences repeat unigrams and
# bigrams, within themselves and across the seams between them.  Each
# document is a list of sentences, each sentence a list of tokens.
REPEAT_HEAVY_CLUSTERS = st.lists(
    st.lists(st.lists(st.sampled_from(["go", "a", "b"]), max_size=6), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
)


@settings(deadline=None)
@given(REPEAT_HEAVY_CLUSTERS, st.sampled_from(list(SalienceVariant)))
@example([[["go"], ["go", "go", "go"], ["go"]], [["go", "home"]]], SalienceVariant.MEAN_R1_R2_F1)
@example([[["go", "go"], [], ["go", "go"]], [["go", "go", "go"]]], SalienceVariant.R2_F1)
def test_scorer_matches_oracles_on_repeated_ngrams(docs, variant):
    sentences = [
        Sentence("rep", d, j, " ".join(tokens) or "...")
        for d, doc in enumerate(docs)
        for j, tokens in enumerate(doc)
    ]
    expected = {
        s.key: {
            "principle": principle_oracle(s, sentences, variant.value),
            "cluster": cluster_rouge_oracle(s, sentences, variant.value),
        }
        for s in sentences
    }
    # ``cluster`` caches both scores and ``principle`` reads that cache,
    # so the call order decides which path each score takes.  A fresh
    # scorer per order, and every sentence through every call.
    for order in (("cluster", "principle"), ("principle", "cluster"), ("principle", "principle")):
        scorer = ClusterScorer(sentences, variant)
        for s in sentences:
            for method in order:
                assert getattr(scorer, method)(s) == expected[s.key][method]


def test_scorer_keeps_no_ngrams_per_sentence():
    """Per sentence the scorer holds a span and, once scored, two floats:
    about 1200 bytes per sentence of this cluster, all told.  Keeping
    every sentence's n-gram profile as well takes about 2500."""
    sentences = segment_cluster(
        synthetic_cluster(random.Random(14), "mem", num_docs=6, total_sentences=240)
    )
    assert len(sentences) == 240 and len({s.doc_index for s in sentences}) == 6
    bound = 1800 * len(sentences)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scorer = ClusterScorer(sentences)
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < bound
        for s in sentences:
            scorer.cluster(s)
            scorer.principle(s)
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < bound
    finally:
        tracemalloc.stop()
