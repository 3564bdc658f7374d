"""ROUGE metrics and cluster-level salience scores."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pyramid_masker import (
    ClusterScorer,
    DocumentCluster,
    SalienceVariant,
    cluster_rouge,
    principle_score,
    rouge_l,
    rouge_n,
    salience,
    segment_cluster,
)
from pyramid_masker.rouge import LCS_TOKEN_CAP
from pyramid_masker.segment import Sentence

from oracles import (
    cluster_rouge_oracle,
    principle_oracle,
    rouge_l_oracle,
    rouge_n_oracle,
    variant_oracle,
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
    return Sentence("c", doc, sent, words, tuple(words.split()))


def test_principle_rejects_included_sentence():
    s = sentence(0, 0, "a b")
    with pytest.raises(ValueError):
        principle_score(s, [s, sentence(0, 1, "c d")])


def test_principle_empty_context_is_zero():
    assert principle_score(sentence(0, 0, "a b"), []) == 0.0


def test_principle_full_containment_recall():
    target = sentence(0, 0, "a b")
    context = [sentence(0, 1, "a b c d")]
    score = principle_score(target, context, SalienceVariant.R1_F1)
    _, _, expected = rouge_n_oracle(["a", "b"], ["a", "b", "c", "d"], 1)
    assert score == pytest.approx(expected)


def test_cluster_rouge_single_document_is_zero():
    sentences = [sentence(0, 0, "a b"), sentence(0, 1, "c d")]
    assert cluster_rouge(sentences[0], sentences) == 0.0


def test_cluster_rouge_verbatim_twin_document():
    twin = [sentence(0, 0, "a b c"), sentence(1, 0, "a b c")]
    assert cluster_rouge(twin[0], twin, SalienceVariant.R1_F1) == 1.0


def test_cluster_rouge_invariant_to_document_relabeling():
    rng = random.Random(11)
    cluster = synthetic_cluster(rng, "perm", num_docs=4, total_sentences=12)
    sentences = segment_cluster(cluster)
    target = sentences[0]
    baseline = cluster_rouge(target, sentences)
    perm = [3, 0, 2, 1]
    relabeled = [
        Sentence(s.cluster_id, perm[s.doc_index], s.sent_index, s.text, s.tokens)
        for s in sentences
    ]
    moved = next(
        s for s in relabeled if (s.doc_index, s.sent_index) == (perm[target.doc_index], target.sent_index)
    )
    assert cluster_rouge(moved, relabeled) == pytest.approx(baseline, abs=1e-12)


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


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(SalienceVariant)))
def test_scorer_matches_naive_functions(seed, variant):
    rng = random.Random(seed)
    clusters = [synthetic_cluster(rng, f"eq{seed}", total_sentences=rng.randint(5, 14))]
    clusters += SCORER_EDGE_CLUSTERS
    for cluster in clusters:
        sentences = segment_cluster(cluster)
        # A fresh scorer per order: whichever method runs first fills the
        # shared per-sentence cache the other then reads.
        for cluster_first in (True, False):
            scorer = ClusterScorer(sentences, variant)
            for s in sentences if cluster_first else reversed(sentences):
                context = [o for o in sentences if o is not s]
                expected_principle = principle_score(s, context, variant)
                expected_cluster = cluster_rouge(s, sentences, variant)
                if cluster_first:
                    assert scorer.cluster(s) == expected_cluster
                    assert scorer.principle(s) == expected_principle
                else:
                    assert scorer.principle(s) == expected_principle
                    assert scorer.cluster(s) == expected_cluster


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_naive_functions_match_test_oracles(seed):
    rng = random.Random(seed)
    cluster = synthetic_cluster(rng, f"or{seed}", total_sentences=rng.randint(5, 12))
    sentences = segment_cluster(cluster)
    for s in sentences:
        context = [o for o in sentences if o is not s]
        assert principle_score(s, context) == pytest.approx(
            principle_oracle(s, sentences), abs=1e-12
        )
        assert cluster_rouge(s, sentences) == pytest.approx(
            cluster_rouge_oracle(s, sentences), abs=1e-12
        )


@given(TOKENS, TOKENS)
def test_salience_variants_agree_with_oracle(cand, ref):
    for variant in SalienceVariant:
        assert salience(cand, ref, variant) == pytest.approx(
            variant_oracle(cand, ref, variant.value), abs=1e-12
        )


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
        Sentence("rep", d, j, " ".join(tokens) or "...", tuple(tokens))
        for d, doc in enumerate(docs)
        for j, tokens in enumerate(doc)
    ]
    scorer = ClusterScorer(sentences, variant)
    for s in sentences:
        assert scorer.principle(s) == pytest.approx(
            principle_oracle(s, sentences, variant.value), abs=1e-12
        )
        assert scorer.cluster(s) == pytest.approx(
            cluster_rouge_oracle(s, sentences, variant.value), abs=1e-12
        )
        context = [o for o in sentences if o is not s]
        assert scorer.principle(s) == principle_score(s, context, variant)
        assert scorer.cluster(s) == cluster_rouge(s, sentences, variant)
