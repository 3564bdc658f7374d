"""Truncation, example assembly, and the reconstruction check."""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from pyramid_masker import (
    ClusterScorer,
    MaskConfig,
    MaskingError,
    SelectionConfig,
    Strategy,
    build_masked_example,
    build_pyramid,
    extract_entities,
    roundtrip_check,
    segment_cluster,
    select_sentences,
    truncate_per_document,
)
from pyramid_masker.segment import Sentence
from pyramid_masker.selection import SelectionResult

from synth import WILDFIRE_CLUSTER, long_cluster, synthetic_cluster


def sent(doc: int, idx: int, text: str) -> Sentence:
    return Sentence("c", doc, idx, text)


def selection(masked, copied=(), scores=None) -> SelectionResult:
    return SelectionResult(
        strategy=Strategy.LEAD,
        masked=tuple(sorted(masked)),
        copied=tuple(sorted(copied)),
        scores=scores or {},
    )


# ---------------------------------------------------------------------------
# config and truncation


def test_mask_config_validation():
    with pytest.raises(ValueError):
        MaskConfig(input_token_limit=0)
    with pytest.raises(ValueError):
        MaskConfig(output_token_limit=-1)
    with pytest.raises(ValueError):
        MaskConfig(doc_sep_token="")
    with pytest.raises(ValueError):
        MaskConfig(doc_sep_token="<x>", sent_mask_token="<x>")


@pytest.mark.parametrize("token", ["a b", " <s>", "<s>\n", "\xa0"])
def test_special_token_must_be_one_whitespace_free_token(token):
    with pytest.raises(ValueError, match="whitespace-free"):
        MaskConfig(doc_sep_token=token)
    with pytest.raises(ValueError, match="whitespace-free"):
        MaskConfig(sent_mask_token=token)


def keys(documents):
    return [[s.key for s in document] for document in documents]


def test_truncate_noop_when_budget_ample():
    sentences = [sent(0, 0, "a b c"), sent(0, 1, "d e"), sent(1, 0, "f g h i")]
    assert truncate_per_document(sentences, 100, 2) == [sentences[:2], sentences[2:]]


def test_truncate_splits_budget_evenly():
    # (22 - 2) // 2 = 10 tokens per document
    sentences = [
        sent(0, 0, "a a a a a a"),
        sent(0, 1, "b b b b b b"),
        sent(1, 0, "c c c c"),
        sent(1, 1, "d d d d"),
    ]
    kept = truncate_per_document(sentences, 22, 2)
    assert keys(kept) == [[(0, 0)], [(1, 0), (1, 1)]]
    # a document whose first sentence is over its share keeps nothing
    sentences[0] = sent(0, 0, "a a a a a a a a a a a")
    assert keys(truncate_per_document(sentences, 22, 2)) == [[], [(1, 0), (1, 1)]]


def test_truncate_cut_discards_rest_of_document():
    # the 9-token sentence crosses the budget, so the short one after it
    # goes too even though it would fit on its own
    sentences = [
        sent(0, 0, "a a a"),
        sent(0, 1, "b b b b b b b b b"),
        sent(0, 2, "c"),
    ]
    kept = truncate_per_document(sentences, 11, 1)
    assert keys(kept) == [[(0, 0)]]


def test_truncate_single_document_budget():
    sentences = [sent(0, 0, "a b c d e")]
    assert truncate_per_document(sentences, 6, 1) == [sentences]
    with pytest.raises(MaskingError):
        truncate_per_document(sentences, 5, 1)


def test_truncate_unusable_cluster_raises():
    sentences = [sent(0, 0, "a b c d e f g h"), sent(1, 0, "i j k l m n o p")]
    with pytest.raises(MaskingError, match="untruncatable"):
        truncate_per_document(sentences, 10, 2)


def test_truncate_rejects_bad_num_docs():
    with pytest.raises(ValueError):
        truncate_per_document([], 10, 0)


@pytest.mark.parametrize("doc_indices", [(), (-1, 0), (0, 2)])
def test_truncate_rejects_documents_outside_num_docs(doc_indices):
    sentences = [sent(d, 0, "a b") for d in doc_indices]
    with pytest.raises(ValueError, match="document index outside"):
        truncate_per_document(sentences, 100, 2)


# ---------------------------------------------------------------------------
# assembly


def test_build_single_doc_example():
    sentences = [sent(0, 0, "A b."), sent(0, 1, "C d.")]
    example = build_masked_example("c", [sentences], selection([(0, 0)]), MaskConfig())
    assert example.input_tokens == ("<doc-sep>", "[sent-mask]", "C", "d.")
    assert example.global_attention_indices == (0,)
    assert example.target_tokens == ("A", "b.")
    assert example.dropped_masked == 0


def test_build_two_docs_separator_positions():
    documents = [[sent(0, 0, "A b.")], [sent(1, 0, "C d. E")]]
    example = build_masked_example("c", documents, selection([(1, 0)]), MaskConfig())
    assert example.input_tokens == ("<doc-sep>", "A", "b.", "<doc-sep>", "[sent-mask]")
    assert example.global_attention_indices == (0, 3)
    assert example.target_tokens == ("C", "d.", "E")


def test_build_without_lead_separator():
    documents = [[sent(0, 0, "A b.")], [sent(1, 0, "C d.")]]
    config = MaskConfig(lead_separator=False)
    example = build_masked_example("c", documents, selection([(1, 0)]), config)
    assert example.input_tokens == ("A", "b.", "<doc-sep>", "[sent-mask]")
    assert example.global_attention_indices == (2,)


def test_build_custom_special_tokens():
    sentences = [sent(0, 0, "A b."), sent(0, 1, "C d.")]
    config = MaskConfig(doc_sep_token="<s>", sent_mask_token="<gap>")
    example = build_masked_example("c", [sentences], selection([(0, 1)]), config)
    assert example.input_tokens == ("<s>", "A", "b.", "<gap>")


def test_copied_sentence_stays_in_input_and_joins_target():
    sentences = [sent(0, 0, "A b."), sent(0, 1, "C d."), sent(0, 2, "E f.")]
    example = build_masked_example(
        "c", [sentences], selection([(0, 0)], copied=[(0, 2)]), MaskConfig()
    )
    assert example.input_tokens == ("<doc-sep>", "[sent-mask]", "C", "d.", "E", "f.")
    assert example.target_tokens == ("A", "b.", "E", "f.")


def test_separator_emitted_for_empty_document():
    # doc 1 lost everything to truncation but still gets its separator
    documents = [[sent(0, 0, "A b.")], []]
    example = build_masked_example("c", documents, selection([(0, 0)]), MaskConfig())
    assert example.input_tokens == ("<doc-sep>", "[sent-mask]", "<doc-sep>")
    assert example.global_attention_indices == (0, 2)


def test_truncated_masked_sentence_is_counted():
    sentences = [sent(0, 0, "A b."), sent(0, 1, "C d.")]
    picks = selection([(0, 0), (0, 5)], scores={(0, 0): 1.0, (0, 5): 0.5})
    example = build_masked_example("c", [sentences], picks, MaskConfig())
    assert example.dropped_masked == 1
    assert example.provenance.masked == ((0, 0),)
    assert example.provenance.scores == {(0, 0): 1.0}


def test_truncated_copied_sentence_vanishes_silently():
    sentences = [sent(0, 0, "A b.")]
    picks = selection([(0, 0)], copied=[(0, 7)])
    example = build_masked_example("c", [sentences], picks, MaskConfig())
    assert example.dropped_masked == 0
    assert example.provenance.copied == ()


def test_all_masked_truncated_raises():
    sentences = [sent(0, 0, "A b.")]
    with pytest.raises(MaskingError, match="empty target"):
        build_masked_example("c", [sentences], selection([(0, 3)]), MaskConfig())


@pytest.mark.parametrize("token", ["<doc-sep>", "[sent-mask]"])
def test_special_token_as_a_word_is_an_error(token):
    sentences = [sent(0, 0, "A b."), sent(0, 1, f"The {token} word.")]
    with pytest.raises(MaskingError, match=re.escape(f"special token {token!r} in document 0")):
        build_masked_example("c", [sentences], selection([(0, 0)]), MaskConfig())


def test_special_token_inside_a_word_still_masks():
    sentences = [sent(0, 0, "A b."), sent(0, 1, "x<doc-sep>y and x[sent-mask]y.")]
    example = build_masked_example("c", [sentences], selection([(0, 0)]), MaskConfig())
    assert example.input_tokens == ("<doc-sep>", "[sent-mask]", "x<doc-sep>y", "and", "x[sent-mask]y.")
    assert example.global_attention_indices == (0,)
    assert roundtrip_check(example, sentences, MaskConfig())


def test_output_limit_cuts_target_mid_sentence():
    sentences = [sent(0, 0, "A b c d e."), sent(0, 1, "F g.")]
    config = MaskConfig(output_token_limit=3)
    example = build_masked_example("c", [sentences], selection([(0, 0)]), config)
    assert example.target_tokens == ("A", "b", "c")


# ---------------------------------------------------------------------------
# reconstruction check


def pipeline_example(cluster, config=MaskConfig(), strategy=Strategy.LEAD):
    sentences = segment_cluster(cluster)
    pyramid = None
    if strategy is Strategy.ENTITY_PYRAMID:
        pyramid = build_pyramid(extract_entities(sentences), len(cluster.documents))
    picks = select_sentences(sentences, SelectionConfig(strategy=strategy), pyramid)
    documents = truncate_per_document(
        sentences, config.input_token_limit, len(cluster.documents)
    )
    example = build_masked_example(cluster.cluster_id, documents, picks, config)
    return example, sentences


def test_roundtrip_accepts_clean_example():
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    result = roundtrip_check(example, sentences, MaskConfig())
    assert result
    assert result.diagnostic == ""


def test_roundtrip_without_sentences_is_a_value_error():
    example, _ = pipeline_example(WILDFIRE_CLUSTER)
    with pytest.raises(ValueError, match="no sentences"):
        roundtrip_check(example, [], MaskConfig())


def test_roundtrip_flags_tampered_target():
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    tampered = replace(
        example, target_tokens=example.target_tokens[:-1] + ("wrong",)
    )
    result = roundtrip_check(tampered, sentences, MaskConfig())
    assert not result
    assert "target" in result.diagnostic


def test_roundtrip_flags_swapped_target_order():
    # masked and copied segments in the wrong order must not pass
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    by_key = {s.key: s for s in sentences}
    masked_words = []
    for key in example.provenance.masked:
        masked_words.extend(by_key[key].text.split())
    swapped = example.target_tokens[len(masked_words):] + tuple(masked_words)
    assert swapped != example.target_tokens
    result = roundtrip_check(replace(example, target_tokens=swapped), sentences, MaskConfig())
    assert not result


def test_roundtrip_flags_bad_attention_indices():
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    tampered = replace(
        example,
        global_attention_indices=example.global_attention_indices[:-1] + (1,),
    )
    result = roundtrip_check(tampered, sentences, MaskConfig())
    assert not result
    assert "attention" in result.diagnostic or "separator" in result.diagnostic


def test_roundtrip_flags_tampered_input():
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    tokens = list(example.input_tokens)
    for i, tok in enumerate(tokens):
        if tok not in ("<doc-sep>", "[sent-mask]"):
            tokens[i] = "altered"
            break
    result = roundtrip_check(replace(example, input_tokens=tuple(tokens)), sentences, MaskConfig())
    assert not result
    assert "reconstructed input" in result.diagnostic


def test_roundtrip_flags_extra_mask_token():
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    tampered = replace(example, input_tokens=example.input_tokens + ("[sent-mask]",))
    result = roundtrip_check(tampered, sentences, MaskConfig())
    assert not result


def test_roundtrip_flags_nonsurviving_provenance():
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    prov = replace(
        example.provenance,
        masked=example.provenance.masked + ((9, 9),),
        scores={},
    )
    result = roundtrip_check(replace(example, provenance=prov), sentences, MaskConfig())
    assert not result
    assert "non-surviving" in result.diagnostic


def _without_mask_tokens(example):
    """The example's input with its mask tokens dropped and the attention
    indices moved to where the separators now are."""
    tokens = tuple(t for t in example.input_tokens if t != "[sent-mask]")
    separators = tuple(i for i, t in enumerate(tokens) if t == "<doc-sep>")
    return replace(example, input_tokens=tokens, global_attention_indices=separators)


@pytest.mark.parametrize(
    "tamper, config, diagnostic",
    [
        (lambda e: replace(e, target_tokens=e.target_tokens[:-1]), MaskConfig(), "target: length"),
        (_without_mask_tokens, MaskConfig(), "masked sentences never substituted"),
        # three documents leave no token of budget under a limit of three
        (lambda e: e, MaskConfig(input_token_limit=3), "cluster untruncatable"),
    ],
    ids=["short-target", "unsubstituted", "untruncatable"],
)
def test_roundtrip_names_the_divergence(tamper, config, diagnostic):
    example, sentences = pipeline_example(WILDFIRE_CLUSTER)
    result = roundtrip_check(tamper(example), sentences, config)
    assert not result
    assert diagnostic in result.diagnostic


@settings(deadline=None, max_examples=50)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([Strategy.LEAD, Strategy.ENTITY_PYRAMID, Strategy.PRINCIPLE]),
    st.booleans(),
)
def test_roundtrip_holds_across_synthetic_clusters(seed, strategy, lead_sep):
    rng = random.Random(seed)
    cluster = synthetic_cluster(rng, f"rt{seed}")
    config = MaskConfig(input_token_limit=rng.choice([64, 128, 4096]), lead_separator=lead_sep)
    try:
        example, sentences = pipeline_example(cluster, config, strategy)
    except MaskingError:
        assume(False)
        return
    result = roundtrip_check(example, sentences, config)
    assert result, result.diagnostic


def test_roundtrip_with_truncation_pressure():
    rng = random.Random(99)
    cluster = long_cluster(rng, "long", num_docs=3, tokens_per_doc=600)
    config = MaskConfig(input_token_limit=256)
    example, sentences = pipeline_example(cluster, config, Strategy.LEAD)
    assert len(example.input_tokens) <= 256
    result = roundtrip_check(example, sentences, config)
    assert result, result.diagnostic
