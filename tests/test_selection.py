"""Sentence-selection strategies and the mask/copy count arithmetic."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pyramid_masker import (
    ClusterScorer,
    PyramidEntry,
    SelectionConfig,
    Strategy,
    build_pyramid,
    compute_copy_count,
    compute_mask_count,
    extract_entities,
    segment_cluster,
    select_sentences,
    truncate_per_document,
)
from pyramid_masker.entities import fold_words
from pyramid_masker.segment import Sentence
from pyramid_masker.selection import select_entity_pyramid, select_principle

from oracles import contains_entity_oracle, counts_oracle, entity_pyramid_oracle
from synth import ENTITY_KEYS, QUOTE_KEYS, WILDFIRE_CLUSTER, synthetic_cluster


# ---------------------------------------------------------------------------
# count arithmetic


@pytest.mark.parametrize(
    "total,expected_mask,expected_copy",
    [(1, 1, 0), (2, 1, 0), (3, 1, 0), (7, 1, 1), (20, 3, 3), (100, 15, 15)],
)
def test_default_ratio_counts(total, expected_mask, expected_copy):
    m = compute_mask_count(total, 0.15)
    assert m == expected_mask
    assert compute_copy_count(total, m, 0.15) == expected_copy


def test_mask_count_capped_below_total():
    # rounding would ask for 2 of 2; the cap leaves one sentence unmasked
    assert compute_mask_count(2, 0.9) == 1
    assert compute_mask_count(1, 0.9) == 1


def test_mask_count_needs_a_sentence():
    with pytest.raises(ValueError, match="no sentences"):
        compute_mask_count(0, 0.15)


def test_copy_count_never_exceeds_leftover():
    m = compute_mask_count(4, 0.5)
    assert m == 2
    assert compute_copy_count(4, m, 0.9) == 2


@given(st.integers(1, 500), st.floats(0.01, 1.0), st.floats(0.0, 0.99))
def test_counts_match_oracle(total, mask_ratio, copy_ratio):
    m = compute_mask_count(total, mask_ratio)
    c = compute_copy_count(total, m, copy_ratio)
    assert (m, c) == counts_oracle(total, mask_ratio, copy_ratio)
    assert 1 <= m <= max(1, total - 1) or total == 1
    assert m + c <= total


def test_config_validation():
    SelectionConfig(mask_ratio=1.0, copy_ratio=0.0)
    with pytest.raises(ValueError):
        SelectionConfig(mask_ratio=0.0)
    with pytest.raises(ValueError):
        SelectionConfig(copy_ratio=1.0)
    with pytest.raises(ValueError):
        SelectionConfig(mask_ratio=0.7, copy_ratio=0.7)


# ---------------------------------------------------------------------------
# strategy helpers


def sent(doc: int, idx: int, text: str) -> Sentence:
    return Sentence("c", doc, idx, text)


def wildfire_sentences():
    return segment_cluster(WILDFIRE_CLUSTER)


# Two sentences masked and one copied of the wildfire cluster's nine.
TWO_AND_ONE = {"mask_ratio": 0.2, "copy_ratio": 0.1}


def test_lead_takes_cluster_prefix():
    sentences = wildfire_sentences()
    result = select_sentences(sentences, SelectionConfig(strategy=Strategy.LEAD, **TWO_AND_ONE))
    assert result.strategy is Strategy.LEAD
    assert result.masked == ((0, 0), (0, 1))
    assert result.copied == ((0, 2),)
    assert not result.scores


def _select(strategy):
    pyramid = build_pyramid(extract_entities(wildfire_sentences()), 3)
    config = SelectionConfig(strategy=strategy)
    return lambda sentences: select_sentences(sentences, config, pyramid)


# Every function whose answer depends on the order of the list it is given.
ORDER_DEPENDENT = {
    "select_entity_pyramid": lambda sentences: select_entity_pyramid(
        sentences, [PyramidEntry("colorado", 2, ())], 1, 1, ClusterScorer(wildfire_sentences())
    ),
    **{f"select_sentences-{s.value}": _select(s) for s in Strategy},
    "ClusterScorer": ClusterScorer,
    "truncate_per_document": lambda sentences: truncate_per_document(sentences, 4096, 3),
}


@pytest.mark.parametrize("name", list(ORDER_DEPENDENT))
def test_input_out_of_document_order_is_rejected(name):
    call = ORDER_DEPENDENT[name]
    sentences = wildfire_sentences()
    call(sentences)
    shuffled = list(sentences)
    random.Random(3).shuffle(shuffled)
    assert shuffled != sentences
    repeated = sentences[:3] + sentences[2:]
    for bad in (shuffled, repeated):
        with pytest.raises(ValueError, match="not in document order"):
            call(bad)


def test_principle_ranking_ignores_presentation_order():
    # ranked by (-score, key), which no list order changes
    sentences = wildfire_sentences()
    shuffled = list(sentences)
    random.Random(3).shuffle(shuffled)
    scorer = ClusterScorer(sentences)
    assert select_principle(shuffled, 2, 1, scorer) == select_principle(sentences, 2, 1, scorer)


def test_random_is_deterministic_per_cluster():
    sentences = wildfire_sentences()
    config = SelectionConfig(strategy=Strategy.RANDOM, seed=7, **TWO_AND_ONE)
    a = select_sentences(sentences, config)
    b = select_sentences(sentences, config)
    assert a == b
    assert len(a.masked) == 2 and len(a.copied) == 1


def test_random_varies_with_seed_and_cluster_id():
    sentences = wildfire_sentences()
    config = SelectionConfig(strategy=Strategy.RANDOM, seed=7, mask_ratio=0.3, copy_ratio=0.0)
    base = select_sentences(sentences, config)
    assert len(base.masked) == 3 and base.copied == ()
    other_seed = select_sentences(sentences, replace(config, seed=8))
    other_id = select_sentences([replace(s, cluster_id="elsewhere") for s in sentences], config)
    assert base != other_seed
    assert base != other_id


def test_principle_prefers_repeated_quote():
    sentences = wildfire_sentences()
    scorer = ClusterScorer(sentences)
    result = select_principle(sentences, 1, 1, scorer)
    assert result.masked == ((1, 1),)
    assert result.copied == ((2, 1),)
    others = [scorer.principle(s) for s in sentences if s.key not in QUOTE_KEYS]
    assert result.scores[(1, 1)] > max(others)


def test_entity_pyramid_masks_entity_sentence():
    sentences = wildfire_sentences()
    mentions = extract_entities(sentences)
    pyramid = build_pyramid(mentions, len(WILDFIRE_CLUSTER.documents))
    assert [e.entity for e in pyramid] == ["colorado"]
    scorer = ClusterScorer(sentences)
    result = select_entity_pyramid(sentences, pyramid, 1, 1, scorer)
    assert result.masked == ((0, 0),)
    assert result.masked[0] in ENTITY_KEYS
    # only one pyramid entity, so the copy slot falls back to principle rank
    assert result.fallback_used
    assert result.copied == ((1, 1),)


def test_entity_pyramid_without_fallback():
    sentences = wildfire_sentences()
    mentions = extract_entities(sentences)
    pyramid = build_pyramid(mentions, len(WILDFIRE_CLUSTER.documents))
    scorer = ClusterScorer(sentences)
    result = select_entity_pyramid(sentences, pyramid, 1, 0, scorer)
    assert not result.fallback_used
    assert result.copied == ()


class CountingScorer(ClusterScorer):
    def __init__(self, sentences):
        super().__init__(sentences)
        self.principle_calls: Counter = Counter()

    def principle(self, sentence):
        self.principle_calls[sentence.key] += 1
        return super().principle(sentence)


def test_principle_ranking_scores_each_sentence_once():
    """``select_principle`` and the ``entity_pyramid`` fallback ask for
    each ranked sentence's principle score exactly once."""
    sentences = wildfire_sentences()
    scorer = CountingScorer(sentences)
    result = select_principle(sentences, 1, 1, scorer)
    assert scorer.principle_calls == Counter(s.key for s in sentences)
    fresh = ClusterScorer(sentences)
    by_key = {s.key: s for s in sentences}
    assert result.scores == {key: fresh.principle(by_key[key]) for key in result.scores}

    pyramid = build_pyramid(extract_entities(sentences), len(WILDFIRE_CLUSTER.documents))
    scorer = CountingScorer(sentences)
    result = select_entity_pyramid(sentences, pyramid, 1, 1, scorer)
    assert result.fallback_used and result.masked == ((0, 0),)
    assert scorer.principle_calls == Counter(s.key for s in sentences if s.key != (0, 0))


def test_entity_match_respects_token_boundaries():
    # (entity, texts that contain it only as a substring, text that mentions it)
    cases = [
        ("us", ["usage grows quickly here", "the bus left early"], "they warned us yesterday"),
        ("zed", ["zedd and the zeds came", "amazed crowds cheered"], "we met zed, then left"),
        ("u.s.", ["the uxsy team lost", "the u.s.a. team lost"], "the u.s. team won"),
        (fold_words(["Straße"]), ["strassen were closed"], "they closed the STRASSE today"),
    ]
    for entity, near_misses, mention in cases:
        misses = [sent(0, i, text) for i, text in enumerate(near_misses)]
        filler = sent(1, 1, "nothing else happened there")
        pyramid = [PyramidEntry(entity, 2, ((0, 0), (1, 0)))]

        sentences = misses + [filler]
        result = select_entity_pyramid(sentences, pyramid, 1, 0, ClusterScorer(sentences))
        assert result.fallback_used, entity  # no near miss is a candidate

        sentences = misses + [sent(1, 0, mention), filler]
        result = select_entity_pyramid(sentences, pyramid, 1, 0, ClusterScorer(sentences))
        assert not result.fallback_used, entity
        assert result.masked == ((1, 0),), entity


def test_entity_tie_breaks_to_earliest_sentence():
    sentences = [sent(0, 0, "Brimfel spoke today"), sent(1, 0, "Brimfel spoke today")]
    pyramid = [PyramidEntry("brimfel", 2, ((0, 0), (1, 0)))]
    scorer = ClusterScorer(sentences)
    result = select_entity_pyramid(sentences, pyramid, 1, 0, scorer)
    assert result.masked == ((0, 0),)


class _UnreadEntry:
    """A pyramid entry that fails the test when its entity is read."""

    @property
    def entity(self):
        raise AssertionError("an entry after the last pick was matched")


def test_entity_pyramid_matches_no_entry_after_the_last_pick():
    sentences = [
        sent(0, 0, "Brimfel spoke today"),
        sent(1, 0, "Dorlith left after dark"),
        sent(1, 1, "word spread fast"),
    ]
    pyramid = [
        PyramidEntry("brimfel", 2, ((0, 0),)),
        PyramidEntry("dorlith", 2, ((1, 0),)),
        _UnreadEntry(),
        _UnreadEntry(),
    ]
    result = select_entity_pyramid(sentences, pyramid, 1, 1, ClusterScorer(sentences))
    assert not result.fallback_used
    assert sorted(result.masked + result.copied) == [(0, 0), (1, 0)]


def test_entity_pyramid_one_sentence_per_entity():
    # both docs mention the entity twice; only one sentence may be taken for it
    sentences = [
        sent(0, 0, "Dorlith arrived early today"),
        sent(0, 1, "Dorlith left after dark"),
        sent(1, 0, "Dorlith arrived early today"),
        sent(1, 1, "word spread fast"),
    ]
    pyramid = [PyramidEntry("dorlith", 2, ((0, 0), (0, 1), (1, 0)))]
    scorer = ClusterScorer(sentences)
    result = select_entity_pyramid(sentences, pyramid, 2, 0, scorer)
    assert result.fallback_used  # second slot cannot come from the pyramid
    assert len(result.masked) == 2


def test_dispatcher_requires_pyramid():
    sentences = wildfire_sentences()
    config = SelectionConfig(strategy=Strategy.ENTITY_PYRAMID)
    with pytest.raises(ValueError):
        select_sentences(sentences, config)


def test_dispatcher_routes_all_strategies():
    sentences = wildfire_sentences()
    pyramid = build_pyramid(extract_entities(sentences), 3)
    for strategy in Strategy:
        config = SelectionConfig(strategy=strategy)
        result = select_sentences(sentences, config, pyramid)
        assert result.strategy is strategy
        assert len(result.masked) == 1
        assert len(result.copied) == 1


# ---------------------------------------------------------------------------
# invariants across synthetic clusters


def build_inputs(seed: int):
    rng = random.Random(seed)
    cluster = synthetic_cluster(rng, f"sel{seed}")
    sentences = segment_cluster(cluster)
    pyramid = build_pyramid(extract_entities(sentences), len(cluster.documents))
    return cluster, sentences, pyramid


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_entity_pyramid_matches_oracle(seed):
    cluster, sentences, pyramid = build_inputs(seed)
    config = SelectionConfig()
    result = select_sentences(sentences, config, pyramid)
    masked, copied, fallback, scores = entity_pyramid_oracle(
        sentences,
        [e.entity for e in pyramid],
        compute_mask_count(len(sentences), config.mask_ratio),
        compute_copy_count(
            len(sentences),
            compute_mask_count(len(sentences), config.mask_ratio),
            config.copy_ratio,
        ),
        config.variant.value,
    )
    assert list(result.masked) == list(masked)
    assert list(result.copied) == list(copied)
    assert result.fallback_used == fallback
    for key, value in result.scores.items():
        assert value == pytest.approx(scores[key], abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(Strategy)))
def test_selection_invariants(seed, strategy):
    cluster, sentences, pyramid = build_inputs(seed)
    config = SelectionConfig(strategy=strategy)
    result = select_sentences(sentences, config, pyramid)
    masked, copied = list(result.masked), list(result.copied)
    assert masked == sorted(masked)
    assert copied == sorted(copied)
    assert not set(masked) & set(copied)
    keys = {s.key for s in sentences}
    assert set(masked) | set(copied) <= keys
    assert len(masked) == compute_mask_count(len(sentences), config.mask_ratio)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_pyramid_picks_contain_an_entity_unless_fallback(seed):
    cluster, sentences, pyramid = build_inputs(seed)
    result = select_sentences(sentences, SelectionConfig(), pyramid)
    if result.fallback_used or not pyramid:
        return
    by_key = {s.key: s for s in sentences}
    for key in result.masked + result.copied:
        assert any(
            contains_entity_oracle(by_key[key].text, e.entity) for e in pyramid
        )
