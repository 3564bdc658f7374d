"""Entity mention extraction and pyramid construction."""

from __future__ import annotations

import random
import re
import sys

from hypothesis import example, given, strategies as st

from pyramid_masker import (
    DocumentCluster,
    EntityAnnotation,
    EntitySource,
    build_pyramid,
    extract_entities,
    segment_cluster,
)
from pyramid_masker.entities import (
    EntityMention,
    _TESTED_FIRSTS,
    _word_runs,
    contains_mention,
    extract_entities_provided,
    extract_entities_rules,
    normalize_surface,
)
from pyramid_masker.segment import split_sentences

from oracles import (
    ORACLE_LEADING_PUNCT,
    ORACLE_TRAILING_PUNCT,
    TESTED_FIRSTS_ORACLE,
    word_runs_oracle,
)


def mentions_of(document: str, doc_index: int = 0):
    return extract_entities_rules(split_sentences(document, doc_index))


def normals(document: str) -> list[str]:
    return [m.normalized for m in mentions_of(document)]


def test_repeated_capitalized_token():
    mentions = mentions_of("Colorado burned. Colorado suffered.")
    assert [(m.normalized, m.doc_index, m.sent_index) for m in mentions] == [
        ("colorado", 0, 0),
        ("colorado", 0, 1),
    ]


def test_multiword_run_is_one_mention():
    assert normals("crews reached Grand Junction by night.") == ["grand junction"]
    # a capitalized sentence opener that is not a function word still counts
    assert normals("Crews reached Grand Junction by night.") == ["crews", "grand junction"]


def test_sentence_initial_function_word_is_not_a_name():
    assert normals("The fire spread fast.") == []
    assert normals("He left early.") == []
    assert normals("However the wind shifted.") == []


def test_sentence_initial_article_is_shed_from_runs():
    assert normals("The United States announced aid.") == ["united states"]


def test_sentence_initial_real_name_is_kept():
    assert normals("Colorado declared an emergency.") == ["colorado"]


def test_years_and_quantities():
    assert "1988" in normals("The 1988 fires were worse.")
    assert "1,600 acres" in normals("It burned 1,600 acres on Monday.")
    assert "3.5 million" in normals("Damages reached 3.5 million overall.")


def test_room_numbers_are_not_years():
    assert "12345" not in normals("See case 12345 for details.")


def test_provided_annotations_are_located():
    cluster = DocumentCluster(
        "c",
        ("The road to San Juan is closed. Rain is coming.", "Elsewhere all is calm."),
        entity_annotations=(EntityAnnotation("San Juan", 0),),
    )
    sentences = segment_cluster(cluster)
    mentions = extract_entities_provided(sentences, cluster.entity_annotations)
    assert [(m.normalized, m.doc_index, m.sent_index) for m in mentions] == [("san juan", 0, 0)]


def test_provided_annotation_not_found_is_dropped():
    cluster = DocumentCluster(
        "c",
        ("Nothing relevant here.",),
        entity_annotations=(EntityAnnotation("Atlantis", 0),),
    )
    sentences = segment_cluster(cluster)
    events: list[dict] = []
    mentions = extract_entities_provided(sentences, cluster.entity_annotations, events)
    assert mentions == []
    assert events == [
        {"event": "entity_dropped", "cluster_id": "c", "surface": "Atlantis", "doc": 0}
    ]


def test_provided_mode_falls_back_to_rules_without_annotations():
    cluster = DocumentCluster("c", ("Colorado burned again.",))
    sentences = segment_cluster(cluster)
    mentions = extract_entities(sentences, EntitySource.PROVIDED, cluster.entity_annotations)
    assert [m.normalized for m in mentions] == ["colorado"]


def test_three_docs_three_doc_indices():
    cluster = DocumentCluster(
        "c",
        (
            "Fires spread in Colorado today.",
            "Officials in Colorado ordered evacuations.",
            "Rain finally reached Colorado last night.",
        ),
    )
    mentions = extract_entities(segment_cluster(cluster))
    assert {m.doc_index for m in mentions if m.normalized == "colorado"} == {0, 1, 2}


def mention(normalized: str, doc: int, sent: int = 0) -> EntityMention:
    return EntityMention(normalized.title(), normalized, doc, sent)


def test_singletons_are_removed():
    pyramid = build_pyramid(
        [mention("x", 0), mention("x", 1), mention("x", 2), mention("y", 0)], 3
    )
    assert [(e.entity, e.doc_frequency) for e in pyramid] == [("x", 3)]


def test_no_mentions_empty_pyramid():
    assert build_pyramid([], 2) == []


def test_frequency_descending_order():
    pyramid = build_pyramid(
        [mention("a", 0), mention("a", 1), mention("b", 0), mention("b", 1), mention("b", 2)],
        3,
    )
    assert [(e.entity, e.doc_frequency) for e in pyramid] == [("b", 3), ("a", 2)]


def test_frequency_counts_distinct_docs_not_mentions():
    pyramid = build_pyramid(
        [mention("a", 0, 0), mention("a", 0, 1), mention("a", 0, 2), mention("a", 1)],
        2,
    )
    assert pyramid[0].doc_frequency == 2
    assert pyramid[0].locations == ((0, 0), (0, 1), (0, 2), (1, 0))


def test_tie_break_first_appearance_then_name():
    mentions = [
        mention("beta", 0, 1), mention("beta", 1, 0),
        mention("alpha", 0, 0), mention("alpha", 1, 1),
    ]
    pyramid = build_pyramid(mentions, 2)
    assert [e.entity for e in pyramid] == ["alpha", "beta"]
    same_spot = [
        mention("zed", 0, 0), mention("zed", 1, 0),
        mention("ant", 0, 0), mention("ant", 1, 0),
    ]
    assert [e.entity for e in build_pyramid(same_spot, 2)] == ["ant", "zed"]


def test_out_of_range_doc_index_rejected():
    try:
        build_pyramid([mention("a", 5)], 2)
    except ValueError as exc:
        assert "5" in str(exc)
    else:
        raise AssertionError("expected ValueError")


@given(st.integers(0, 2**32 - 1))
def test_pyramid_invariant_to_mention_order(seed):
    rng = random.Random(seed)
    pool = [
        mention(name, rng.randrange(4), rng.randrange(5))
        for name in ("ant", "bee", "cat", "dog")
        for _ in range(rng.randint(1, 4))
    ]
    shuffled = pool[:]
    rng.shuffle(shuffled)
    assert build_pyramid(pool, 4) == build_pyramid(shuffled, 4)


@given(st.integers(0, 2**32 - 1))
def test_pyramid_frequencies_match_brute_force(seed):
    rng = random.Random(seed)
    pool = [
        mention(name, rng.randrange(4), rng.randrange(5))
        for name in ("ant", "bee", "cat")
        for _ in range(rng.randint(1, 5))
    ]
    pyramid = build_pyramid(pool, 4)
    for entry in pyramid:
        docs = {m.doc_index for m in pool if m.normalized == entry.entity}
        assert entry.doc_frequency == len(docs)
        assert entry.doc_frequency >= 2
    by_freq = [e.doc_frequency for e in pyramid]
    assert by_freq == sorted(by_freq, reverse=True)


def test_normalize_surface():
    assert normalize_surface("  Grand   Junction ") == "grand junction"
    assert normalize_surface("COLORADO") == "colorado"


# ---------------------------------------------------------------------------
# the capitalized-run scan and the mention matcher against their references

_RUN_PIECES = [
    "Émile", "émile", "Zoë", "İzmir", "ß", "A", "Ab", "ab", "B2", "2b", "_x", "X_",
    " ", " ", "  ", "\t", "\n", "\x1c", "-", "@", "#", "*",
    *ORACLE_TRAILING_PUNCT, *ORACLE_LEADING_PUNCT,
]
_ASCII_RUN_PIECES = [p for p in _RUN_PIECES if p.isascii()]


@given(st.lists(st.sampled_from(_ASCII_RUN_PIECES), max_size=25))
@example(["(", "'", "Ab", " ", ".", "(", "Ab", " ", "\"", "'", "ab", "\x1c", "A", ")", ","])
def test_word_runs_match_the_word_by_word_oracle_on_ascii(pieces):
    text = "".join(pieces)
    assert _word_runs(text.split()) == word_runs_oracle(text)


@given(st.lists(st.sampled_from(_RUN_PIECES), max_size=25))
@example(["“", "Émile", " ", "Zoë", "”", ",", "\t", "İzmir", "\n", "ab"])
@example(["“Émile Zola” said"])
@example(["«Zola» spoke"])
@example(["”"])
@example(["élan Vital"])
@example(["ǅ Xy"])
def test_word_runs_match_the_word_by_word_oracle(pieces):
    text = "".join(pieces)
    assert _word_runs(text.split()) == word_runs_oracle(text)


def test_tested_firsts_match_the_first_class_on_every_code_point():
    """Every code point occurs once in ``every``, so the two deletions
    leave the same text exactly when the patterns match the same set."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _TESTED_FIRSTS.sub("", every) == TESTED_FIRSTS_ORACLE.sub("", every)


def _boundary_regex(hay: str, entity: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(entity)}(?!\w)", hay) is not None


# Word characters of several kinds (letters, digits, numerals, "_"),
# combining marks, which are not word characters, and separators.
_MATCH_ALPHABET = "ab_1²½٣éßΣ\u0301\u0308 ,.-'"


@given(st.text(_MATCH_ALPHABET, max_size=30), st.data())
@example("a\u0301 ab", None)
def test_contains_mention_equals_the_boundary_regex(hay, data):
    if data is None:  # the @example: "a" followed by a combining mark
        entity = "a"
    elif hay and data.draw(st.booleans()):
        start = data.draw(st.integers(0, len(hay) - 1))
        entity = hay[start : data.draw(st.integers(start + 1, len(hay)))]
    else:
        entity = data.draw(st.text(_MATCH_ALPHABET, min_size=1, max_size=4))
    assert contains_mention(hay, entity) == _boundary_regex(hay, entity)
