"""Entity mention extraction and pyramid construction."""

from __future__ import annotations

import io
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pyramid_masker import (
    DocumentCluster,
    EntityAnnotation,
    EntitySource,
    PyramidEntry,
    build_pyramid,
    extract_entities,
    load_clusters,
    segment_cluster,
)
from pyramid_masker import entities
from pyramid_masker.entities import (
    EntityMention,
    _QUANTITY_RE,
    _TESTED_FIRSTS,
    _YEAR_RE,
    _word_runs,
    contains_mention,
    entity_candidates,
    extract_entities_provided,
    extract_entities_rules,
    fold_words,
)
from pyramid_masker.segment import Sentence, split_sentences

from oracles import (
    ORACLE_LEADING_PUNCT,
    ORACLE_TRAILING_PUNCT,
    QUANTITY_RE_ORACLE,
    TESTED_FIRSTS_ORACLE,
    YEAR_RE_ORACLE,
    contains_entity_oracle,
    provided_locator_oracle,
    rule_pyramid_oracle,
    word_runs_oracle,
)
from synth import punctuated_cluster, synthetic_cluster
from test_golden import _corpus, _punctuated_corpus


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


# Digits ASCII and not, other numeric characters, separators, line
# breaks and unit words in mixed case, glued together at random.
NUMERIC_TEXT = st.lists(
    st.sampled_from(
        ["0", "1", "2", "9", "12", "2019", "1,600", "3.5", "²", "٣", "½", ",", ".",
         " ", "\n", "\t", "a", "Acres", "km", "MILLION", "homes", "ft", "kmx", "percent"]
    ),
    max_size=24,
).map("".join)


def _found(pattern, text):
    return [(m.span(), m.group(), m.groups()) for m in pattern.finditer(text)]


@given(NUMERIC_TEXT)
@example("x1988 21988 1988x 1988")
@example("12,345,67 people 1,2345 homes 3.5.6 km ٣1000 acres")
def test_year_and_quantity_patterns_match_their_first_form(text):
    assert _found(_YEAR_RE, text) == _found(YEAR_RE_ORACLE, text)
    assert _found(_QUANTITY_RE, text) == _found(QUANTITY_RE_ORACLE, text)


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


def test_provided_annotation_is_located_at_token_boundaries():
    """ "us" inside "usage" is no mention: the annotation is pinned to the
    later sentence that holds "us" as a word, or dropped where none does."""
    cluster = DocumentCluster(
        "c",
        ("Bus usage rose. The US said so.", "Usage fell."),
        entity_annotations=(EntityAnnotation("us", 0), EntityAnnotation("US", 1)),
    )
    sentences = segment_cluster(cluster)
    events: list[dict] = []
    mentions = extract_entities_provided(sentences, cluster.entity_annotations, events)
    assert [(m.normalized, m.doc_index, m.sent_index) for m in mentions] == [("us", 0, 1)]
    assert events == [{"event": "entity_dropped", "cluster_id": "c", "surface": "US", "doc": 1}]


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


def test_fold_words():
    assert fold_words("  Grand   Junction ".split()) == "grand junction"
    assert fold_words(["COLORADO"]) == "colorado"


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


# ---------------------------------------------------------------------------
# the candidate scan against the oracle filter

# Mentions, near misses that hold them only as substrings, case and
# whitespace variants, and punctuation next to a word.
_CANDIDATE_PIECES = [
    "Us", "us", "usage", "bus", "U.S.", "u.s.", "Straße", "STRASSE", "zed", "Zed,", "amazed",
    "İzmir", "_us", " ", " ", "  ", "\t", "\n", "\xa0",
]


@given(
    st.lists(st.lists(st.sampled_from(_CANDIDATE_PIECES), max_size=8).map("".join), max_size=6),
    st.lists(
        st.lists(st.sampled_from(_CANDIDATE_PIECES), min_size=1, max_size=3).map(
            lambda pieces: fold_words("".join(pieces).split())
        ),
        max_size=5,
    ),
)
def test_entity_candidates_equal_the_oracle_filter(texts, entity_forms):
    sentences = [Sentence("c", 0, i, text) for i, text in enumerate(texts)]
    pyramid = [PyramidEntry(entity, 2, ()) for entity in entity_forms]
    yielded = list(entity_candidates(sentences, pyramid))
    assert [entry for entry, _ in yielded] == pyramid
    for entry, candidates in yielded:
        assert candidates == [s for s in sentences if contains_entity_oracle(s.text, entry.entity)]


def test_entity_candidates_fold_each_sentence_once(monkeypatch):
    folded = []
    fold = entities.fold_words

    def counted(words):
        folded.append(words)
        return fold(words)

    monkeypatch.setattr(entities, "fold_words", counted)
    sentences = split_sentences("Colorado burned. Crews fled Colorado. Rain came.", 0)
    pyramid = [PyramidEntry(entity, 2, ()) for entity in ("colorado", "crews", "rain came")]
    yielded = list(entity_candidates(sentences, pyramid))
    keys = [[s.key for s in candidates] for _, candidates in yielded]
    assert keys == [[(0, 0), (0, 1)], [(0, 1)], [(0, 2)]]
    assert folded == [s.words for s in sentences]


def test_provided_locator_folds_words_up_to_each_hit(monkeypatch):
    """Each annotation folds its document's sentences, as ``s.words``, up
    to the one it is pinned to; a document no annotation names is never
    folded."""
    folded = []
    fold = entities.fold_words

    def counted(words):
        folded.append(words)
        return fold(words)

    monkeypatch.setattr(entities, "fold_words", counted)
    cluster = DocumentCluster(
        "c",
        (
            "Alpha came. Beta went. Gamma stayed.",
            "Beta returned. Alpha left. Delta rose.",
            "Nothing here.",
        ),
        entity_annotations=tuple(
            EntityAnnotation(surface, doc)
            for surface, doc in (("Alpha", 0), ("beta", 1), ("DELTA", 1), ("Omega", 0))
        ),
    )
    sentences = segment_cluster(cluster)
    mentions = extract_entities_provided(sentences, cluster.entity_annotations, [])
    assert [(m.normalized, m.doc_index, m.sent_index) for m in mentions] == [
        ("alpha", 0, 0), ("beta", 1, 0), ("delta", 1, 2),
    ]
    calls = []
    for words in folded:
        owners = [s.key for s in sentences if words is s.words]
        calls.append(owners[0] if owners else words)
    # Each surface is folded once, then its document up to its hit.
    assert calls == [
        ["Alpha"], (0, 0),
        ["beta"], (1, 0),
        ["DELTA"], (1, 0), (1, 1), (1, 2),
        ["Omega"], (0, 0), (0, 1), (0, 2),
    ]


def test_empty_pyramid_folds_nothing(monkeypatch):
    def refuse(words):
        raise AssertionError("fold_words called for an empty pyramid")

    monkeypatch.setattr(entities, "fold_words", refuse)
    assert list(entity_candidates(split_sentences("Colorado burned.", 0), [])) == []


# ---------------------------------------------------------------------------
# the provided locator against its oracle

_NON_BLANK = st.lists(st.sampled_from(_CANDIDATE_PIECES), min_size=1, max_size=6).map(
    "".join
).filter(str.strip)


@st.composite
def _annotated_docs(draw):
    docs = draw(st.lists(st.lists(_NON_BLANK, min_size=1, max_size=4), min_size=1, max_size=3))
    annotations = draw(
        st.lists(st.tuples(_NON_BLANK, st.integers(0, len(docs) - 1)), max_size=5)
    )
    return docs, annotations


@given(_annotated_docs())
# A surface held by two sentences of its document.
@example(([["the US said", "Us again"], ["nothing"]], [("us", 0)]))
# A surface held only by another document.
@example(([["nothing here"], ["zed came"]], [("Zed", 0), ("zed", 1)]))
# A substring-only hit: "us" inside "usage" is no mention, so ("us", 0)
# sits in sentence 1 and ("US", 1) is dropped.
@example(([["bus usage", "us"], ["usage"]], [("us", 0), ("US", 1)]))
def test_provided_locator_equals_the_oracle(annotated):
    docs, annotations = annotated
    sentences = [
        Sentence("c", d, j, text) for d, texts in enumerate(docs) for j, text in enumerate(texts)
    ]
    events: list[dict] = []
    mentions = extract_entities_provided(
        sentences, [EntityAnnotation(surface, doc) for surface, doc in annotations], events
    )
    located, dropped = provided_locator_oracle(docs, annotations)
    assert [(m.normalized, m.doc_index, m.sent_index) for m in mentions] == located
    assert events == [
        {"event": "entity_dropped", "cluster_id": "c", "surface": surface, "doc": doc}
        for surface, doc in dropped
    ]


# ---------------------------------------------------------------------------
# the rule pyramid against its oracle


def rule_pyramid(sentences, num_docs):
    """The program's rule pyramid, in the oracle's shape."""
    pyramid = build_pyramid(extract_entities(sentences), num_docs)
    return [(e.entity, e.doc_frequency, e.locations) for e in pyramid]


@pytest.mark.parametrize("corpus", [_corpus, _punctuated_corpus], ids=["golden", "punctuated"])
def test_rule_pyramid_equals_the_oracle_on_the_golden_corpora(corpus):
    for cluster in load_clusters(io.BytesIO(corpus())):
        sentences = segment_cluster(cluster)
        expected = rule_pyramid_oracle(sentences)
        assert rule_pyramid(sentences, len(cluster.documents)) == expected, cluster.cluster_id


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([synthetic_cluster, punctuated_cluster]))
def test_rule_pyramid_equals_the_oracle(seed, make_cluster):
    cluster = make_cluster(random.Random(seed), "c")
    sentences = segment_cluster(cluster)
    assert rule_pyramid(sentences, len(cluster.documents)) == rule_pyramid_oracle(sentences)
