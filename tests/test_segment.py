"""Sentence splitting and token normalization."""

from __future__ import annotations

import random
import string
import sys

from hypothesis import example, given, settings, strategies as st

from pyramid_masker import (
    DocumentCluster,
    NormalizationConfig,
    Stemming,
    normalize_tokens,
    segment_cluster,
    split_sentences,
)
from pyramid_masker.segment import (
    CLOSING_PUNCT,
    OPENING_PUNCT,
    Sentence,
    default_abbreviations,
    load_abbreviations,
    require_document_order,
)

from oracles import split_oracle
from synth import long_cluster, punctuated_cluster, synthetic_cluster

RAW = NormalizationConfig(lowercase=False, strip_punctuation=False, stemming=Stemming.NONE)


def texts(document: str) -> list[str]:
    return [s.text for s in split_sentences(document, 0)]


def test_two_terminated_sentences():
    assert texts("A cat. A dog.") == ["A cat.", "A dog."]


def test_no_terminator_yields_one_sentence():
    assert texts("No terminator here") == ["No terminator here"]


def test_abbreviation_not_split():
    assert texts("Dr. Smith arrived. He left.") == ["Dr. Smith arrived.", "He left."]


def test_more_abbreviations():
    assert texts("The U.S. team won. Mr. Jones of Acme Inc. cheered.") == [
        "The U.S. team won.",
        "Mr. Jones of Acme Inc. cheered.",
    ]


def test_decimal_number_not_split():
    assert texts("It grew to 3.5 acres. Then it stopped.") == [
        "It grew to 3.5 acres.",
        "Then it stopped.",
    ]


# Characters around a sentence-final period: the one before it, the
# whitespace after it, and the first character past that whitespace.
# ``str.isdigit`` accepts "²" and "٣" but not "½"; ``str.isspace``
# accepts "\xa0", "\x1c", "\u2028" and "\u3000".
@given(
    st.sampled_from(["7", "²", "٣", "x"]),
    st.text(alphabet=" \t\n\xa0\x1c\u2028\u3000", min_size=1, max_size=4),
    st.sampled_from(["8", "²", "٣", "½", "x"]),
)
@example("7", " ", "8")
@example("7", "\n\t", "8")
@example("7", "\xa0", "8")
@example("7", "\x1c", "8")
@example("7", " ", "²")
@example("x", " ", "8")
def test_period_splits_unless_between_digits(before, gap, after):
    document = f"It rose {before}.{gap}{after} more came."
    glued = before.isdigit() and after.isdigit()
    assert len(texts(document)) == (1 if glued else 2)


def test_question_exclamation_and_ellipsis():
    assert texts("Really? Yes! Well... fine.") == ["Really?", "Yes!", "Well...", "fine."]


def test_closing_quote_stays_with_sentence():
    assert texts('He said "stop." She left.') == ['He said "stop."', "She left."]


def test_indices_consecutive_and_doc_index_carried():
    sentences = split_sentences("One. Two. Three.", doc_index=4)
    assert [s.sent_index for s in sentences] == [0, 1, 2]
    assert {s.doc_index for s in sentences} == {4}


def test_normalize_examples():
    assert normalize_tokens("Running dogs!") == ["run", "dog"]
    assert normalize_tokens("") == []
    assert normalize_tokens("abc", RAW) == ["abc"]


def test_normalize_stage_toggles():
    text = "The U.S. Crews' winds, RAGED!"
    assert normalize_tokens(text, RAW) == ["The", "U.S.", "Crews'", "winds,", "RAGED!"]
    lower_only = NormalizationConfig(lowercase=True, strip_punctuation=False, stemming=Stemming.NONE)
    assert normalize_tokens(text, lower_only) == ["the", "u.s.", "crews'", "winds,", "raged!"]
    no_stem = NormalizationConfig(stemming=Stemming.NONE)
    assert normalize_tokens(text, no_stem) == ["the", "u", "s", "crews", "winds", "raged"]
    assert normalize_tokens(text) == ["the", "u", "s", "crew", "wind", "rage"]


def test_punctuation_becomes_token_boundary():
    assert normalize_tokens("state-of-the-art", NormalizationConfig(stemming=Stemming.NONE)) == [
        "state",
        "of",
        "the",
        "art",
    ]


def test_unicode_punctuation_stripped():
    config = NormalizationConfig(stemming=Stemming.NONE)
    assert normalize_tokens("“quoted” – dash", config) == ["quoted", "dash"]


def test_segment_cluster_orders_documents():
    cluster = DocumentCluster("c", ("One. Two.", "Three."))
    sentences = segment_cluster(cluster)
    assert [s.key for s in sentences] == [(0, 0), (0, 1), (1, 0)]
    assert {s.cluster_id for s in sentences} == {"c"}
    # roundtrip_check counts a cluster's documents from its last sentence
    rng = random.Random(16)
    for i in range(20):
        for cluster in (
            synthetic_cluster(rng, f"s{i}"),
            punctuated_cluster(rng, f"p{i}"),
            long_cluster(rng, f"l{i}", num_docs=rng.randint(1, 4), tokens_per_doc=60),
        ):
            sentences = segment_cluster(cluster)
            require_document_order(sentences)
            doc_indices = list(dict.fromkeys(s.doc_index for s in sentences))
            assert doc_indices == list(range(len(cluster.documents))), cluster.cluster_id


def test_abbreviation_override(tmp_path):
    path = tmp_path / "abbr.txt"
    path.write_text("# custom\nzzz.\n", encoding="utf-8")
    custom = load_abbreviations(path)
    assert "zzz." in custom
    # under the default list "zzz." terminates a sentence
    assert texts("Ask zzz. Smith today. Fine.") == ["Ask zzz.", "Smith today.", "Fine."]
    with_custom = [
        s.text for s in split_sentences("Ask zzz. Smith today. Fine.", 0, abbreviations=custom)
    ]
    assert with_custom == ["Ask zzz. Smith today.", "Fine."]


def test_default_abbreviations_resource_loads():
    abbrs = default_abbreviations()
    assert "dr." in abbrs and "u.s." in abbrs and "e.g." in abbrs
    assert all(entry == entry.lower() for entry in abbrs)


@st.composite
def documents(draw):
    words = st.sampled_from(
        ["fire", "crews", "wind", "Colorado", "ridge", "3.5", "Dr.", "homes", "grew"]
    )
    sentence = st.lists(words, min_size=1, max_size=6).map(" ".join)
    parts = draw(st.lists(sentence, min_size=1, max_size=5))
    terminators = draw(
        st.lists(st.sampled_from([".", "!", "?", "..."]), min_size=len(parts), max_size=len(parts))
    )
    return " ".join(p + t for p, t in zip(parts, terminators))


# The tail after the last boundary: none, whitespace only, an unterminated
# sentence, and a final abbreviation that is not a boundary.
@given(documents())
@example("One. Two.")
@example("One. Two.  \n")
@example("One. two")
@example("We met in the U.S.")
def test_split_is_lossless_up_to_whitespace(document):
    sentences = split_sentences(document, 0)
    rebuilt = " ".join(s.text for s in sentences)
    assert " ".join(rebuilt.split()) == " ".join(document.split())


@given(documents())
def test_split_deterministic(document):
    first = [s.text for s in split_sentences(document, 0)]
    second = [s.text for s in split_sentences(document, 0)]
    assert first == second


@given(st.text(max_size=80))
@example(".\x1f0")
@example("a.\nb")
@example("One. Two.")
@example("One. Two.  \n")
@example("One. two")
@example("We met in the U.S.")
def test_split_never_drops_content(document):
    # The splitter treats every str.isspace() character as whitespace,
    # so only those may go missing; every other character must survive.
    sentences = split_sentences(document, 0)
    rebuilt = "".join(s.text for s in sentences)
    assert "".join(rebuilt.split()) == "".join(document.split())


# Every ``str.isspace`` code point, which the splitter takes as whitespace.
WHITESPACE = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())
# Single characters the split rule decides on: whitespace, terminators,
# quotes and brackets, ASCII digits, "²" (``str.isdigit`` but not ``\d``)
# and one plain letter.
_SPLIT_CHARS = WHITESPACE + ".?!" + OPENING_PUNCT + CLOSING_PUNCT + string.digits + "²a"
# Stems of packaged abbreviations, drawn in mixed case.
_STEMS = ["Dr", "U.S", "e.g", "No"]


@st.composite
def _mixed_case_stem(draw):
    stem = draw(st.sampled_from(_STEMS))
    upper = draw(st.lists(st.booleans(), min_size=len(stem), max_size=len(stem)))
    return "".join(c.upper() if up else c.lower() for c, up in zip(stem, upper))


@st.composite
def _split_documents(draw):
    """Word-like tokens, each of opening marks, a stem, digits or a
    letter, terminators and closing marks, with whitespace runs, some
    empty, between them."""
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        parts.append(draw(st.text(OPENING_PUNCT, max_size=2)))
        parts.append(draw(st.one_of(_mixed_case_stem(), st.text(string.digits + "²a", max_size=2))))
        parts.append(draw(st.text(".?!", max_size=3)))
        parts.append(draw(st.text(CLOSING_PUNCT, max_size=2)))
        parts.append(draw(st.text(WHITESPACE, max_size=2)))
    return "".join(parts)


@settings(max_examples=500)
@given(
    st.one_of(
        _split_documents(),
        st.lists(st.one_of(st.sampled_from(_SPLIT_CHARS), _mixed_case_stem()), max_size=40).map(
            "".join
        ),
    )
)
@example("((((Dr. Smith left. He came.")
@example("It cost 7.\u3000² more. Fine.")
@example("It rose ².\u20058 more. Fine.")
@example("x.\". Next")
@example("u.S.) then. dR.\u2028No. e.G.")
@example("Why?!\u201d\x1cYes...\x85")
def test_split_matches_oracle(document):
    assert len(WHITESPACE) == 29
    abbreviations = default_abbreviations()
    assert [s.text for s in split_sentences(document, 0)] == split_oracle(document, abbreviations)


@given(st.text(max_size=60))
def test_normalize_identity_config_is_whitespace_split(text):
    assert normalize_tokens(text, RAW) == text.split()


@given(st.text(max_size=60))
def test_normalize_without_stemming_is_idempotent(text):
    config = NormalizationConfig(stemming=Stemming.NONE)
    once = normalize_tokens(text, config)
    again = normalize_tokens(" ".join(once), config)
    assert once == again


# Whitespace of several kinds: tab, newline, NBSP, a separator control,
# the line separator and the ideographic space, each split on by str.split.
_WORD_ALPHABET = "aB É\t\n\xa0\x1c\u2028\u3000.\u0301"


@given(st.text(_WORD_ALPHABET, max_size=30))
@example("a\u3000b\u2028C\xa0\x1cd\tÉ")
def test_sentence_words_are_the_one_whitespace_split(text):
    sentence = Sentence("c", 0, 0, text)
    assert sentence.words == tuple(text.split())
