"""Entity mention extraction and the document-frequency pyramid.

Two sources of mentions are supported: a lightweight rule-based
extractor (capitalized name runs, years, quantities with units) and
caller-provided annotations.  Mentions sharing a normalized surface form
are grouped into pyramid entries ranked by how many distinct documents
contain them; entities seen in a single document are discarded because
they carry no cross-document signal.  Where a mention is gets decided
here alone, over each sentence's ``words``: ``fold_words``,
``contains_mention``, ``entity_candidates``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .segment import CLOSING_PUNCT, OPENING_PUNCT, Sentence


class EntitySource(Enum):
    RULES = "rules"
    PROVIDED = "provided"


@dataclass(frozen=True)
class EntityMention:
    surface: str
    normalized: str
    doc_index: int
    sent_index: int


@dataclass(frozen=True)
class PyramidEntry:
    """One entity of the pyramid: its normalized form, how many distinct
    documents mention it, and every (doc_index, sent_index) location."""

    entity: str
    doc_frequency: int
    locations: tuple[tuple[int, int], ...]


def fold_words(words: Iterable[str]) -> str:
    """Whitespace tokens joined by single spaces, then case-folded: the
    form in which entity mentions are grouped and matched."""
    return " ".join(words).casefold()


def _is_word_char(ch: str) -> bool:
    """Whether ``ch`` is a word character, as ``\\w`` matches in a str
    pattern."""
    return ch.isalnum() or ch == "_"


def contains_mention(text: str, entity: str) -> bool:
    """Whether ``entity`` occurs in ``text`` at token boundaries: with no
    word character right before or after it, so "us" never matches
    inside "usage".  Every occurrence is tried, as a regex search for
    ``(?<!\\w)entity(?!\\w)`` would."""
    start = text.find(entity)
    while start >= 0:
        end = start + len(entity)
        if (start == 0 or not _is_word_char(text[start - 1])) and (
            end == len(text) or not _is_word_char(text[end])
        ):
            return True
        start = text.find(entity, start + 1)
    return False


def entity_candidates(
    sentences: Sequence[Sentence], pyramid: Sequence[PyramidEntry]
) -> Iterator[tuple[PyramidEntry, list[Sentence]]]:
    """Each pyramid entry, in order, with the sentences (in the order
    given) whose folded words hold its entity at token boundaries.  Each
    sentence is folded once per call, and none for an empty pyramid."""
    if not pyramid:
        return
    folded = [(fold_words(s.words), s) for s in sentences]
    for entry in pyramid:
        entity = entry.entity
        yield entry, [s for text, s in folded if entity in text and contains_mention(text, entity)]


def _mention(surface: str, doc_index: int, sent_index: int) -> EntityMention:
    # The normalized form is the folded surface, the same form as the
    # sentence words it is matched in.
    return EntityMention(
        surface=surface,
        normalized=fold_words(surface.split()),
        doc_index=doc_index,
        sent_index=sent_index,
    )


# Words that are capitalized for grammatical reasons, not because they
# name anything.  A lone capitalized word matching this set is never a
# mention; a name run that starts a sentence sheds a leading match
# ("The United States" -> "United States").
_FUNCTION_WORDS = frozenset(
    """
    a an the this that these those some any each every no
    i you he she it we they me him her us them my your his its our their
    who whom whose what which when where why how
    and but or nor so yet for if as at by in of on to up with
    from into onto over under after before during about against between
    through within without along across behind beyond near
    is are was were be been being am do does did has have had will would
    can could may might must shall should
    not only just even also still yet too very
    however meanwhile moreover nevertheless nonetheless furthermore
    finally then now here there yesterday today tomorrow
    """.split()
)

_TRAILING_PUNCT = ".,;:!?" + CLOSING_PUNCT

_DIGIT = re.compile(r"\d")
# Both patterns start with a character class, not a lookbehind or a
# group, so the regex engine jumps straight to the candidate positions.
# The year's lookbehind, placed after its first digit, looks at the
# character before that digit.
_YEAR_RE = re.compile(r"[12](?<!\d.)\d{3}(?!\d)")
_NUMBER = r"\d(?:\d{0,2}(?:,\d{3})+|\d*(?:\.\d+)?)"
_UNITS = (
    "acres?|hectares?|miles?|kilometers?|km|meters?|feet|ft|"
    "percent|kg|tons?|tonnes?|pounds?|lbs|"
    "people|residents|homes?|houses?|buildings?|structures?|firefighters?|"
    "dollars?|euros?|billion|million|thousand"
)
_QUANTITY_RE = re.compile(rf"{_NUMBER}\s*(?:{_UNITS})\b", re.IGNORECASE)


# The first characters of the tokens that are stripped and tested one
# by one: any outside ASCII, and the punctuation _strip_word removes.
# Any other first character survives stripping and is a capital
# exactly when it is A-Z.  The class is written negated, as every
# character but the ASCII ones stripping keeps: a class spanning
# U+0080-U+10FFFF takes milliseconds to compile at import.
_KEPT_ASCII = "".join(
    ch for ch in map(chr, range(128)) if ch not in _TRAILING_PUNCT + OPENING_PUNCT
)
_TESTED_FIRSTS = re.compile(f"[^{re.escape(_KEPT_ASCII)}]")
_CAPITALS = re.compile("[A-Z]+")
_first_char = itemgetter(0)


def _strip_word(raw: str) -> str:
    return raw.strip(_TRAILING_PUNCT).lstrip(OPENING_PUNCT)


def _is_capitalized(word: str) -> bool:
    return bool(word) and word[0].isupper() and word[0].isalpha()


def _word_runs(words: Sequence[str]) -> list[tuple[int, list[str]]]:
    """(token_position, words) for each maximal run of capitalized
    words among a sentence's tokens, each stripped of surrounding
    punctuation.  The runs are read off a string of the tokens' first
    characters, in which each tested token is written "A" or "a"."""
    firsts = "".join(map(_first_char, words))
    if _TESTED_FIRSTS.search(firsts):
        chars = list(firsts)
        for match in _TESTED_FIRSTS.finditer(firsts):
            pos = match.start()
            chars[pos] = "A" if _is_capitalized(_strip_word(words[pos])) else "a"
        firsts = "".join(chars)
    runs = []
    for match in _CAPITALS.finditer(firsts):
        start, end = match.span()
        runs.append((start, [_strip_word(raw) for raw in words[start:end]]))
    return runs


def _runs_to_mentions(sentence: Sentence) -> Iterable[EntityMention]:
    for start_pos, words in _word_runs(sentence.words):
        if start_pos == 0:
            while words and words[0].casefold() in _FUNCTION_WORDS:
                words = words[1:]
        if not words:
            continue
        if len(words) == 1 and words[0].casefold() in _FUNCTION_WORDS:
            continue
        yield _mention(" ".join(words), sentence.doc_index, sentence.sent_index)


def extract_entities_rules(sentences: Sequence[Sentence]) -> list[EntityMention]:
    """Extract mentions from segmented sentences with surface rules only.

    Covers three shapes: maximal runs of capitalized words (sentence-
    initial function words are not treated as names), four-digit years,
    and number-plus-unit quantities such as "1,600 acres".
    """
    mentions: list[EntityMention] = []
    for sentence in sentences:
        mentions.extend(_runs_to_mentions(sentence))
        # Years and quantities both start with a digit.
        if not _DIGIT.search(sentence.text):
            continue
        for match in _YEAR_RE.finditer(sentence.text):
            mentions.append(_mention(match.group(), sentence.doc_index, sentence.sent_index))
        for match in _QUANTITY_RE.finditer(sentence.text):
            mentions.append(_mention(match.group(), sentence.doc_index, sentence.sent_index))
    return mentions


def extract_entities_provided(
    sentences: Sequence[Sentence],
    annotations: Sequence,
    events: list[dict] | None = None,
) -> list[EntityMention]:
    """Locate caller-provided (surface, doc) annotations in the cluster.

    Each annotation is pinned to the first sentence of its document whose
    folded words hold the surface's folded form at token boundaries, by
    ``contains_mention``; no later sentence is folded for it.
    Annotations that cannot be located are dropped so one bad record
    does not sink the cluster; each drop appends an ``entity_dropped``
    event to ``events`` when a list is passed.
    """
    cluster_id = sentences[0].cluster_id if sentences else ""
    mentions: list[EntityMention] = []
    for ann in annotations:
        needle = fold_words(ann.surface.split())
        in_doc = (s for s in sentences if s.doc_index == ann.doc_index)
        hit = next((s for s in in_doc if contains_mention(fold_words(s.words), needle)), None)
        if hit is None:
            if events is not None:
                events.append(
                    {
                        "event": "entity_dropped",
                        "cluster_id": cluster_id,
                        "surface": ann.surface,
                        "doc": ann.doc_index,
                    }
                )
            continue
        mentions.append(EntityMention(ann.surface, needle, hit.doc_index, hit.sent_index))
    return mentions


def extract_entities(
    sentences: Sequence[Sentence],
    source: EntitySource = EntitySource.RULES,
    annotations: Sequence | None = None,
    events: list[dict] | None = None,
) -> list[EntityMention]:
    """Dispatch on the configured mention source.

    PROVIDED falls back to the rule extractor when a cluster carries no
    annotations at all, so mixed corpora still mask every cluster.
    ``events`` collects the provided extractor's ``entity_dropped``
    events.
    """
    if source is EntitySource.PROVIDED and annotations:
        return extract_entities_provided(sentences, annotations, events)
    return extract_entities_rules(sentences)


def build_pyramid(mentions: Iterable[EntityMention], num_docs: int) -> list[PyramidEntry]:
    """Group mentions into pyramid entries ordered by document frequency.

    Frequency counts distinct documents, not raw mentions.  Entities
    confined to one document are removed.  Ties break deterministically:
    earliest first location, then normalized form.
    """
    grouped: dict[str, list[EntityMention]] = {}
    for mention in mentions:
        if not 0 <= mention.doc_index < num_docs:
            raise ValueError(
                f"mention {mention.surface!r} references document "
                f"{mention.doc_index} of {num_docs}"
            )
        grouped.setdefault(mention.normalized, []).append(mention)

    entries: list[PyramidEntry] = []
    for normalized, group in grouped.items():
        doc_frequency = len({m.doc_index for m in group})
        if doc_frequency < 2:
            continue
        locations = tuple(sorted({(m.doc_index, m.sent_index) for m in group}))
        entries.append(
            PyramidEntry(entity=normalized, doc_frequency=doc_frequency, locations=locations)
        )
    entries.sort(key=lambda e: (-e.doc_frequency, e.locations[0], e.entity))
    return entries
