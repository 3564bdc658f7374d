"""Sentence segmentation and token normalization.

Splitting is rule-based: a sentence ends at a run of ``.?!`` (plus any
closing quotes/brackets) followed by whitespace, unless the period belongs
to a known abbreviation or a decimal number.  The abbreviation list ships
as a package resource so segmentation is reproducible; see
``load_abbreviations`` to override it.

Normalization is what the ROUGE scorer counts n-grams of: lowercase,
punctuation replaced by spaces, whitespace split, Porter stemming.  Each
stage is independently switchable via ``NormalizationConfig``.  The
scorer normalizes the text of the sentences it scores, and ``entities``
folds the words it finds mentions in; segmentation only splits.
"""

from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .porter import stem


class Stemming(Enum):
    NONE = "none"
    PORTER = "porter"


@dataclass(frozen=True)
class NormalizationConfig:
    lowercase: bool = True
    strip_punctuation: bool = True
    stemming: Stemming = Stemming.PORTER


DEFAULT_NORMALIZATION = NormalizationConfig()


@dataclass(frozen=True)
class Sentence:
    """One sentence of one document, with its words.

    ``key``, ``(doc_index, sent_index)``, identifies the sentence within
    a cluster.  ``words``, the whitespace tokens of ``text``, are what
    name runs, truncation and assembly read.  Both are stored at
    construction, so ``text`` is split once.
    """

    cluster_id: str
    doc_index: int
    sent_index: int
    text: str
    key: tuple[int, int] = field(init=False, repr=False, compare=False)
    words: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.doc_index, self.sent_index))
        object.__setattr__(self, "words", tuple(self.text.split()))


def require_document_order(sentences: Sequence[Sentence]) -> None:
    """Raise ``ValueError`` unless each key is greater than the one before it."""
    for before, after in zip(sentences, sentences[1:]):
        if after.key <= before.key:
            raise ValueError(f"sentences not in document order: {after.key} after {before.key}")


# Punctuation (and symbol-ish ASCII leftovers) become spaces so that
# "state-of-the-art" and "U.S.-based" split into words the same way the
# common ROUGE tooling splits them.
_ASCII_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


@lru_cache(maxsize=4096)
def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punctuation(text: str) -> str:
    text = text.translate(_ASCII_PUNCT_TABLE)
    if text.isascii():
        return text
    return "".join(" " if _is_punct_char(ch) else ch for ch in text)


def normalize_tokens(text: str, config: NormalizationConfig = DEFAULT_NORMALIZATION) -> list[str]:
    """Turn raw text into the normalized token list used for scoring."""
    if config.lowercase:
        text = text.lower()
    if config.strip_punctuation:
        text = _strip_punctuation(text)
    tokens = text.split()
    if config.stemming is Stemming.PORTER:
        tokens = [stem(t) for t in tokens]
    return tokens


def _parse_abbreviation_lines(lines) -> frozenset[str]:
    entries = set()
    for line in lines:
        entry = line.strip().lower()
        if entry and not entry.startswith("#"):
            entries.add(entry)
    return frozenset(entries)


@lru_cache(maxsize=1)
def default_abbreviations() -> frozenset[str]:
    text = resources.files("pyramid_masker.resources").joinpath("abbreviations.txt").read_text("utf-8")
    return _parse_abbreviation_lines(text.splitlines())


def load_abbreviations(path) -> frozenset[str]:
    """Read an abbreviation list (one lowercase entry per line) from a file."""
    with open(path, encoding="utf-8") as fh:
        return _parse_abbreviation_lines(fh)


# The quotes and brackets that open and close a stretch of text: a
# terminator run may carry closers, and ``entities`` strips both.
OPENING_PUNCT = "\"'([{‘“«‹"
CLOSING_PUNCT = "\"'’”)]}»›"
# ``\S`` is the complement of ``str.isspace``, the test ``str.strip`` uses.
# A terminator run (group 1) plus any closing quotes/brackets attached to
# it, followed by whitespace or the end of the text.
_TERMINATOR_RUN = re.compile(rf"([.?!]+)[{re.escape(CLOSING_PUNCT)}]*(?!\S)")
_NON_SPACE = re.compile(r"\S")


def _is_abbreviation(text: str, dot_pos: int, abbreviations: frozenset[str]) -> bool:
    """True when the word ending at ``dot_pos`` (inclusive) is a known abbreviation."""
    start = dot_pos
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start : dot_pos + 1].lstrip(OPENING_PUNCT)
    return word.lower() in abbreviations


def _boundaries(text: str, abbreviations: frozenset[str]) -> list[int]:
    ends = []
    for match in _TERMINATOR_RUN.finditer(text):
        end = match.end()
        if match.group(1) == ".":
            dot_pos = match.start()
            if _is_abbreviation(text, dot_pos, abbreviations):
                continue
            # Decimal guard: a period that glues two numbers never splits.
            if dot_pos > 0 and text[dot_pos - 1].isdigit():
                after = _NON_SPACE.search(text, end)
                if after is not None and after.group().isdigit():
                    continue
        ends.append(end)
    return ends


def split_sentences(
    document: str,
    doc_index: int,
    cluster_id: str = "",
    abbreviations: frozenset[str] | None = None,
) -> list[Sentence]:
    """Split one document into sentences.

    Joining the sentence texts with single spaces and collapsing
    whitespace reproduces the whitespace-collapsed document.  A document
    without any terminator yields a single sentence.
    """
    if abbreviations is None:
        abbreviations = default_abbreviations()
    ends = _boundaries(document, abbreviations)
    sentences = []
    for start, end in zip([0, *ends], [*ends, len(document)]):
        text = document[start:end].strip()
        if text:
            sentences.append(Sentence(cluster_id, doc_index, len(sentences), text))
    return sentences


def segment_cluster(cluster, abbreviations: frozenset[str] | None = None) -> list[Sentence]:
    """Segment every document of a cluster, in document order (see ``require_document_order``)."""
    sentences: list[Sentence] = []
    for doc_index, document in enumerate(cluster.documents):
        sentences.extend(split_sentences(document, doc_index, cluster.cluster_id, abbreviations))
    return sentences
