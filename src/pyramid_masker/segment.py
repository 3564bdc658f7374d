"""Sentence segmentation and token normalization.

Splitting is rule-based: a sentence ends at a run of ``.?!`` (plus any
closing quotes/brackets) followed by whitespace, unless the period belongs
to a known abbreviation or a decimal number.  The abbreviation list ships
as a package resource so segmentation is reproducible; see
``load_abbreviations`` to override it.

Normalization feeds the ROUGE scorer: lowercase, punctuation replaced by
spaces, whitespace split, Porter stemming.  Each stage is independently
switchable via ``NormalizationConfig``.  A run that does not score passes
``None`` instead of a config and gets sentences without tokens.
"""

from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from operator import attrgetter

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
    """One sentence of one document, with its normalized tokens.

    ``key``, ``(doc_index, sent_index)``, identifies the sentence within
    a cluster; it is stored at construction because scoring and
    selection read it in their inner loops.  ``tokens`` is derived from
    ``text`` under the active normalization config and is what the ROUGE
    scorer consumes.  It is empty when the sentence was segmented without
    a config, as for a strategy that does not score.  ``folded`` is the
    text entity mentions are matched in, built on first use.
    """

    cluster_id: str
    doc_index: int
    sent_index: int
    text: str
    tokens: tuple[str, ...] = field(default=())
    key: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.doc_index, self.sent_index))

    @cached_property
    def folded(self) -> str:
        return fold_text(self.text)


def fold_text(text: str) -> str:
    """Whitespace collapsed to single spaces, then case-folded: the form
    in which entity mentions are grouped and matched."""
    return " ".join(text.split()).casefold()


# Sort key putting sentences in document order.
by_position = attrgetter("key")


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


# A terminator run (group 1) plus any closing quotes/brackets attached to it.
_TERMINATOR_RUN = re.compile(r"([.?!]+)[\"'’”)\]}»›]*")
_OPENING_PUNCT = "\"'([{‘“«‹"


def _is_abbreviation(text: str, dot_pos: int, abbreviations: frozenset[str]) -> bool:
    """True when the word ending at ``dot_pos`` (inclusive) is a known abbreviation."""
    start = dot_pos
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start : dot_pos + 1].lstrip(_OPENING_PUNCT)
    return word.lower() in abbreviations


def _boundaries(text: str, abbreviations: frozenset[str]) -> list[int]:
    ends = []
    for match in _TERMINATOR_RUN.finditer(text):
        end = match.end()
        if end < len(text) and not text[end].isspace():
            continue
        if match.group(1) == ".":
            dot_pos = match.start()
            if _is_abbreviation(text, dot_pos, abbreviations):
                continue
            # Decimal guard: a period that glues two numbers never splits.
            before = text[dot_pos - 1] if dot_pos > 0 else ""
            after = text[end:].lstrip()
            if before.isdigit() and after[:1].isdigit():
                continue
        ends.append(end)
    return ends


def split_sentences(
    document: str,
    doc_index: int,
    cluster_id: str = "",
    config: NormalizationConfig | None = DEFAULT_NORMALIZATION,
    abbreviations: frozenset[str] | None = None,
) -> list[Sentence]:
    """Split one document into sentences with normalized tokens, or
    with empty ``tokens`` when ``config`` is None.

    Joining the sentence texts with single spaces and collapsing
    whitespace reproduces the whitespace-collapsed document.  A document
    without any terminator yields a single sentence.
    """
    if abbreviations is None:
        abbreviations = default_abbreviations()
    ends = _boundaries(document, abbreviations)
    spans = []
    start = 0
    for end in ends:
        spans.append(document[start:end])
        start = end
    if start < len(document):
        spans.append(document[start:])

    sentences = []
    for span in spans:
        text = span.strip()
        if not text:
            continue
        sentences.append(
            Sentence(
                cluster_id=cluster_id,
                doc_index=doc_index,
                sent_index=len(sentences),
                text=text,
                tokens=() if config is None else tuple(normalize_tokens(text, config)),
            )
        )
    return sentences


def segment_cluster(
    cluster,
    config: NormalizationConfig | None = DEFAULT_NORMALIZATION,
    abbreviations: frozenset[str] | None = None,
) -> list[Sentence]:
    """Segment every document of a cluster, in document order.  With
    ``config`` None, no sentence is normalized and every ``tokens`` is
    empty: only the ROUGE scorer reads them."""
    sentences: list[Sentence] = []
    for doc_index, document in enumerate(cluster.documents):
        sentences.extend(
            split_sentences(document, doc_index, cluster.cluster_id, config, abbreviations)
        )
    return sentences
