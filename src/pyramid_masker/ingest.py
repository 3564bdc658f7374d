"""Streaming corpus loader and corpus-level statistics.

Input is UTF-8 JSONL, one cluster per line:

    {"cluster_id": "c1", "documents": ["...", "..."],
     "summary": "...",                          # optional
     "entities": [{"surface": "...", "doc": 0}] # optional
    }

``read_records`` reads every JSONL input of the package.  A malformed
line is a ``RecordError`` with its line number: a caller's ``on_error``
receives each one and the reader moves on; with no ``on_error`` the
first raises ``CorpusError``.  Clusters are read one at a time, but
the loader keeps every cluster id it has seen to reject duplicates, so
its memory grows with the number of distinct ids in the corpus.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, IO, Iterable, Iterator, TypeVar

T = TypeVar("T")

# A surrogate only comes from a \uD800-\uDFFF escape, and ``json`` joins
# each valid pair into one character: one left in a string stands alone.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")
_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def is_json_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def fits_float(value: object) -> bool:
    """Whether a decoded JSON value is a number that a float can hold."""
    if not (is_json_int(value) or isinstance(value, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


class CorpusError(ValueError):
    """Fatal corpus problem (a bad record with no handler, or an unusable source)."""


@dataclass(frozen=True)
class RecordError:
    line_number: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.reason}"

    def event(self) -> dict:
        return {"event": "record_error", "line": self.line_number, "reason": self.reason}


@dataclass(frozen=True)
class EntityAnnotation:
    surface: str
    doc_index: int


@dataclass(frozen=True)
class DocumentCluster:
    """One set of related documents, the unit of processing.  However it
    is built, a value that breaks a rule of a cluster raises ValueError
    with a reason; a blank summary is stored as ``None``."""

    cluster_id: str
    documents: tuple[str, ...]
    gold_summary: str | None = None
    entity_annotations: tuple[EntityAnnotation, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.cluster_id, str) or not self.cluster_id:
            raise ValueError("missing or empty cluster_id")
        if not self.documents:
            raise ValueError("empty cluster")
        for i, doc in enumerate(self.documents):
            if not isinstance(doc, str):
                raise ValueError(f"document {i} is not a string")
            if not doc.strip():
                raise ValueError(f"document {i} is empty")
        if self.gold_summary is not None:
            if not isinstance(self.gold_summary, str):
                raise ValueError("summary must be a string")
            if not self.gold_summary.strip():
                object.__setattr__(self, "gold_summary", None)
        for i, annotation in enumerate(self.entity_annotations or ()):
            surface, doc, n = annotation.surface, annotation.doc_index, len(self.documents)
            if not isinstance(surface, str) or not surface.strip():
                raise ValueError(f"entity {i} has no surface text")
            if not is_json_int(doc):
                raise ValueError(f"entity {i} has a non-integer doc index")
            if not 0 <= doc < n:
                raise ValueError(f"entity {i} references document {doc} of {n}")


def _parse_record(record: dict, seen_ids: set[str]) -> DocumentCluster:
    """The cluster of one decoded JSON object whose id is not in
    ``seen_ids``, whose id is then added there; raises ValueError with a
    reason.  Only the JSON shape is checked here: the cluster checks its
    values."""
    documents = record.get("documents")
    if not isinstance(documents, list):
        raise ValueError("documents must be an array of strings")
    entries = record.get("entities")
    annotations = None
    if entries is not None:
        if not isinstance(entries, list):
            raise ValueError("entities must be an array")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"entity {i} is not an object")
        annotations = tuple(EntityAnnotation(e.get("surface"), e.get("doc")) for e in entries)
    cluster = DocumentCluster(
        record.get("cluster_id"), tuple(documents), record.get("summary"), annotations
    )
    if cluster.cluster_id in seen_ids:
        raise ValueError(f"duplicate cluster_id {cluster.cluster_id!r}")
    seen_ids.add(cluster.cluster_id)
    return cluster


def read_records(
    stream: IO[bytes],
    parse: Callable[[dict], T],
    on_error: Callable[[RecordError], None] | None = None,
) -> Iterator[T]:
    """Yield ``parse(record)`` for each record of a binary JSONL stream,
    in file order.  Blank lines are ignored.  A line that is not UTF-8,
    not JSON, too deep to decode or not an object, holds a lone surrogate,
    or that ``parse`` rejects with ``ValueError``, goes to ``on_error`` as
    a ``RecordError``; with no ``on_error`` the first raises ``CorpusError``.
    """
    for line_number, raw in enumerate(stream, 1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            if _ESCAPE.search(raw) and LONE_SURROGATE.search(json.dumps(record, ensure_ascii=False)):
                raise ValueError("record holds a lone UTF-16 surrogate")
            item = parse(record)
        except (ValueError, RecursionError) as exc:
            reason = f"invalid UTF-8: {exc}" if isinstance(exc, UnicodeDecodeError) else str(exc)
            error = RecordError(line_number, reason)
            if on_error is None:
                raise CorpusError(str(error)) from exc
            on_error(error)
            continue
        yield item


def load_clusters(
    stream: IO[bytes],
    on_error: Callable[[RecordError], None] | None = None,
) -> Iterator[DocumentCluster]:
    """Yield clusters from a binary JSONL stream, in file order, through
    ``read_records``; a cluster whose id was seen before is a bad record."""
    return read_records(stream, partial(_parse_record, seen_ids=set()), on_error)


@dataclass(frozen=True)
class CorpusStats:
    """Corpus means; all lengths are whitespace token counts."""

    example_count: int
    mean_docs_per_cluster: float | None = None
    mean_source_length: float | None = None
    mean_summary_length: float | None = None

    def to_json_dict(self) -> dict:
        out = {name: value for name, value in asdict(self).items() if value is not None}
        if len(out) > 1:
            out["length_unit"] = "whitespace_tokens"
        return out


def compute_corpus_stats(clusters: Iterable[DocumentCluster]) -> CorpusStats:
    """Single-pass means over a cluster stream.

    Source length is the token total across a cluster's documents.  The
    summary mean covers only clusters that have a gold summary and is
    absent when none do; every mean is absent for an empty corpus.
    """
    count = 0
    doc_count = 0
    source_tokens = 0
    summary_count = 0
    summary_tokens = 0
    for cluster in clusters:
        count += 1
        doc_count += len(cluster.documents)
        source_tokens += sum(len(doc.split()) for doc in cluster.documents)
        if cluster.gold_summary is not None:
            summary_count += 1
            summary_tokens += len(cluster.gold_summary.split())
    if count == 0:
        return CorpusStats(example_count=0)
    return CorpusStats(
        example_count=count,
        mean_docs_per_cluster=doc_count / count,
        mean_source_length=source_tokens / count,
        mean_summary_length=(summary_tokens / summary_count) if summary_count else None,
    )
