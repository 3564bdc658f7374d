"""Streaming corpus loader and corpus-level statistics.

Input is UTF-8 JSONL, one cluster per line:

    {"cluster_id": "c1", "documents": ["...", "..."],
     "summary": "...",                          # optional
     "entities": [{"surface": "...", "doc": 0}] # optional
    }

``read_records`` reads every JSONL input of the package.  A malformed
line never kills a run by default: it is a ``RecordError`` with its line
number and the reader moves on.  Strict mode promotes the first bad
record to a fatal ``CorpusError``.  Clusters are read one at a time, but
the loader keeps every cluster id it has seen to reject duplicates, so
its memory grows with the number of distinct ids in the corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, IO, Iterable, Iterator, TypeVar

T = TypeVar("T")


class CorpusError(ValueError):
    """Fatal corpus problem (strict mode or unusable source)."""


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
    """One set of related documents, the unit of processing."""

    cluster_id: str
    documents: tuple[str, ...]
    gold_summary: str | None = None
    entity_annotations: tuple[EntityAnnotation, ...] | None = None


def _parse_record(record: dict, seen_ids: set[str]) -> DocumentCluster:
    """Validate one decoded JSON object whose id is not in ``seen_ids``,
    then add its id there; raises ValueError with a reason."""
    cluster_id = record.get("cluster_id")
    if not isinstance(cluster_id, str) or not cluster_id:
        raise ValueError("missing or empty cluster_id")
    documents = record.get("documents")
    if not isinstance(documents, list):
        raise ValueError("documents must be an array of strings")
    if not documents:
        raise ValueError("empty cluster")
    for i, doc in enumerate(documents):
        if not isinstance(doc, str):
            raise ValueError(f"document {i} is not a string")
        if not doc.strip():
            raise ValueError(f"document {i} is empty")

    summary = record.get("summary")
    if summary is not None:
        if not isinstance(summary, str):
            raise ValueError("summary must be a string")
        summary = summary if summary.strip() else None

    annotations = None
    raw_entities = record.get("entities")
    if raw_entities is not None:
        if not isinstance(raw_entities, list):
            raise ValueError("entities must be an array")
        parsed = []
        for i, entry in enumerate(raw_entities):
            if not isinstance(entry, dict):
                raise ValueError(f"entity {i} is not an object")
            surface = entry.get("surface")
            doc = entry.get("doc")
            if not isinstance(surface, str) or not surface.strip():
                raise ValueError(f"entity {i} has no surface text")
            if not isinstance(doc, int) or isinstance(doc, bool):
                raise ValueError(f"entity {i} has a non-integer doc index")
            if not 0 <= doc < len(documents):
                raise ValueError(f"entity {i} references document {doc} of {len(documents)}")
            parsed.append(EntityAnnotation(surface=surface, doc_index=doc))
        annotations = tuple(parsed)

    if cluster_id in seen_ids:
        raise ValueError(f"duplicate cluster_id {cluster_id!r}")
    seen_ids.add(cluster_id)
    return DocumentCluster(
        cluster_id=cluster_id,
        documents=tuple(documents),
        gold_summary=summary,
        entity_annotations=annotations,
    )


def _log_record_error(error: RecordError) -> None:
    """The default ``on_error``: a warning on this module's logger.
    ``logging`` is imported here because only a caller that passes no
    handler ever needs it."""
    import logging

    logging.getLogger(__name__).warning("skipping record: %s", error)


def read_records(
    stream: IO[bytes],
    parse: Callable[[dict], T],
    strict: bool = False,
    on_error: Callable[[RecordError], None] | None = None,
) -> Iterator[T]:
    """Yield ``parse(record)`` for each record of a binary JSONL stream,
    in file order.  Blank lines are ignored.  A line that is not UTF-8,
    not JSON or not an object, or that ``parse`` rejects with
    ``ValueError``, is reported through ``on_error`` (default: a log
    warning) unless ``strict``, which raises ``CorpusError`` at the first.
    """
    if on_error is None:
        on_error = _log_record_error
    for line_number, raw in enumerate(stream, 1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            item = parse(record)
        except ValueError as exc:
            reason = f"invalid UTF-8: {exc}" if isinstance(exc, UnicodeDecodeError) else str(exc)
            error = RecordError(line_number, reason)
            if strict:
                raise CorpusError(str(error)) from exc
            on_error(error)
            continue
        yield item


def load_clusters(
    stream: IO[bytes],
    strict: bool = False,
    on_error: Callable[[RecordError], None] | None = None,
) -> Iterator[DocumentCluster]:
    """Yield clusters from a binary JSONL stream, in file order, through
    ``read_records``; a cluster whose id was seen before is a bad record."""
    return read_records(stream, partial(_parse_record, seen_ids=set()), strict, on_error)


@dataclass(frozen=True)
class CorpusStats:
    """Corpus means; all lengths are whitespace token counts."""

    example_count: int
    mean_docs_per_cluster: float | None = None
    mean_source_length: float | None = None
    mean_summary_length: float | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"example_count": self.example_count}
        if self.mean_docs_per_cluster is not None:
            out["mean_docs_per_cluster"] = self.mean_docs_per_cluster
        if self.mean_source_length is not None:
            out["mean_source_length"] = self.mean_source_length
        if self.mean_summary_length is not None:
            out["mean_summary_length"] = self.mean_summary_length
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
