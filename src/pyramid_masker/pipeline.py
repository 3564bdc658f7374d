"""End-to-end cluster processing and the parallel corpus driver.

One cluster flows through: segment -> (entities -> pyramid) -> selection
-> per-document truncation -> example assembly -> JSON record.  The
driver runs that pure function either inline or across a process pool,
writing records and events in input order with bounded buffering, so
stdout, and stderr but for its timings, are the same at any worker count.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import IO, Iterable, Iterator, Sequence

from .entities import EntitySource, build_pyramid, extract_entities
from .ingest import CorpusError, DocumentCluster, load_clusters
from .mask import (
    MaskConfig,
    MaskedExample,
    MaskingError,
    build_masked_example,
    truncate_per_document,
)
from .segment import segment_cluster
from .selection import SelectionConfig, Strategy, select_sentences

# Clusters handed to each worker task; big enough to amortize pickling,
# small enough to keep the ordered-writer buffer modest.
CHUNK_SIZE = 32


@dataclass(frozen=True)
class PipelineConfig:
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    mask: MaskConfig = field(default_factory=MaskConfig)
    entity_source: EntitySource = EntitySource.RULES
    workers: int = 1
    strict: bool = False
    emit_text: bool = False
    progress_every: int = 1000
    abbreviations: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.progress_every < 0:
            raise ValueError("progress_every must be at least 0")


def process_cluster(
    cluster: DocumentCluster,
    config: PipelineConfig,
    events: list[dict] | None = None,
) -> MaskedExample:
    """Run one cluster through the whole pipeline.

    Raises ``MaskingError`` when the cluster cannot yield a valid
    example (nothing fits the budget, or every masked sentence was
    truncated away).  Diagnostic events about the cluster, such as
    ``entity_dropped``, are appended to ``events`` when it is given.
    """
    sentences = segment_cluster(cluster, config.abbreviations)
    pyramid = None
    if config.selection.strategy is Strategy.ENTITY_PYRAMID:
        mentions = extract_entities(
            sentences, config.entity_source, cluster.entity_annotations, events
        )
        pyramid = build_pyramid(mentions, len(cluster.documents))
    selection = select_sentences(sentences, config.selection, pyramid)
    documents = truncate_per_document(sentences, config.mask.input_token_limit, len(cluster.documents))
    return build_masked_example(cluster.cluster_id, documents, selection, config.mask)


def example_to_record(example: MaskedExample, emit_text: bool = False) -> dict:
    """Shape a MaskedExample into its output JSON record."""
    provenance = example.provenance
    meta: dict = {
        "strategy": provenance.strategy.value,
        "fallback_used": provenance.fallback_used,
        "dropped_masked": example.dropped_masked,
    }
    if provenance.scores:
        meta["scores"] = {
            f"{doc}:{sent}": score
            for (doc, sent), score in sorted(provenance.scores.items())
        }
    record: dict = {
        "cluster_id": example.cluster_id,
        "input": example.input_tokens,
        "global_attention": example.global_attention_indices,
        "target": example.target_tokens,
        "meta": meta,
    }
    if emit_text:
        record["input_text"] = " ".join(example.input_tokens)
        record["target_text"] = " ".join(example.target_tokens)
    return record


def _process_one(cluster: DocumentCluster, events: list[dict], config: PipelineConfig) -> tuple:
    """(record line or None, events).  The cluster's own events and its
    ``cluster_skipped`` are appended to ``events``, which holds those read
    before it, so they reach the parent's diagnostics stream in file
    order from any worker process."""
    try:
        example = process_cluster(cluster, config, events)
    except MaskingError as exc:
        events.append(
            {"event": "cluster_skipped", "cluster_id": cluster.cluster_id, "reason": str(exc)}
        )
        return None, events
    return json.dumps(example_to_record(example, config.emit_text), ensure_ascii=False), events


def _process_chunk(items: Sequence[tuple], config: PipelineConfig) -> list[tuple]:
    return [_process_one(cluster, events, config) for cluster, events in items]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _results(items: Iterable[tuple], config: PipelineConfig) -> Iterator[tuple]:
    """Per-cluster results for (cluster, events) items in input order,
    inline or via a pool of ``min(workers, usable CPUs)`` processes with
    at most two chunks per process in flight.

    Before a pool starts, one cluster more than a chunk is read.  An
    input of one chunk or less, like a one-worker run or a run with one
    usable CPU, stays in this process and never loads multiprocessing.
    """
    items = iter(items)
    head = list(islice(items, CHUNK_SIZE + 1)) if config.workers > 1 else []
    items = chain(head, items)
    workers = min(config.workers, _usable_cpus()) if len(head) > CHUNK_SIZE else 1
    if workers == 1:
        for cluster, events in items:
            yield _process_one(cluster, events, config)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        inflight: deque = deque()
        max_inflight = workers * 2
        while chunk := list(islice(items, CHUNK_SIZE)):
            if len(inflight) == max_inflight:
                yield from inflight.popleft().result()
            inflight.append(pool.submit(_process_chunk, chunk, config))
        while inflight:
            yield from inflight.popleft().result()


@dataclass
class RunReport:
    processed: int = 0
    skipped: int = 0
    record_errors: int = 0
    elapsed_s: float = 0.0

    @property
    def exit_code(self) -> int:
        return 0 if self.processed > 0 else 2

    def to_json_dict(self) -> dict:
        out = {
            "event": "summary",
            "processed": self.processed,
            "skipped": self.skipped,
            "record_errors": self.record_errors,
            "elapsed_s": round(self.elapsed_s, 3),
        }
        if self.elapsed_s > 0:
            out["clusters_per_s"] = round((self.processed + self.skipped) / self.elapsed_s, 1)
        return out


def run_mask(
    source: IO[bytes],
    sink: IO[str],
    config: PipelineConfig,
    diagnostics: IO[str] | None = None,
) -> RunReport:
    """Mask a whole corpus stream, writing one JSON line per success.

    Bad input records and per-cluster failures are counted and reported
    on the diagnostics stream (stderr by default), each in file order
    with the events of the clusters around it, whatever the worker
    count.  Under ``strict`` the first of them raises ``CorpusError``
    instead, so the records written before it do not depend on the
    worker count either.
    """
    if diagnostics is None:
        diagnostics = sys.stderr
    report = RunReport()
    pending: list[dict] = []

    def clusters_with_events() -> Iterator[tuple[DocumentCluster, list[dict]]]:
        """Each cluster with the ``record_error`` events read just before it."""
        for cluster in load_clusters(source, on_error=lambda error: pending.append(error.event())):
            yield cluster, pending.copy()
            pending.clear()

    def emit(events: list[dict]) -> None:
        for event in events:
            kind = event["event"]
            if config.strict and kind == "record_error":
                raise CorpusError(f"line {event['line']}: {event['reason']}")
            if config.strict and kind == "cluster_skipped":
                raise CorpusError(f"cluster {event['cluster_id']!r}: {event['reason']}")
            report.record_errors += kind == "record_error"
            print(json.dumps(event), file=diagnostics)

    started = time.perf_counter()
    for line, events in _results(clusters_with_events(), config):
        emit(events)
        if line is None:
            report.skipped += 1
        else:
            report.processed += 1
            sink.write(line)
            sink.write("\n")
        done = report.processed + report.skipped
        if config.progress_every and done % config.progress_every == 0:
            report.elapsed_s = time.perf_counter() - started
            progress = {**report.to_json_dict(), "event": "progress", "done": done}
            print(json.dumps(progress), file=diagnostics)
    emit(pending)
    report.elapsed_s = time.perf_counter() - started
    print(json.dumps(report.to_json_dict()), file=diagnostics)
    return report
