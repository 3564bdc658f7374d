"""End-to-end cluster processing and the parallel corpus driver.

One cluster flows through: segment -> (entities -> pyramid) -> selection
-> per-document truncation -> example assembly -> JSON record.  The
driver runs that pure function either inline or across a process pool,
writing records in input order with bounded buffering, so output bytes
are identical for any worker count.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import IO, Iterable, Iterator, Sequence

from .entities import EntitySource, build_pyramid, extract_entities
from .ingest import CorpusError, DocumentCluster, RecordError, load_clusters
from .mask import (
    MaskConfig,
    MaskedExample,
    MaskingError,
    build_masked_example,
    truncate_per_document,
)
from .segment import NormalizationConfig, segment_cluster
from .selection import SelectionConfig, Strategy, select_sentences

# Clusters handed to each worker task; big enough to amortize pickling,
# small enough to keep the ordered-writer buffer modest.
CHUNK_SIZE = 32


@dataclass(frozen=True)
class PipelineConfig:
    normalization: NormalizationConfig = field(default_factory=NormalizationConfig)
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
    Sentences are normalized only for a strategy that scores them.
    """
    normalization = config.normalization if config.selection.strategy.scores else None
    sentences = segment_cluster(cluster, normalization, config.abbreviations)
    if not sentences:
        raise MaskingError("cluster has no sentences")
    pyramid = None
    if config.selection.strategy is Strategy.ENTITY_PYRAMID:
        mentions = extract_entities(
            sentences, config.entity_source, cluster.entity_annotations, events
        )
        pyramid = build_pyramid(mentions, len(cluster.documents))
    selection = select_sentences(
        sentences, config.selection, cluster.cluster_id, pyramid
    )
    surviving = truncate_per_document(
        sentences, config.mask.input_token_limit, len(cluster.documents)
    )
    return build_masked_example(
        cluster.cluster_id, surviving, selection, config.mask, len(cluster.documents)
    )


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
        "input": list(example.input_tokens),
        "global_attention": list(example.global_attention_indices),
        "target": list(example.target_tokens),
        "meta": meta,
    }
    if emit_text:
        record["input_text"] = " ".join(example.input_tokens)
        record["target_text"] = " ".join(example.target_tokens)
    return record


def _process_one(cluster: DocumentCluster, config: PipelineConfig) -> tuple:
    """(status, cluster_id, record line or skip reason, events).  The
    cluster's diagnostic events travel in the result, so they reach the
    parent's diagnostics stream from any worker process."""
    events: list[dict] = []
    try:
        example = process_cluster(cluster, config, events)
    except MaskingError as exc:
        return ("skip", cluster.cluster_id, str(exc), events)
    line = json.dumps(example_to_record(example, config.emit_text), ensure_ascii=False)
    return ("ok", example.cluster_id, line, events)


def _process_chunk(clusters: Sequence[DocumentCluster], config: PipelineConfig) -> list[tuple]:
    return [_process_one(cluster, config) for cluster in clusters]


def _results(
    clusters: Iterable[DocumentCluster], config: PipelineConfig
) -> Iterator[tuple]:
    """Per-cluster results in input order, inline or via a bounded pool."""
    if config.workers == 1:
        for cluster in clusters:
            yield _process_one(cluster, config)
        return
    # Imported here so a one-worker run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        inflight: deque = deque()
        max_inflight = config.workers * 2
        clusters = iter(clusters)
        while chunk := list(islice(clusters, CHUNK_SIZE)):
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

    Per-cluster failures and bad input records are counted and reported
    on the diagnostics stream (stderr by default); under ``strict`` the
    first bad record raises ``CorpusError`` instead.
    """
    if diagnostics is None:
        diagnostics = sys.stderr
    report = RunReport()

    def on_record_error(error: RecordError) -> None:
        report.record_errors += 1
        print(json.dumps(error.event()), file=diagnostics)

    started = time.perf_counter()
    clusters = load_clusters(source, strict=config.strict, on_error=on_record_error)
    for result in _results(clusters, config):
        for event in result[3]:
            print(json.dumps(event), file=diagnostics)
        if result[0] == "ok":
            report.processed += 1
            sink.write(result[2])
            sink.write("\n")
        else:
            report.skipped += 1
            if config.strict:
                raise CorpusError(f"cluster {result[1]!r}: {result[2]}")
            print(
                json.dumps(
                    {"event": "cluster_skipped", "cluster_id": result[1], "reason": result[2]}
                ),
                file=diagnostics,
            )
        done = report.processed + report.skipped
        if config.progress_every and done % config.progress_every == 0:
            print(
                json.dumps(
                    {
                        "event": "progress",
                        "done": done,
                        "processed": report.processed,
                        "skipped": report.skipped,
                        "elapsed_s": round(time.perf_counter() - started, 3),
                    }
                ),
                file=diagnostics,
            )
    report.elapsed_s = time.perf_counter() - started
    print(json.dumps(report.to_json_dict()), file=diagnostics)
    return report
