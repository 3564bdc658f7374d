"""Traced in-process `mask` run at one worker.

Runs ``run_mask`` on a corpus in passes that alternate untraced and
traced, clearing the program's process-wide caches before each pass so
every pass starts as a fresh ``mask`` process would.  For the traced
passes it wraps the public functions where ``pipeline`` and
``selection`` look them up, keeps one span per call in memory (name,
start, end, parent, cluster id, pass) and writes them out at the end.

    python3 bench/traced.py --corpus C --output O --spans S --seconds N \\
        --strategy entity_pyramid --entities rules

Prints one JSON line: pass times, clusters skipped over all passes,
Porter cache counts, and the sentence count and per-cluster pyramid
entries of the first traced pass.  Needs the program's ``src``
directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import time
from contextlib import contextmanager

from pyramid_masker import pipeline, segment, selection
from pyramid_masker.entities import EntitySource
from pyramid_masker.pipeline import PipelineConfig, run_mask
from pyramid_masker.porter import stem
from pyramid_masker.selection import SelectionConfig, Strategy

# Span names, by the name pipeline.py looks each function up under.
# segment_cluster, build_pyramid, load_clusters and json.dumps are
# wrapped too, by installed() below, which also counts what they return.
PIPELINE_SPANS = {
    "extract_entities": "entities.extract",
    "select_sentences": "selection",
    "truncate_per_document": "mask.truncate",
    "build_masked_example": "mask.assemble",
    "example_to_record": "pipeline.record",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.cluster_id = ""
        self.pass_index = 0
        self.pyramids: list[tuple[str, list]] = []
        self.sentences = 0

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.cluster_id, self.pass_index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def ingest(self, load_clusters):
        """Each step of the loader's generator is one ``ingest`` span,
        credited to the cluster it yields."""

        def traced(*args, **kwargs):
            clusters = load_clusters(*args, **kwargs)
            while True:
                parent = self.stack[-1] if self.stack else -1
                start = time.perf_counter_ns()
                try:
                    cluster = next(clusters)
                except StopIteration:
                    return
                end = time.perf_counter_ns()
                self.cluster_id = cluster.cluster_id
                self.spans.append(("ingest", start, end, parent, self.cluster_id, self.pass_index))
                yield cluster

        return traced


class _JsonShim:
    """Stands in for the ``json`` module inside ``pipeline``.  Only the
    ``dumps`` of an output record is a ``pipeline.dumps`` span; the
    diagnostic lines (progress, skipped clusters, the summary) are not."""

    def __init__(self, traced_dumps) -> None:
        self.traced_dumps = traced_dumps

    def dumps(self, obj, *args, **kwargs):
        if isinstance(obj, dict) and "input" in obj:
            return self.traced_dumps(obj, *args, **kwargs)
        return json.dumps(obj, *args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(json, name)


@contextmanager
def installed(tracer: Tracer):
    names = (*PIPELINE_SPANS, "segment_cluster", "build_pyramid", "load_clusters", "json")
    saved_pipeline = {name: getattr(pipeline, name) for name in names}
    saved_scorer = selection.ClusterScorer

    def segment_cluster(*args, **kwargs):
        sentences = tracer.call("segment", saved_pipeline["segment_cluster"], *args, **kwargs)
        if tracer.pass_index == 0:
            tracer.sentences += len(sentences)
        return sentences

    def build_pyramid(*args, **kwargs):
        entries = tracer.call("entities.pyramid", saved_pipeline["build_pyramid"], *args, **kwargs)
        if tracer.pass_index == 0:
            tracer.pyramids.append((tracer.cluster_id, [e.entity for e in entries]))
        return entries

    class TracedScorer(saved_scorer):
        def __init__(self, *args, **kwargs):
            tracer.call("rouge.scorer_build", super().__init__, *args, **kwargs)

        def cluster(self, sentence):
            return tracer.call("rouge.cluster", super().cluster, sentence)

        def principle(self, sentence):
            return tracer.call("rouge.principle", super().principle, sentence)

    try:
        for name, span in PIPELINE_SPANS.items():
            setattr(pipeline, name, tracer.wrap(span, saved_pipeline[name]))
        pipeline.segment_cluster = segment_cluster
        pipeline.build_pyramid = build_pyramid
        pipeline.load_clusters = tracer.ingest(saved_pipeline["load_clusters"])
        pipeline.json = _JsonShim(tracer.wrap("pipeline.dumps", json.dumps))
        selection.ClusterScorer = TracedScorer
        yield
    finally:
        for name, fn in saved_pipeline.items():
            setattr(pipeline, name, fn)
        selection.ClusterScorer = saved_scorer


def _fresh_caches() -> None:
    stem.cache_clear()
    segment._is_punct_char.cache_clear()
    re.purge()


def _one_pass(corpus: str, config: PipelineConfig, run=run_mask) -> tuple[float, str, int]:
    """Returns (seconds, output text, clusters skipped)."""
    sink = io.StringIO()
    diagnostics = io.StringIO()
    with open(corpus, "rb") as source:
        started = time.perf_counter()
        report = run(source, sink, config, diagnostics)
        elapsed = time.perf_counter() - started
    if report.record_errors:
        raise SystemExit(f"corpus records rejected: {diagnostics.getvalue()[-2000:]}")
    return elapsed, sink.getvalue(), report.skipped


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--strategy", required=True)
    parser.add_argument("--entities", required=True)
    args = parser.parse_args()

    config = PipelineConfig(
        selection=SelectionConfig(strategy=Strategy(args.strategy)),
        entity_source=EntitySource(args.entities),
    )
    tracer = Tracer()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    hits = misses = skipped = 0

    def untraced_pass() -> None:
        nonlocal skipped
        _fresh_caches()
        elapsed, _, lost = _one_pass(args.corpus, config)
        untraced_s.append(elapsed)
        skipped += lost

    def traced_pass() -> None:
        nonlocal hits, misses, skipped
        _fresh_caches()
        tracer.pass_index = len(traced_s)
        with installed(tracer):
            elapsed, text, lost = _one_pass(args.corpus, config, tracer.wrap("run", run_mask))
        info = stem.cache_info()
        hits += info.hits
        misses += info.misses
        skipped += lost
        traced_s.append(elapsed)
        if tracer.pass_index == 0:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)

    # Pairs alternate which side runs first, so neither side always
    # inherits the other's warmed-up allocator and caches.
    started = time.perf_counter()
    while len(traced_s) < 2 or time.perf_counter() - started < args.seconds:
        pair = (untraced_pass, traced_pass)
        for one_pass in pair if len(traced_s) % 2 == 0 else reversed(pair):
            one_pass()

    with open(args.spans, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span))
            fh.write("\n")
    print(
        json.dumps(
            {
                "untraced_s": untraced_s,
                "traced_s": traced_s,
                "skipped": skipped,
                "porter_hits": hits,
                "porter_misses": misses,
                "sentences": tracer.sentences,
                "pyramids": tracer.pyramids,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
