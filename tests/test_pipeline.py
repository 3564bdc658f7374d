"""Whole-cluster processing and the corpus driver."""

from __future__ import annotations

import concurrent.futures
import io
import json
import os
import random

import pytest

from pyramid_masker import (
    CorpusError,
    DocumentCluster,
    EntitySource,
    MaskConfig,
    MaskingError,
    PipelineConfig,
    SelectionConfig,
    Strategy,
    process_cluster,
    roundtrip_check,
    run_mask,
    segment_cluster,
)
from pyramid_masker import entities, pipeline, rouge
from pyramid_masker.ingest import load_clusters
from pyramid_masker.pipeline import CHUNK_SIZE, example_to_record

from synth import WILDFIRE_CLUSTER, synthetic_cluster


def make_corpus(count: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        cluster = synthetic_cluster(rng, f"c{i:04d}")
        lines.append(
            json.dumps({"cluster_id": cluster.cluster_id, "documents": list(cluster.documents)})
        )
    return ("\n".join(lines) + "\n").encode()


def drive(corpus: bytes, config: PipelineConfig):
    sink = io.StringIO()
    diag = io.StringIO()
    report = run_mask(io.BytesIO(corpus), sink, config, diagnostics=diag)
    events = [json.loads(line) for line in diag.getvalue().splitlines()]
    return report, sink.getvalue(), events


def test_process_cluster_end_to_end():
    config = PipelineConfig()
    example = process_cluster(WILDFIRE_CLUSTER, config)
    assert example.cluster_id == "wildfire"
    assert example.provenance.strategy is Strategy.ENTITY_PYRAMID
    sentences = segment_cluster(WILDFIRE_CLUSTER)
    assert roundtrip_check(example, sentences, config.mask)


def test_process_cluster_without_sentences():
    # A cluster without sentences cannot be built, so it never reaches
    # process_cluster: every document must hold a non-space character.
    with pytest.raises(ValueError, match="document 0 is empty"):
        DocumentCluster("empty", ("   ", "\n\t"))


def test_process_cluster_untruncatable():
    cluster = DocumentCluster("tight", ("one long sentence that cannot fit here.",))
    config = PipelineConfig(mask=MaskConfig(input_token_limit=4))
    with pytest.raises(MaskingError):
        process_cluster(cluster, config)


def test_record_shape():
    example = process_cluster(WILDFIRE_CLUSTER, PipelineConfig())
    record = example_to_record(example)
    assert set(record) == {"cluster_id", "input", "global_attention", "target", "meta"}
    assert record["meta"]["strategy"] == "entity_pyramid"
    assert isinstance(record["meta"]["fallback_used"], bool)
    assert record["meta"]["dropped_masked"] == 0
    for key in record["meta"]["scores"]:
        doc, sent = key.split(":")
        assert doc.isdigit() and sent.isdigit()


def test_record_emit_text():
    example = process_cluster(WILDFIRE_CLUSTER, PipelineConfig())
    record = example_to_record(example, emit_text=True)
    assert record["input_text"] == " ".join(record["input"])
    assert record["target_text"] == " ".join(record["target"])


def test_run_mask_processes_corpus():
    report, out, events = drive(make_corpus(5), PipelineConfig())
    assert report.processed == 5
    assert report.skipped == 0
    assert report.exit_code == 0
    lines = out.splitlines()
    assert [json.loads(l)["cluster_id"] for l in lines] == [f"c{i:04d}" for i in range(5)]
    assert events[-1]["event"] == "summary"
    assert events[-1]["processed"] == 5


def test_run_mask_preserves_input_order():
    corpus = make_corpus(70, seed=3)
    _, out, _ = drive(corpus, PipelineConfig())
    ids = [json.loads(l)["cluster_id"] for l in out.splitlines()]
    assert ids == sorted(ids)  # synthetic ids are generated in sorted order


def test_worker_counts_agree_byte_for_byte():
    corpus = make_corpus(80, seed=7)
    _, serial, _ = drive(corpus, PipelineConfig(workers=1))
    _, parallel, _ = drive(corpus, PipelineConfig(workers=2))
    assert serial == parallel


TEST_PROCESS = os.getpid()


def crash_worker(clusters, config):
    """Stands in for ``pipeline._process_chunk``: a worker process dies."""
    if os.getpid() == TEST_PROCESS:
        pytest.fail("_process_chunk ran in the parent process")
    os._exit(3)


def test_one_chunk_input_runs_in_process(monkeypatch):
    """A pool is never started for one chunk: a worker would crash."""
    corpus = make_corpus(CHUNK_SIZE, seed=11)
    _, serial, _ = drive(corpus, PipelineConfig(workers=1))
    monkeypatch.setattr(pipeline, "_process_chunk", crash_worker)
    report, out, _ = drive(corpus, PipelineConfig(workers=2))
    assert report.exit_code == 0
    assert out == serial


def untimed(events: list[dict]) -> list[dict]:
    return [
        {k: v for k, v in e.items() if k not in ("elapsed_s", "clusters_per_s")}
        for e in events
    ]


@pytest.mark.parametrize("count", [CHUNK_SIZE, CHUNK_SIZE + 1])
def test_chunk_edges_agree_at_any_worker_count(count):
    """One chunk runs in-process and one more cluster starts a pool; both
    give the bytes and events of a one-worker run, progress included.
    Bad records come before, between and after the clusters."""
    clusters = make_corpus(count - 1, seed=13).splitlines(keepends=True)
    special = {"cluster_id": "special", "documents": ["Alpha beta. The <doc-sep> token. Gamma."]}
    clusters.insert(count // 2, (json.dumps(special) + "\n").encode() + b"not json\n")
    corpus = b'{"cluster_id": "a"}\n' + b"".join(clusters) + b"[1, 2]\n"
    runs = {w: drive(corpus, PipelineConfig(workers=w, progress_every=5)) for w in (1, 2, 16)}
    report, serial, events = runs[1]
    assert (report.processed, report.skipped, report.record_errors) == (count - 1, 1, 3)
    kinds = [e["event"] for e in events if e["event"] != "progress"]
    assert kinds == ["record_error", "cluster_skipped", "record_error", "record_error", "summary"]
    for workers in (2, 16):
        _, out, parallel_events = runs[workers]
        assert out == serial
        assert untimed(parallel_events) == untimed(events)


@pytest.mark.parametrize(
    "cpus, workers, count, pool_size",
    [
        pytest.param(16, 2, 1, None, id="2-1-None"),
        pytest.param(16, 16, CHUNK_SIZE, None, id="16-32-None"),
        pytest.param(16, 2, CHUNK_SIZE + 1, 2, id="2-33-2"),
        pytest.param(16, 16, CHUNK_SIZE + 1, 16, id="16-33-16"),
        pytest.param(16, 3, 3 * CHUNK_SIZE + 1, 3, id="3-97-3"),
        pytest.param(2, 16, CHUNK_SIZE + 1, 2, id="2cpus-16-33-2"),
        pytest.param(2, 100_000, 6 * CHUNK_SIZE + 1, 2, id="2cpus-100000-193-2"),
        pytest.param(1, 4, CHUNK_SIZE + 1, None, id="1cpu-4-33-None"),
    ],
)
def test_pool_starts_only_past_one_chunk(monkeypatch, cpus, workers, count, pool_size):
    """A run of one chunk starts no pool and asks for no CPU count; a
    longer one starts a pool of the workers ``--workers`` asks for, but
    no more than the usable CPUs, with at most two chunks per worker in
    flight, unless that is one.  Threads stand in for the worker
    processes."""
    sizes = []
    asked = []
    unread: set = set()
    peak = 0

    class Tracked:
        """A future whose result the driver has not yet read."""

        def __init__(self, future):
            self.future = future
            unread.add(self)

        def result(self):
            unread.discard(self)
            return self.future.result()

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

        def submit(self, fn, *args):
            nonlocal peak
            tracked = Tracked(super().submit(fn, *args))
            peak = max(peak, len(unread))
            return tracked

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: asked.append(cpus) or cpus)
    corpus = make_corpus(count, seed=17)
    lead = SelectionConfig(strategy=Strategy.LEAD)
    _, serial, _ = drive(corpus, PipelineConfig(selection=lead))
    report, out, _ = drive(corpus, PipelineConfig(selection=lead, workers=workers))
    assert sizes == ([] if pool_size is None else [pool_size])
    assert asked == ([cpus] if count > CHUNK_SIZE else [])
    assert peak <= 2 * (pool_size or 0)
    assert report.processed == count
    assert out == serial


def test_usable_cpus_without_affinity(monkeypatch):
    """Where the process has no affinity call, the pool is bounded by
    the CPU count, or by one CPU when even that is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert pipeline._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline._usable_cpus() == 1


def test_skipped_cluster_reported_not_fatal():
    bad = {"cluster_id": "bad", "documents": ["War and war and war and war and war and war went on."]}
    good = {"cluster_id": "good", "documents": ["A fine sentence here."]}
    corpus = (json.dumps(bad) + "\n" + json.dumps(good) + "\n").encode()
    config = PipelineConfig(mask=MaskConfig(input_token_limit=8))
    report, out, events = drive(corpus, config)
    assert report.processed == 1
    assert report.skipped == 1
    skip_events = [e for e in events if e["event"] == "cluster_skipped"]
    assert skip_events[0]["cluster_id"] == "bad"
    assert "untruncatable" in skip_events[0]["reason"]
    assert json.loads(out.splitlines()[0])["cluster_id"] == "good"


def test_entity_dropped_event_reaches_diagnostics():
    annotated = {
        "cluster_id": "ann",
        "documents": ["Colorado burned again today.", "Colorado crews held the line."],
        "entities": [
            {"surface": "Colorado", "doc": 0},
            {"surface": "Colorado", "doc": 1},
            {"surface": "Zed", "doc": 1},
        ],
    }
    corpus = make_corpus(40) + (json.dumps(annotated) + "\n").encode()
    for workers in (1, 2):
        config = PipelineConfig(entity_source=EntitySource.PROVIDED, workers=workers)
        report, _, events = drive(corpus, config)
        assert report.processed == 41
        dropped = [e for e in events if e["event"] == "entity_dropped"]
        assert dropped == [
            {"event": "entity_dropped", "cluster_id": "ann", "surface": "Zed", "doc": 1}
        ]


def test_record_errors_counted():
    corpus = b'{"cluster_id": "a"}\n' + make_corpus(1)
    report, _, events = drive(corpus, PipelineConfig())
    assert report.record_errors == 1
    assert any(e["event"] == "record_error" and e["line"] == 1 for e in events)


def test_strict_promotes_skip_to_error():
    bad = {"cluster_id": "bad", "documents": ["War and war and war and war and war and war went on."]}
    corpus = (json.dumps(bad) + "\n").encode()
    config = PipelineConfig(strict=True, mask=MaskConfig(input_token_limit=8))
    with pytest.raises(CorpusError, match="bad"):
        drive(corpus, config)


def test_strict_promotes_record_error():
    with pytest.raises(CorpusError, match="line 1"):
        drive(b"{broken\n", PipelineConfig(strict=True))


def test_progress_events():
    _, _, events = drive(make_corpus(25), PipelineConfig(progress_every=10))
    progress = [e for e in events if e["event"] == "progress"]
    assert [e["done"] for e in progress] == [10, 20]


def test_progress_event_carries_the_summary_counts():
    corpus = b"not json\n" + make_corpus(10)
    _, _, events = drive(corpus, PipelineConfig(progress_every=10))
    progress = [e for e in events if e["event"] == "progress"]
    assert [
        (e["done"], e["processed"], e["skipped"], e["record_errors"]) for e in progress
    ] == [(10, 10, 0, 1)]
    assert progress[0].keys() == events[-1].keys() | {"done"}


def test_progress_can_be_disabled():
    _, _, events = drive(make_corpus(25), PipelineConfig(progress_every=0))
    assert not any(e["event"] == "progress" for e in events)


def test_empty_corpus_exit_code():
    report, out, events = drive(b"", PipelineConfig())
    assert report.exit_code == 2
    assert out == ""
    assert events[-1]["processed"] == 0


def test_workers_validated():
    with pytest.raises(ValueError):
        PipelineConfig(workers=0)


def test_progress_every_validated():
    with pytest.raises(ValueError, match="progress_every"):
        PipelineConfig(progress_every=-1)


def test_special_token_in_a_document_is_one_skip_line():
    text = "Alpha beta. The [sent-mask] token and <doc-sep> appear here. Gamma delta."
    clusters = [
        {"cluster_id": "special", "documents": [text]},
        {"cluster_id": "plain", "documents": ["Alpha beta. Gamma x<doc-sep>y delta."]},
    ]
    corpus = "".join(json.dumps(c) + "\n" for c in clusters).encode()
    config = PipelineConfig(selection=SelectionConfig(strategy=Strategy.LEAD))
    report, out, events = drive(corpus, config)
    assert (report.processed, report.skipped) == (1, 1)
    assert [json.loads(line)["cluster_id"] for line in out.splitlines()] == ["plain"]
    skips = [e for e in events if e["event"] == "cluster_skipped"]
    assert skips == [
        {
            "event": "cluster_skipped",
            "cluster_id": "special",
            "reason": "special token '<doc-sep>' in document 0",
        }
    ]


def test_alternate_strategies_run_end_to_end():
    corpus = make_corpus(4, seed=5)
    for strategy in Strategy:
        config = PipelineConfig(selection=SelectionConfig(strategy=strategy))
        report, out, _ = drive(corpus, config)
        assert report.processed == 4
        for line in out.splitlines():
            assert json.loads(line)["meta"]["strategy"] == strategy.value


@pytest.mark.parametrize("strategy", [Strategy.LEAD, Strategy.RANDOM])
def test_non_scoring_strategies_never_normalize(strategy, monkeypatch):
    """Neither the scoring tokens nor the folded text is ever built."""

    def refuse(*args, **kwargs):
        raise AssertionError("normalize_tokens or fold_words called")

    monkeypatch.setattr(rouge, "normalize_tokens", refuse)
    monkeypatch.setattr(entities, "fold_words", refuse)
    config = PipelineConfig(selection=SelectionConfig(strategy=strategy))
    report, _, _ = drive(make_corpus(4, seed=5), config)
    assert report.processed == 4


@pytest.mark.parametrize("strategy", [Strategy.PRINCIPLE, Strategy.ENTITY_PYRAMID])
def test_scoring_strategies_normalize(strategy, monkeypatch):
    """The scorer normalizes each sentence of each cluster once."""
    calls = []
    normalize = rouge.normalize_tokens

    def counted(*args, **kwargs):
        calls.append(args[0])
        return normalize(*args, **kwargs)

    monkeypatch.setattr(rouge, "normalize_tokens", counted)
    config = PipelineConfig(selection=SelectionConfig(strategy=strategy))
    corpus = make_corpus(4, seed=5)
    report, _, _ = drive(corpus, config)
    assert report.processed == 4
    clusters = load_clusters(io.BytesIO(corpus))
    assert calls == [s.text for cluster in clusters for s in segment_cluster(cluster)]
