"""The benchmark's own output check, run on one block of each workload.

``bench/check.py`` re-derives each record from the method's definitions
(truncation, assembly, the pyramid walk, the ROUGE scores) and
``bench/workloads.py`` generates the corpora it checks.  Both are
loaded by path, and each workload's first block of eight clusters runs
through ``run_mask`` in-process, so a change that breaks selection shows
here and not only when the benchmark runs."""

from __future__ import annotations

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from pyramid_masker import Sentence, build_pyramid, extract_entities
from pyramid_masker.entities import EntitySource
from pyramid_masker.pipeline import PipelineConfig, run_mask
from pyramid_masker.porter import stem
from pyramid_masker.selection import SelectionConfig, Strategy

from oracles import rule_pyramid_oracle

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    module_name = f"bench_{name}"
    if module_name in sys.modules:
        return sys.modules[module_name]
    spec = importlib.util.spec_from_file_location(module_name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while it is built.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def generated_sentences(cluster: dict) -> list[Sentence]:
    """A generated cluster's sentences, as the benchmark's checker reads them."""
    return [
        Sentence(cluster["cluster_id"], d, j, text)
        for d, doc in enumerate(cluster["docs"])
        for j, text in enumerate(doc)
    ]


def rules_pyramid(cluster: dict) -> list[str]:
    """The rule extractor's pyramid over the generated sentences, as the
    benchmark's checker builds it."""
    sentences = generated_sentences(cluster)
    return [e.entity for e in build_pyramid(extract_entities(sentences), len(cluster["docs"]))]


@pytest.mark.parametrize("name", ["long_pyramid", "news_provided", "small_lead"])
def test_first_block_passes_the_benchmark_check(name):
    check = load_bench("check")
    workloads = load_bench("workloads")
    workload = workloads.WORKLOADS[name]
    clusters = workloads.generate(workload, 1)[: workloads.BLOCK]
    config = PipelineConfig(
        selection=SelectionConfig(strategy=Strategy(workload.strategy)),
        entity_source=EntitySource(workload.entities),
    )
    sink = io.StringIO()
    report = run_mask(io.BytesIO(workloads.to_jsonl(clusters)), sink, config, io.StringIO())
    assert report.processed == len(clusters)
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [r["cluster_id"] for r in records] == [c["cluster_id"] for c in clusters]
    for record, cluster in zip(records, clusters):
        masked, copied = check.read_record(record, cluster, workload.strategy)
        check.check_selection(
            record, cluster, masked, copied, workload.strategy, stem, rules_pyramid
        )
    if name == "news_provided":
        assert {bool(c["entities"]) for c in clusters} == {True, False}


@pytest.mark.parametrize("name", ["long_pyramid", "news_provided", "small_lead"])
def test_first_block_rule_pyramid_equals_the_oracle(name):
    """On each generated cluster of the first block, the rule pyramid
    equals ``rule_pyramid_oracle`` entry for entry."""
    workloads = load_bench("workloads")
    for cluster in workloads.generate(workloads.WORKLOADS[name], 1)[: workloads.BLOCK]:
        sentences = generated_sentences(cluster)
        pyramid = build_pyramid(extract_entities(sentences), len(cluster["docs"]))
        found = [(e.entity, e.doc_frequency, e.locations) for e in pyramid]
        assert found == rule_pyramid_oracle(sentences), cluster["cluster_id"]
