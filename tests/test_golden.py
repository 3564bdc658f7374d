"""Golden output digests: `mask` stdout on a frozen corpus, per strategy.

A change that only makes the program faster must leave these digests
unchanged.  Other tests prove the bytes identical across worker counts;
these prove them identical across versions.  If a change alters the
output on purpose, regenerate the digests and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

from pyramid_masker import (
    EntitySource,
    NormalizationConfig,
    PipelineConfig,
    SalienceVariant,
    SelectionConfig,
    Stemming,
    Strategy,
    run_mask,
)
from pyramid_masker import selection
from pyramid_masker.cli import main

from synth import WILDFIRE_CLUSTER, long_cluster, punctuated_cluster, synthetic_cluster

GOLDEN_SHA256 = {
    Strategy.ENTITY_PYRAMID: "36dba60c0b0327c576acdf3df319c32d7ea5a7ca87c4aed1895589419e701cf9",
    Strategy.PRINCIPLE: "d8424bbebe544e9eed962fd78dbbfc312203a7fc606c4fa4303288741a4499cb",
    Strategy.LEAD: "1e90d29c4aa654f48462134a49b56445736f61b2c4d3179301ac0bd71576a405",
    Strategy.RANDOM: "39742a0dd44b08ab4ec798bb0b53868ffc411b95ab55869977064c7c15ce42ff",
}


# entity_pyramid on the punctuation-rich corpus, by entity source.
PUNCTUATED_SHA256 = {
    EntitySource.RULES: "533a2500f9a0ccaafaa5842f4d29f958893bac665c3fde9ff86c129da59e3221",
    EntitySource.PROVIDED: "8bf8eb266bf713159ff39094713877c33e9eebebf96aad1713357cd3531c5799",
}


# The provided locator's drops on the punctuated corpus, as (cluster,
# surface, doc): each annotated cluster carries one surface its document
# never holds, and every other annotation is located.
PUNCTUATED_DROPS = {
    EntitySource.RULES: [],
    EntitySource.PROVIDED: [(f"punct{i}", "Nowhere Mentioned", 0) for i in range(0, 40, 2)],
}


# Total ``ClusterScorer`` calls of an entity_pyramid run over the golden
# corpus: candidates scored by cluster ROUGE, and principle scores read.
SCORER_CALLS = {"cluster": 722, "principle": 1417}


# `mask` stdout on the golden corpus with every normalization stage
# off, by scoring strategy.  Turning off stemming alone gives the default
# digests above on this corpus, so it could not show whether the
# normalization config reaches the scorer.
RAW_NORMALIZATION_SHA256 = {
    Strategy.ENTITY_PYRAMID: "c1a1c22aabea92d97e2fed4e53a39396877ca44d9756a3a9a4ab24bc510a4186",
    Strategy.PRINCIPLE: "5503ae20f1f7b6391353a5fd2040bfd9f86ba8aacd4a86b8cd7db23caac8cf98",
}


# `score-sentence` stdout for every cluster of the golden corpus, by
# variant.  It asks for each sentence's cluster score, then for the
# principle score that ``cluster`` kept.
SCORE_SENTENCE_SHA256 = {
    SalienceVariant.R1_F1: "0e1424407ee772b5b3fe3697cd5108fb595e15bd1e765e8866575c021d4fc45d",
    SalienceVariant.R2_F1: "ea91fdcb18bc8eb680d4e2b9cd9c040317a254b29acfbe413e6228a26fe4a0bc",
    SalienceVariant.MEAN_R1_R2_F1: "80f7152cdc271a40cd75bbd71560b1f7e8fd50b224025e1882b43855090c13c8",
}


def _jsonl(clusters) -> bytes:
    lines = []
    for c in clusters:
        record = {"cluster_id": c.cluster_id, "documents": list(c.documents)}
        if c.entity_annotations is not None:
            record["entities"] = [
                {"surface": a.surface, "doc": a.doc_index} for a in c.entity_annotations
            ]
        lines.append(json.dumps(record, ensure_ascii=False))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _corpus() -> bytes:
    rng = random.Random(20211015)
    clusters = [synthetic_cluster(rng, f"syn{i}") for i in range(40)]
    clusters += [long_cluster(rng, f"long{i}") for i in range(6)]
    clusters.append(WILDFIRE_CLUSTER)
    return _jsonl(clusters)


def _punctuated_corpus() -> bytes:
    """Half the clusters annotated; the rest fall back to the rules
    under ``--entities provided``."""
    rng = random.Random(20261018)
    return _jsonl(punctuated_cluster(rng, f"punct{i}", annotate=i % 2 == 0) for i in range(40))


@pytest.mark.parametrize("strategy", list(GOLDEN_SHA256), ids=lambda s: s.value)
def test_mask_output_digest(strategy):
    sink = io.StringIO()
    config = PipelineConfig(selection=SelectionConfig(strategy=strategy, seed=7))
    report = run_mask(io.BytesIO(_corpus()), sink, config, diagnostics=io.StringIO())
    assert report.processed == 47 and report.skipped == 0
    digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[strategy]


@pytest.mark.parametrize("strategy", list(RAW_NORMALIZATION_SHA256), ids=lambda s: s.value)
def test_raw_normalization_digest(strategy):
    sink = io.StringIO()
    normalization = NormalizationConfig(
        lowercase=False, strip_punctuation=False, stemming=Stemming.NONE
    )
    config = PipelineConfig(
        selection=SelectionConfig(strategy=strategy, seed=7, normalization=normalization)
    )
    report = run_mask(io.BytesIO(_corpus()), sink, config, diagnostics=io.StringIO())
    assert report.processed == 47 and report.skipped == 0
    digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert digest == RAW_NORMALIZATION_SHA256[strategy]


@pytest.mark.parametrize("source", list(PUNCTUATED_SHA256), ids=lambda s: s.value)
def test_punctuated_entity_pyramid_digest(source):
    sink = io.StringIO()
    config = PipelineConfig(entity_source=source)
    diagnostics = io.StringIO()
    report = run_mask(io.BytesIO(_punctuated_corpus()), sink, config, diagnostics=diagnostics)
    assert report.processed == 40 and report.skipped == 0
    digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert digest == PUNCTUATED_SHA256[source]
    events = [json.loads(line) for line in diagnostics.getvalue().splitlines()]
    drops = [
        (e["cluster_id"], e["surface"], e["doc"]) for e in events if e["event"] == "entity_dropped"
    ]
    assert drops == PUNCTUATED_DROPS[source]


def test_entity_pyramid_scorer_call_counts(monkeypatch):
    calls = dict.fromkeys(SCORER_CALLS, 0)

    class CountingScorer(selection.ClusterScorer):
        def cluster(self, sentence):
            calls["cluster"] += 1
            return super().cluster(sentence)

        def principle(self, sentence):
            calls["principle"] += 1
            return super().principle(sentence)

    monkeypatch.setattr(selection, "ClusterScorer", CountingScorer)
    report = run_mask(io.BytesIO(_corpus()), io.StringIO(), PipelineConfig(), diagnostics=io.StringIO())
    assert report.processed == 47
    assert calls == SCORER_CALLS


@pytest.mark.parametrize("variant", list(SCORE_SENTENCE_SHA256), ids=lambda v: v.value)
def test_score_sentence_output_digest(variant, tmp_path, capsys):
    corpus = _corpus()
    path = tmp_path / "golden.jsonl"
    path.write_bytes(corpus)
    digest = hashlib.sha256()
    for line in corpus.splitlines():
        cluster_id = json.loads(line)["cluster_id"]
        argv = ["score-sentence", "--input", str(path), "--cluster-id", cluster_id,
                "--salience-variant", variant.value]
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == SCORE_SENTENCE_SHA256[variant]
