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

from pyramid_masker import EntitySource, PipelineConfig, SelectionConfig, Strategy, run_mask

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


@pytest.mark.parametrize("source", list(PUNCTUATED_SHA256), ids=lambda s: s.value)
def test_punctuated_entity_pyramid_digest(source):
    sink = io.StringIO()
    config = PipelineConfig(entity_source=source)
    report = run_mask(io.BytesIO(_punctuated_corpus()), sink, config, diagnostics=io.StringIO())
    assert report.processed == 40 and report.skipped == 0
    digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert digest == PUNCTUATED_SHA256[source]
