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

from pyramid_masker import PipelineConfig, SelectionConfig, Strategy, run_mask

from synth import WILDFIRE_CLUSTER, long_cluster, synthetic_cluster

GOLDEN_SHA256 = {
    Strategy.ENTITY_PYRAMID: "36dba60c0b0327c576acdf3df319c32d7ea5a7ca87c4aed1895589419e701cf9",
    Strategy.PRINCIPLE: "d8424bbebe544e9eed962fd78dbbfc312203a7fc606c4fa4303288741a4499cb",
    Strategy.LEAD: "1e90d29c4aa654f48462134a49b56445736f61b2c4d3179301ac0bd71576a405",
    Strategy.RANDOM: "39742a0dd44b08ab4ec798bb0b53868ffc411b95ab55869977064c7c15ce42ff",
}


def _corpus() -> bytes:
    rng = random.Random(20211015)
    clusters = [synthetic_cluster(rng, f"syn{i}") for i in range(40)]
    clusters += [long_cluster(rng, f"long{i}") for i in range(6)]
    clusters.append(WILDFIRE_CLUSTER)
    lines = [
        json.dumps({"cluster_id": c.cluster_id, "documents": list(c.documents)})
        for c in clusters
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("strategy", list(GOLDEN_SHA256), ids=lambda s: s.value)
def test_mask_output_digest(strategy):
    sink = io.StringIO()
    config = PipelineConfig(selection=SelectionConfig(strategy=strategy, seed=7))
    report = run_mask(io.BytesIO(_corpus()), sink, config, diagnostics=io.StringIO())
    assert report.processed == 47 and report.skipped == 0
    digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[strategy]
