"""The names that the benchmark's traced run patches must exist, and a
patch of each must take.

``bench/traced.py`` times each stage by replacing functions where
``pipeline`` and ``selection`` look them up, and clears the program's
caches before each pass.  A rename in the program, or a name bound
before the patch is made, would otherwise show only when the benchmark
runs."""

from __future__ import annotations

import importlib.util
import io
import json
from collections import Counter
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

import pytest

from pyramid_masker import pipeline, porter, segment, selection
from pyramid_masker.entities import EntitySource
from pyramid_masker.pipeline import PipelineConfig, run_mask
from pyramid_masker.segment import Sentence

from synth import WILDFIRE_CLUSTER

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_traced_run_patches_exists():
    traced = load_traced()
    for name in (*traced.PIPELINE_SPANS, "segment_cluster", "build_pyramid", "load_clusters"):
        assert callable(getattr(pipeline, name, None)), name
    assert callable(pipeline.json.dumps)
    assert callable(selection.ClusterScorer.cluster)
    assert callable(selection.ClusterScorer.principle)
    assert callable(segment._is_punct_char.cache_clear)
    assert callable(porter.stem.cache_clear)


def recorder(calls: Counter, name: str, fn, returned: list | None = None):
    def recorded(*args, **kwargs):
        calls[name] += 1
        result = fn(*args, **kwargs)
        if returned is not None:
            returned.append(result)
        return result

    return recorded


@pytest.mark.parametrize("entity_source", list(EntitySource))
def test_every_patch_the_traced_run_makes_takes(monkeypatch, entity_source):
    """Each patched name is called through its patch in a one-worker run."""
    names = (*load_traced().PIPELINE_SPANS, "segment_cluster", "build_pyramid", "load_clusters")
    calls: Counter = Counter()
    segmented: list = []
    for name in names:
        returned = segmented if name == "segment_cluster" else None
        monkeypatch.setattr(
            pipeline, name, recorder(calls, name, getattr(pipeline, name), returned)
        )
    dumps = recorder(calls, "json", json.dumps)
    monkeypatch.setattr(pipeline, "json", SimpleNamespace(dumps=dumps))
    scorer = recorder(calls, "ClusterScorer", selection.ClusterScorer)
    monkeypatch.setattr(selection, "ClusterScorer", scorer)
    cluster = {
        "cluster_id": WILDFIRE_CLUSTER.cluster_id,
        "documents": list(WILDFIRE_CLUSTER.documents),
        "entities": [{"surface": "Colorado", "doc": d} for d in (0, 1)],
    }
    source = io.BytesIO((json.dumps(cluster) + "\n").encode())
    report = run_mask(
        source, io.StringIO(), PipelineConfig(entity_source=entity_source), io.StringIO()
    )
    assert report.processed == 1
    assert set(calls) == {*names, "json", "ClusterScorer"}
    # The traced run reports len() of this value as the cluster's
    # sentence count (segment.sentences_per_cluster).
    [sentences] = segmented
    assert isinstance(sentences, Sequence)
    assert all(isinstance(s, Sentence) for s in sentences)
    assert len(sentences) == 9  # three sentences in each of three documents
