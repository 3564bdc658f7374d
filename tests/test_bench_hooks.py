"""The names that the benchmark's traced run patches must exist.

``bench/traced.py`` times each stage by replacing functions where
``pipeline`` and ``selection`` look them up, and clears the program's
caches before each pass.  A rename in the program would otherwise show
only when the benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from pyramid_masker import pipeline, porter, segment, selection

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
