"""Release gate: one end-to-end check per promised behavior.

Each test prints a single verdict line (bypassing pytest capture, so it
shows up in any log) before asserting, e.g.::

    ACCEPTANCE 3 duplicate-quote divergence: PASS

The expected values for the frozen metric pairs below were produced by
the independent reference implementations in ``oracles.py`` and then
hand-checked; they are inlined so a regression in either implementation
breaks the comparison.  The throughput check is a soft target by
design: a miss prints a profile instead of failing the run.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import random
import time

from pyramid_masker import (
    ClusterScorer,
    PipelineConfig,
    build_pyramid,
    compute_copy_count,
    compute_mask_count,
    extract_entities,
    process_cluster,
    roundtrip_check,
    rouge_l,
    rouge_n,
    run_mask,
    segment_cluster,
)
from pyramid_masker.pyr_eval import weighted_coverage_score
from pyramid_masker.selection import select_entity_pyramid, select_principle

from oracles import entity_pyramid_oracle, pyramid_arithmetic_oracle, rule_pyramid_oracle
from synth import ENTITY_KEYS, QUOTE_KEYS, WILDFIRE_CLUSTER, long_cluster, synthetic_cluster


def report(capsys, number: int, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {number} {label}: {verdict}{tail}")


# ---------------------------------------------------------------------------
# 1. frozen metric pairs

FROZEN_ROUGE_PAIRS = [
    (['the', 'fire', 'burned', 'all', 'night'], ['the', 'fire', 'burned', 'all', 'night'],
     (1.0, 1.0, 1.0),
     (1.0, 1.0, 1.0),
     (1.0, 1.0, 1.0)),
    (['a'], ['a'],
     (1.0, 1.0, 1.0),
     (0.0, 0.0, 0.0),
     (1.0, 1.0, 1.0)),
    (['alpha', 'beta', 'gamma'], ['delta', 'epsilon'],
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0)),
    (['x'], ['y'],
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0)),
    (['a', 'b'], ['b', 'c'],
     (0.5, 0.5, 0.5),
     (0.0, 0.0, 0.0),
     (0.5, 0.5, 0.5)),
    (['a', 'b', 'c'], ['b', 'c', 'd'],
     (0.6666666666666666, 0.6666666666666666, 0.6666666666666666),
     (0.5, 0.5, 0.5),
     (0.6666666666666666, 0.6666666666666666, 0.6666666666666666)),
    (['the', 'cat', 'sat'], ['the', 'cat', 'ran'],
     (0.6666666666666666, 0.6666666666666666, 0.6666666666666666),
     (0.5, 0.5, 0.5),
     (0.6666666666666666, 0.6666666666666666, 0.6666666666666666)),
    (['a', 'a'], ['a'],
     (0.5, 1.0, 0.6666666666666666),
     (0.0, 0.0, 0.0),
     (0.5, 1.0, 0.6666666666666666)),
    (['a'], ['a', 'a'],
     (1.0, 0.5, 0.6666666666666666),
     (0.0, 0.0, 0.0),
     (1.0, 0.5, 0.6666666666666666)),
    (['a', 'a', 'a', 'b'], ['a', 'a', 'b', 'b'],
     (0.75, 0.75, 0.75),
     (0.6666666666666666, 0.6666666666666666, 0.6666666666666666),
     (0.75, 0.75, 0.75)),
    (['x', 'x', 'y', 'y', 'x'], ['x', 'y', 'x'],
     (0.6, 1.0, 0.7499999999999999),
     (0.5, 1.0, 0.6666666666666666),
     (0.6, 1.0, 0.7499999999999999)),
    (['a', 'b', 'a', 'b'], ['a', 'b'],
     (0.5, 1.0, 0.6666666666666666),
     (0.3333333333333333, 1.0, 0.5),
     (0.5, 1.0, 0.6666666666666666)),
    ([], ['a', 'b'],
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0)),
    (['a', 'b'], [],
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0)),
    ([], [],
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0),
     (0.0, 0.0, 0.0)),
    (['a', 'b', 'c', 'd'], ['a', 'c', 'd', 'b'],
     (1.0, 1.0, 1.0),
     (0.3333333333333333, 0.3333333333333333, 0.3333333333333333),
     (0.75, 0.75, 0.75)),
    (['a', 'b', 'c'], ['c', 'b', 'a'],
     (1.0, 1.0, 1.0),
     (0.0, 0.0, 0.0),
     (0.3333333333333333, 0.3333333333333333, 0.3333333333333333)),
    (['a', 'b', 'c', 'd', 'e'], ['b', 'a', 'd', 'c', 'e'],
     (1.0, 1.0, 1.0),
     (0.0, 0.0, 0.0),
     (0.6, 0.6, 0.6)),
    (['p', 'q', 'r', 's'], ['s', 'r', 'q', 'p'],
     (1.0, 1.0, 1.0),
     (0.0, 0.0, 0.0),
     (0.25, 0.25, 0.25)),
    (['a', 'x', 'b', 'y', 'c'], ['a', 'b', 'c'],
     (0.6, 1.0, 0.7499999999999999),
     (0.0, 0.0, 0.0),
     (0.6, 1.0, 0.7499999999999999)),
    (['a', 'b', 'c', 'd', 'e'], ['a', 'b', 'c'],
     (0.6, 1.0, 0.7499999999999999),
     (0.5, 1.0, 0.6666666666666666),
     (0.6, 1.0, 0.7499999999999999)),
    (['c', 'd', 'e'], ['a', 'b', 'c', 'd', 'e'],
     (1.0, 0.6, 0.7499999999999999),
     (1.0, 0.5, 0.6666666666666666),
     (1.0, 0.6, 0.7499999999999999)),
    (['m', 'n'], ['z', 'm', 'n', 'z'],
     (1.0, 0.5, 0.6666666666666666),
     (1.0, 0.3333333333333333, 0.5),
     (1.0, 0.5, 0.6666666666666666)),
    (['crews', 'held', 'the', 'line', 'north', 'of', 'the', 'river', 'overnight'],
     ['the', 'crews', 'held', 'a', 'line', 'near', 'the', 'river', 'through', 'the', 'night'],
     (0.6666666666666666, 0.5454545454545454, 0.6),
     (0.25, 0.2, 0.22222222222222224),
     (0.5555555555555556, 0.45454545454545453, 0.5)),
    (['officials', 'urged', 'residents', 'to', 'leave', 'the', 'canyon', 'area'],
     ['residents', 'were', 'urged', 'by', 'officials', 'to', 'leave', 'the', 'area'],
     (0.875, 0.7777777777777778, 0.823529411764706),
     (0.2857142857142857, 0.25, 0.26666666666666666),
     (0.625, 0.5555555555555556, 0.5882352941176471)),
    (['the', 'storm', 'brought', 'heavy', 'rain', 'and', 'strong', 'wind'],
     ['heavy', 'rain', 'and', 'strong', 'wind', 'hit', 'the', 'coast'],
     (0.75, 0.75, 0.75),
     (0.5714285714285714, 0.5714285714285714, 0.5714285714285714),
     (0.625, 0.625, 0.625)),
    (['fire', 'fire', 'fire', 'spread', 'fast'], ['the', 'fire', 'spread', 'very', 'fast'],
     (0.6, 0.6, 0.6),
     (0.25, 0.25, 0.25),
     (0.6, 0.6, 0.6)),
    (['ridge'], ['crews', 'reached', 'the', 'ridge', 'by', 'noon'],
     (1.0, 0.16666666666666666, 0.2857142857142857),
     (0.0, 0.0, 0.0),
     (1.0, 0.16666666666666666, 0.2857142857142857)),
    (['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'], ['c', 'f'],
     (0.25, 1.0, 0.4),
     (0.0, 0.0, 0.0),
     (0.25, 1.0, 0.4)),
    (['go', 'go', 'go', 'go'], ['go', 'go'],
     (0.5, 1.0, 0.6666666666666666),
     (0.3333333333333333, 1.0, 0.5),
     (0.5, 1.0, 0.6666666666666666)),
]


def test_01_rouge_reference_pairs(capsys):
    started = time.perf_counter()
    bad = []
    for i, (cand, ref, exp1, exp2, expl) in enumerate(FROZEN_ROUGE_PAIRS, 1):
        got = [rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref)]
        for score, expected in zip(got, (exp1, exp2, expl)):
            actual = (score.precision, score.recall, score.f1)
            if any(abs(a - e) > 1e-9 for a, e in zip(actual, expected)):
                bad.append((i, actual, expected))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 1.0
    report(capsys, 1, "rouge reference pairs", ok,
           f"{len(FROZEN_ROUGE_PAIRS) - len(bad)}/{len(FROZEN_ROUGE_PAIRS)} pairs, {elapsed:.2f}s")
    assert ok, bad or f"too slow: {elapsed:.2f}s"


def test_02_entity_selection_vs_brute_force(capsys):
    rng = random.Random(202)
    started = time.perf_counter()
    wrong_pyramids = []
    mismatches = []
    for i in range(1000):
        cluster = synthetic_cluster(rng, f"acc2-{i:04d}")
        sentences = segment_cluster(cluster)
        pyramid = build_pyramid(extract_entities(sentences), len(cluster.documents))
        # The rule pyramid the walk is given, entry by entry, first.
        entries = [(e.entity, e.doc_frequency, e.locations) for e in pyramid]
        if entries != rule_pyramid_oracle(sentences):
            wrong_pyramids.append(cluster.cluster_id)
        m = compute_mask_count(len(sentences), 0.15)
        c = compute_copy_count(len(sentences), m, 0.15)
        scorer = ClusterScorer(sentences)
        result = select_entity_pyramid(sentences, pyramid, m, c, scorer)
        masked, copied, fallback, scores = entity_pyramid_oracle(
            sentences, [e.entity for e in pyramid], m, c, "mean_r1_r2_f1"
        )
        same = (
            list(result.masked) == list(masked)
            and list(result.copied) == list(copied)
            and result.fallback_used == fallback
            and all(abs(result.scores[k] - scores[k]) <= 1e-9 for k in result.scores)
        )
        if not same:
            mismatches.append(cluster.cluster_id)
    elapsed = time.perf_counter() - started
    ok = not wrong_pyramids and not mismatches and elapsed < 60.0
    report(capsys, 2, "entity selection vs brute force", ok,
           f"{1000 - len(wrong_pyramids)}/1000 rule pyramids and "
           f"{1000 - len(mismatches)}/1000 clusters identical, {elapsed:.1f}s")
    assert ok, wrong_pyramids or mismatches or f"too slow: {elapsed:.1f}s"


def test_03_duplicate_quote_divergence(capsys):
    sentences = segment_cluster(WILDFIRE_CLUSTER)
    pyramid = build_pyramid(extract_entities(sentences), len(WILDFIRE_CLUSTER.documents))
    scorer = ClusterScorer(sentences)
    principle = select_principle(sentences, 1, 0, scorer)
    entity = select_entity_pyramid(sentences, pyramid, 1, 0, scorer)
    ok = (
        [e.entity for e in pyramid] == ["colorado"]
        and pyramid[0].doc_frequency == 3
        and set(principle.masked) <= QUOTE_KEYS
        and set(entity.masked) <= ENTITY_KEYS
        and principle.masked != entity.masked
    )
    report(capsys, 3, "duplicate-quote divergence", ok,
           f"principle -> {principle.masked}, entity pyramid -> {entity.masked}")
    assert ok, (principle.masked, entity.masked, pyramid)


def test_04_count_table(capsys):
    expected = {1: (1, 0), 2: (1, 0), 3: (1, 0), 7: (1, 1), 20: (3, 3), 100: (15, 15)}
    got = {}
    for total in expected:
        m = compute_mask_count(total, 0.15)
        got[total] = (m, compute_copy_count(total, m, 0.15))
    ok = got == expected
    report(capsys, 4, "mask/copy count table", ok, f"{got}")
    assert ok, got


def test_05_pipeline_roundtrip_and_limits(capsys):
    rng = random.Random(505)
    config = PipelineConfig()
    failures = []
    emitted = 0
    for i in range(1000):
        if i % 5 == 4:
            tokens = 2000 if i % 10 == 9 else 600
            cluster = long_cluster(rng, f"acc5-{i:04d}", tokens_per_doc=tokens)
        else:
            cluster = synthetic_cluster(rng, f"acc5-{i:04d}")
        try:
            example = process_cluster(cluster, config)
        except Exception as exc:  # any refusal counts against the gate
            failures.append((cluster.cluster_id, f"raised {exc}"))
            continue
        emitted += 1
        if len(example.input_tokens) > 4096:
            failures.append((cluster.cluster_id, "input over limit"))
        if len(example.target_tokens) > 1024:
            failures.append((cluster.cluster_id, "target over limit"))
        verdict = roundtrip_check(example, segment_cluster(cluster), config.mask)
        if not verdict:
            failures.append((cluster.cluster_id, verdict.diagnostic))
    ok = not failures and emitted == 1000
    report(capsys, 5, "pipeline round-trip + token limits", ok,
           f"{emitted}/1000 emitted, {len(failures)} violations")
    assert ok, failures[:5]


def test_06_parallel_determinism(capsys):
    rng = random.Random(606)
    lines = []
    for i in range(10_000):
        cluster = synthetic_cluster(rng, f"acc6-{i:05d}")
        lines.append(json.dumps(
            {"cluster_id": cluster.cluster_id, "documents": list(cluster.documents)}
        ))
    corpus = ("\n".join(lines) + "\n").encode()

    outputs = {}
    counts = {}
    for workers in (1, 4, 16):
        sink = io.StringIO()
        report_ = run_mask(
            io.BytesIO(corpus),
            sink,
            PipelineConfig(workers=workers, progress_every=0),
            diagnostics=io.StringIO(),
        )
        outputs[workers] = sink.getvalue()
        counts[workers] = report_.processed
    ok = (
        outputs[1] == outputs[4] == outputs[16]
        and counts == {1: 10_000, 4: 10_000, 16: 10_000}
    )
    report(capsys, 6, "parallel determinism", ok,
           f"10000 clusters, workers 1/4/16, byte-identical={outputs[1] == outputs[16]}")
    assert ok, counts


def test_07_content_unit_arithmetic(capsys):
    bad = []
    worked = weighted_coverage_score([(3.0, 1.0), (2.0, 0.0), (1.0, 1.0)], 100, 80)
    for got, want in zip(
        (worked.raw, worked.recall, worked.precision, worked.f1),
        (4.0, 0.04, 0.05, 2 * 0.04 * 0.05 / 0.09),
    ):
        if abs(got - want) > 1e-12:
            bad.append(("worked", got, want))

    rng = random.Random(707)
    for i in range(50):
        units = [
            (float(rng.randint(1, 5)), rng.choice([0.0, 1.0, rng.random()]))
            for _ in range(rng.randint(0, 8))
        ]
        gold_len = rng.randint(1, 400)
        sys_len = rng.randint(1, 400)
        score = weighted_coverage_score(units, gold_len, sys_len)
        raw, recall, precision, f1 = pyramid_arithmetic_oracle(units, gold_len, sys_len)
        for got, want in (
            (score.raw, raw), (score.recall, recall),
            (score.precision, precision), (score.f1, f1),
        ):
            if abs(got - want) > 1e-12:
                bad.append((i, got, want))
    ok = not bad
    report(capsys, 7, "content-unit score arithmetic", ok, "worked example + 50 randomized")
    assert ok, bad


def test_08_throughput_soft(capsys):
    """Soft target by definition: a miss is reported with a profile and
    does not fail the gate."""
    rng = random.Random(808)
    lines = []
    for i in range(400):
        cluster = long_cluster(rng, f"acc8-{i:03d}", num_docs=3, tokens_per_doc=600)
        lines.append(json.dumps(
            {"cluster_id": cluster.cluster_id, "documents": list(cluster.documents)}
        ))
    corpus = ("\n".join(lines) + "\n").encode()

    sink = io.StringIO()
    started = time.perf_counter()
    result = run_mask(
        io.BytesIO(corpus),
        sink,
        PipelineConfig(workers=8, progress_every=0),
        diagnostics=io.StringIO(),
    )
    elapsed = time.perf_counter() - started
    rate = result.processed / elapsed
    ok = rate >= 500.0
    report(capsys, 8, "throughput (soft)", ok,
           f"{rate:.0f} clusters/s over {result.processed} clusters; "
           f"target 500/s{'' if ok else '; soft miss, profile below, not a rejection'}")
    assert result.processed == 400
    if not ok:
        profiler = cProfile.Profile()
        clusters = [long_cluster(rng, f"prof-{i}", 3, 600) for i in range(30)]
        config = PipelineConfig()
        profiler.enable()
        for cluster in clusters:
            process_cluster(cluster, config)
        profiler.disable()
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(12)
        with capsys.disabled():
            print("ACCEPTANCE 8 profile (30 clusters, single process):")
            for line in stream.getvalue().splitlines():
                if line.strip():
                    print(f"  {line}")
