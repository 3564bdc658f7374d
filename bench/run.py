"""End-to-end and per-stage benchmark of `pyramid-masker mask`.

    python3 bench/run.py --workload long_pyramid --seed 1 --seconds 30 --trace 0

Generates the workload's corpus from the seed, then runs the real
``mask`` command on it as a subprocess, in an environment holding only
PATH and PYTHONPATH (so no PYRAMID_MASKER_WORKERS), from the ``src``
directory next to this one:

* a warm-up launch, then rounds of three launches until ``--seconds``
  have passed: the whole corpus at ``--workers 1`` and at
  ``--workers nproc``, and a corpus holding only the first cluster at
  ``--workers nproc`` (set-up time), all from bench/rounds.py;
* with ``--trace 1``, a separate traced in-process run (bench/traced.py)
  for ``--seconds / 2`` more, which gives the per-stage metrics.

Every output is checked (bench/check.py) and every metric is printed
with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A line before it,
``output_sha256 <hex> workload=<w> seed=<n>``, is the sha256 of the
``--workers 1`` output; compare it across changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
from workloads import WORKLOADS, generate, to_jsonl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "work"

# Every child is killed at this many seconds into the run, so a hung
# program ends the run with an error well within three minutes.
DEADLINE_S = 170
# Clusters whose selection is re-derived by brute force in each run
# (all of them for the lead strategy, which is cheap to re-derive).
SELECTION_SAMPLE = 8

LAYERS = ("ingest", "segment", "entities", "rouge", "selection", "mask", "pipeline")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes


def _run_child(argv: list[str], stdout, deadline: float) -> int:
    """Run a child in its own process group and wait for it; the whole
    group is killed if it is still running at ``deadline``."""
    proc = subprocess.Popen(
        argv, env={"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC)},
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=stdout, start_new_session=True,
    )
    delay = max(0.0, deadline - time.monotonic())
    timer = threading.Timer(delay, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def _child_json(argv: list[str], result: Path, deadline: float, what: str) -> dict:
    with open(result, "wb") as fh:
        code = _run_child(argv, fh, deadline)
    if code != 0:
        raise BenchError(f"{what} exited {code}")
    return json.loads(result.read_bytes().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Checks outputs and counts attempted and failed clusters."""

    def __init__(self, workload, clusters: list[dict], seed: int):
        from pyramid_masker import Sentence, build_pyramid, extract_entities
        from pyramid_masker.porter import stem

        self.workload = workload
        self.clusters = clusters
        self.ids = [c["cluster_id"] for c in clusters]
        self.stem = stem
        self._sentence = Sentence
        self._extract = extract_entities
        self._pyramid = build_pyramid
        self.rng = random.Random(f"check:{workload.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None
        self.records: list[dict] = []

    def rules_pyramid(self, cluster: dict) -> list[str]:
        sentences = [
            self._sentence(cluster["cluster_id"], d, j, text)
            for d, doc in enumerate(cluster["docs"])
            for j, text in enumerate(doc)
        ]
        return [e.entity for e in self._pyramid(self._extract(sentences), len(cluster["docs"]))]

    def launches(self, digests: list[str], clusters: int, label: str) -> None:
        """Count launches over the first ``clusters`` clusters, whose
        outputs must be the reference output's first records."""
        lines = self.reference.splitlines(keepends=True)
        ids = set(self.ids[:clusters])
        emitted = [line for line in lines if json.loads(line)["cluster_id"] in ids]
        expected = hashlib.sha256(b"".join(emitted)).hexdigest()
        for digest in digests:
            self.attempted += clusters
            self.failed += clusters - len(emitted)
            if digest != expected:
                self.problems.append(f"{label} output differs from the --workers 1 output")

    def full(self, output: bytes) -> None:
        """Record-level checks on every cluster, brute-force selection on
        a seeded sample."""
        self.reference = output
        self.records = [json.loads(line) for line in output.splitlines()]
        emitted = [r["cluster_id"] for r in self.records]
        present = set(emitted)
        if emitted != [i for i in self.ids if i in present]:
            self.problems.append("records are not one per emitted cluster in input order")
        by_id = {r["cluster_id"]: r for r in self.records}
        if self.workload.strategy == "lead":
            sample = set(range(len(self.clusters)))
        else:
            annotated = [i for i, c in enumerate(self.clusters) if c["entities"]]
            plain = [i for i, c in enumerate(self.clusters) if not c["entities"]]
            half = SELECTION_SAMPLE // 2 if annotated and plain else SELECTION_SAMPLE
            sample = set(self.rng.sample(annotated, min(half, len(annotated))))
            sample |= set(self.rng.sample(plain, min(SELECTION_SAMPLE - len(sample), len(plain))))
        for i, cluster in enumerate(self.clusters):
            record = by_id.get(cluster["cluster_id"])
            if record is None:
                continue
            try:
                masked, copied = check.read_record(record, cluster, self.workload.strategy)
                if i in sample:
                    check.check_selection(
                        record, cluster, masked, copied, self.workload.strategy,
                        self.stem, self.rules_pyramid,
                    )
            except check.CheckFailure as exc:
                self.problems.append(str(exc))


# ---------------------------------------------------------------------------
# per-layer metrics from the trace


def trace_metrics(
    spans_path: Path, result: dict, clusters: list[dict], records: list[dict]
) -> dict:
    """Per-layer metrics from the traced passes' spans and the output.

    Every span must lie inside its parent and every chain must end at a
    ``run`` span, so the self times of all spans add up to the traced
    wall time; the ``run`` spans' own self time is the unattributed part.
    """
    with open(spans_path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    self_ns = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent < 0:
            if name != "run":
                raise BenchError(f"span {name} lies outside every traced run")
            continue
        _, p_start, p_end, _, _, _ = spans[parent]
        if start < p_start or end > p_end:
            raise BenchError(f"span {name} lies outside its parent {spans[parent][0]}")
        self_ns[parent] -= end - start
    by_name: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, *_), own in zip(spans, self_ns):
        by_name[name] = by_name.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
    per_cluster = len(clusters) * len(result["traced_s"])
    if calls.get("segment") != per_cluster:
        raise BenchError(f"{calls.get('segment')} segment spans for {per_cluster} traced clusters")
    wall_ns = sum(end - start for name, start, end, *_ in spans if name == "run")

    def busy_us(*names: str) -> float:
        return sum(by_name.get(n, 0) for n in names) / per_cluster / 1000.0

    layer_us = {
        layer: busy_us(*[n for n in by_name if n.split(".")[0] == layer]) for layer in LAYERS
    }

    entries = unmatched = 0
    docs = {c["cluster_id"]: c["docs"] for c in clusters}
    for cluster_id, pyramid in result["pyramids"]:
        for entity in pyramid:
            entries += 1
            sentences = (s for doc in docs[cluster_id] for s in doc)
            if not any(check.contains_at_boundaries(s, entity) for s in sentences):
                unmatched += 1
    masked_chosen = sum(
        r["input"].count(check.SENT_MASK) + r["meta"]["dropped_masked"] for r in records
    )
    dropped = sum(r["meta"]["dropped_masked"] for r in records)
    hits, misses = result["porter_hits"], result["porter_misses"]
    # Passes alternate untraced and traced; comparing each traced pass with
    # the untraced one just before it cancels the machine's slower drifts.
    overhead = statistics.median(
        1.0 - u / t for u, t in zip(result["untraced_s"], result["traced_s"])
    )
    metrics = {
        "ingest.busy_us_per_cluster": (layer_us["ingest"], "us"),
        "segment.busy_us_per_cluster": (layer_us["segment"], "us"),
        "segment.sentences_per_cluster": (result["sentences"] / len(clusters), "count"),
        "porter.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "entities.busy_us_per_cluster": (layer_us["entities"], "us"),
        "entities.pyramid_entries_per_cluster": (entries / len(clusters), "count"),
        "entities.unmatched_share": (unmatched / entries if entries else 0.0, "ratio"),
        "rouge.busy_us_per_cluster": (layer_us["rouge"], "us"),
        "rouge.scorer_build_us_per_cluster": (busy_us("rouge.scorer_build"), "us"),
        "rouge.cluster_calls_per_cluster": (calls.get("rouge.cluster", 0) / per_cluster, "count"),
        "rouge.principle_calls_per_cluster": (
            calls.get("rouge.principle", 0) / per_cluster, "count"),
        "selection.busy_us_per_cluster": (layer_us["selection"], "us"),
        "selection.fallback_share": (
            sum(r["meta"]["fallback_used"] for r in records) / len(records), "ratio"),
        "mask.busy_us_per_cluster": (layer_us["mask"], "us"),
        "mask.dropped_masked_share": (dropped / masked_chosen if masked_chosen else 0.0, "ratio"),
        "pipeline.serialize_us_per_cluster": (
            busy_us("pipeline.record", "pipeline.dumps"), "us"),
        "trace.overhead_share": (overhead, "ratio"),
        "trace.unattributed_share": (by_name["run"] / wall_ns, "ratio"),
    }
    return metrics


# ---------------------------------------------------------------------------
# the run


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:40s} {value:14.6g} {unit}{'  ' + note if note else ''}")


def _print_digest(output: bytes, workload: str, seed: int) -> None:
    print(f"output_sha256 {hashlib.sha256(output).hexdigest()} workload={workload} seed={seed}")


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    clusters = generate(workload, args.seed)
    corpus = work / "corpus.jsonl"
    corpus.write_bytes(to_jsonl(clusters))
    first = work / "first-cluster.jsonl"
    first.write_bytes(to_jsonl(clusters[:1]))
    nproc = len(os.sched_getaffinity(0))

    rounds = _child_json(
        [
            sys.executable, str(ROOT / "bench" / "rounds.py"), "--corpus", str(corpus),
            "--first", str(first), "--out-dir", str(work), "--seconds", str(args.seconds),
            "--workers-par", str(nproc), "--", *workload.flags,
        ],
        work / "rounds.result", deadline, "timed mask launches",
    )
    reference = (work / "serial.jsonl").read_bytes()
    _print_digest(reference, workload.name, args.seed)

    checker = Checker(workload, clusters, args.seed)
    checker.full(reference)
    checker.launches([r["sha256"] for r in rounds["setup"]], 1, "first-cluster")
    checker.launches([r["sha256"] for r in rounds["serial"]], len(clusters), "--workers 1")
    checker.launches([r["sha256"] for r in rounds["parallel"]], len(clusters), f"--workers {nproc}")

    serial, parallel, setup = rounds["serial"], rounds["parallel"], rounds["setup"]
    # Rates are total clusters over total wall time across the rounds: the
    # machine runs in spells up to ~1.5x slower, and a mean over the run
    # moves less with how many rounds fell into them than a median does.
    rate = len(clusters) * len(serial) / sum(r["wall_s"] for r in serial)
    rate_par = len(clusters) * len(parallel) / sum(r["wall_s"] for r in parallel)
    metrics = {
        "clusters_per_s": (rate, "clusters/s"),
        "clusters_per_s_par": (rate_par, "clusters/s"),
        "peak_rss_mib": (statistics.median(r["maxrss_kib"] for r in serial) / 1024.0, "MiB"),
        "setup_s": (statistics.median(r["wall_s"] for r in setup), "s"),
    }
    notes = {
        "clusters_per_s": f"over {len(serial)} rounds at --workers 1",
        "clusters_per_s_par": f"over {len(parallel)} rounds at --workers {nproc}",
        "peak_rss_mib": "median over the --workers 1 rounds",
        "setup_s": f"median of {len(setup)} one-cluster launches at --workers {nproc}",
    }
    print(f"workload {workload.name} seed {args.seed} clusters {len(clusters)} nproc {nproc}")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit, notes[name])

    if args.trace:
        spans = work / "spans.jsonl"
        traced_out = work / "traced.jsonl"
        result = _child_json(
            [
                sys.executable, str(ROOT / "bench" / "traced.py"),
                "--corpus", str(corpus), "--output", str(traced_out), "--spans", str(spans),
                "--seconds", str(args.seconds / 2), *workload.flags,
            ],
            work / "traced.result", deadline, "traced run",
        )
        passes = len(result["untraced_s"]) + len(result["traced_s"])
        checker.attempted += passes * len(clusters)
        checker.failed += result["skipped"]
        if traced_out.read_bytes() != reference:
            checker.problems.append("traced output differs from the --workers 1 output")
        metrics = trace_metrics(spans, result, clusters, checker.records)
        metrics["pipeline.par_efficiency"] = (rate_par / (nproc * rate), "ratio")
        print(f"per-layer metrics from {len(result['traced_s'])} traced passes:")
        for name, (value, unit) in metrics.items():
            _print_metric(name, value, unit)

    print(f"attempted {checker.attempted} failed {checker.failed}")
    for problem in checker.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"checks {'passed' if not checker.problems else 'FAILED'}")
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark pyramid-masker mask.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pyramid_masker" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'pyramid_masker'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
