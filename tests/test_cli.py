"""Command-line behavior: flags, config precedence, exit codes, stream purity."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pyramid_masker
from pyramid_masker import ClusterScorer, SelectionConfig, cli, pipeline, segment_cluster
from pyramid_masker.cli import SETTINGS, _build_pipeline_config, build_parser, main
from pyramid_masker.pipeline import PipelineConfig

from synth import WILDFIRE_CLUSTER, synthetic_cluster


def cluster_line(cluster) -> str:
    return json.dumps({"cluster_id": cluster.cluster_id, "documents": list(cluster.documents)})


@pytest.fixture
def corpus_path(tmp_path):
    rng = random.Random(0)
    lines = [cluster_line(WILDFIRE_CLUSTER)]
    for i in range(4):
        lines.append(cluster_line(synthetic_cluster(rng, f"c{i}")))
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def multichunk_corpus_path(tmp_path):
    """A corpus of three chunks, so that ``--workers 2`` starts a pool."""
    rng = random.Random(0)
    count = 2 * pipeline.CHUNK_SIZE + 1
    lines = [cluster_line(synthetic_cluster(rng, f"c{i}")) for i in range(count)]
    path = tmp_path / "multichunk.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def events_of(stderr: str) -> list[dict]:
    out = []
    for line in stderr.splitlines():
        if line.startswith("{"):
            out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# mask


def test_mask_to_file(corpus_path, tmp_path, capsys):
    out_path = tmp_path / "out.jsonl"
    code = main(["mask", "--input", str(corpus_path), "--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""  # data went to the file, not stdout
    records = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert [r["cluster_id"] for r in records] == ["wildfire", "c0", "c1", "c2", "c3"]
    summary = events_of(captured.err)[-1]
    assert summary["event"] == "summary" and summary["processed"] == 5


@pytest.mark.parametrize("route", ["path", "stdin", "symlink", "hard-link"])
def test_mask_refuses_to_write_over_its_input(tmp_path, monkeypatch, capsys, route):
    """An ``--output`` that is the input file, named by its path, read
    through stdin, or reached by a symlink or a hard link, ends as one
    ``fatal`` line, and the file keeps its bytes."""
    rng = random.Random(3)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(cluster_line(synthetic_cluster(rng, f"c{i}")) + "\n" for i in range(3)))
    before = corpus.read_bytes()
    source, output = str(corpus), corpus
    if route == "stdin":
        stdin = open(corpus, encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        source = "-"
    elif route == "symlink":
        output = tmp_path / "link.jsonl"
        output.symlink_to(corpus)
    elif route == "hard-link":
        output = tmp_path / "hard.jsonl"
        os.link(corpus, output)
    try:
        code = main(["mask", "--input", source, "--output", str(output), "--strategy", "lead"])
    finally:
        if route == "stdin":
            stdin.close()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = events_of(captured.err)
    assert [e["event"] for e in events] == ["fatal"]
    assert str(output) in events[0]["reason"]
    assert corpus.read_bytes() == before


def test_mask_writes_over_another_existing_file(corpus_path, tmp_path, capsys):
    out_path = tmp_path / "out.jsonl"
    out_path.write_text("stale\n")
    assert main(["mask", "--input", str(corpus_path), "--output", str(out_path)]) == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["cluster_id"] for r in records] == ["wildfire", "c0", "c1", "c2", "c3"]


def test_mask_stdout_holds_only_records(corpus_path, capsys):
    code = main(["mask", "--input", str(corpus_path)])
    captured = capsys.readouterr()
    assert code == 0
    for line in captured.out.splitlines():
        record = json.loads(line)
        assert {"cluster_id", "input", "global_attention", "target", "meta"} <= set(record)
    for event in events_of(captured.err):
        assert "event" in event


def test_mask_empty_corpus_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["mask", "--input", str(empty)]) == 2


def test_mask_missing_input_is_fatal(tmp_path, capsys):
    code = main(["mask", "--input", str(tmp_path / "nope.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert events_of(captured.err)[-1]["event"] == "fatal"


@pytest.mark.parametrize("workers", [1, 2])
def test_mask_bug_is_fatal_not_a_skip(multichunk_corpus_path, monkeypatch, capsys, workers):
    """A ValueError from a fault in the program ends the run with one
    fatal JSON line and exit 1; it is not reported as a skipped
    cluster.  Worker processes are forked, so they see the patch."""

    def broken(*args, **kwargs):
        raise ValueError("selection fault")

    monkeypatch.setattr(pipeline, "select_sentences", broken)
    code = main(["mask", "--input", str(multichunk_corpus_path), "--workers", str(workers)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [e["event"] for e in events] == ["fatal"]
    assert events[0]["reason"] == "internal error: ValueError: selection fault"
    assert "broken" in events[0]["traceback"]


@pytest.mark.parametrize("workers", [1, 2])
def test_mask_interrupt_is_fatal(multichunk_corpus_path, monkeypatch, capsys, workers):
    """Ctrl-C during a run ends it with one fatal line and exit 1."""

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "select_sentences", interrupted)
    try:
        code = main(["mask", "--input", str(multichunk_corpus_path), "--workers", str(workers)])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert events == [{"event": "fatal", "reason": "interrupted"}]


def strict_runs(path, capsys, *flags: str) -> list[tuple]:
    """(exit code, stdout, stderr events) of ``mask --strict`` at workers 1 and 2."""
    runs = []
    for workers in (1, 2):
        code = main(["mask", "--input", str(path), "--strict", "--workers", str(workers), *flags])
        captured = capsys.readouterr()
        runs.append((code, captured.out, [json.loads(line) for line in captured.err.splitlines()]))
    return runs


def insert_line(path, index: int, line: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(index, line + "\n")
    path.write_text("".join(lines))


def test_strict_bad_line_past_the_first_chunk(multichunk_corpus_path, capsys):
    """Under --strict the records above the first bad line are written,
    then one fatal line, whether or not a pool reads ahead of it."""
    insert_line(multichunk_corpus_path, 36, "not json")
    serial, parallel = strict_runs(multichunk_corpus_path, capsys)
    assert parallel == serial
    code, out, events = serial
    assert code == 1
    assert [json.loads(line)["cluster_id"] for line in out.splitlines()] == [
        f"c{i}" for i in range(36)
    ]
    assert [e["event"] for e in events] == ["fatal"]
    assert events[0]["reason"].startswith("line 37: ")


def test_strict_skip_prints_the_clusters_events_first(multichunk_corpus_path, capsys):
    """A cluster skipped under --strict prints its own events, then the
    fatal line in place of its cluster_skipped."""
    special = {
        "cluster_id": "special",
        "documents": ["Alpha beta. The <doc-sep> token. Gamma."],
        "entities": [{"surface": "Zed", "doc": 0}],
    }
    insert_line(multichunk_corpus_path, 40, json.dumps(special))
    serial, parallel = strict_runs(multichunk_corpus_path, capsys, "--entities", "provided")
    assert parallel == serial
    code, out, events = serial
    assert code == 1
    assert len(out.splitlines()) == 40
    assert [e["event"] for e in events] == ["entity_dropped", "fatal"]
    assert events[0]["cluster_id"] == "special"
    assert events[1]["reason"].startswith("cluster 'special': ")


def sole_skip_reason(tmp_path, capsys, cluster: dict, *flags: str) -> str:
    """Mask a corpus of one cluster that cannot make an example; return
    the skip reason after checking that the run ended cleanly with exit
    2, one ``cluster_skipped`` line and the summary."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(cluster) + "\n")
    code = main(["mask", "--input", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [e["event"] for e in events] == ["cluster_skipped", "summary"]
    assert events[1]["skipped"] == 1 and events[1]["processed"] == 0
    return events[0]["reason"]


def test_more_documents_than_input_tokens_is_a_skip(tmp_path, capsys):
    cluster = {"cluster_id": "six", "documents": [f"Doc {i} said so." for i in range(6)]}
    reason = sole_skip_reason(tmp_path, capsys, cluster, "--input-token-limit", "4")
    assert reason.startswith("cluster untruncatable: ")


def test_oversized_sentence_is_a_skip(tmp_path, capsys):
    """The 100,000-token sentence wins the mask, then truncation cuts it,
    which leaves the target empty: selection runs before truncation."""
    huge = " ".join(["word"] * 100_000) + "."
    cluster = {"cluster_id": "huge", "documents": [huge, "A short one."]}
    reason = sole_skip_reason(tmp_path, capsys, cluster)
    assert reason == "empty target: every masked sentence was truncated away"


def crash_worker(clusters, config):
    """Stands in for ``pipeline._process_chunk``: the worker process dies."""
    os._exit(3)


PROCESS_CHUNK = pipeline._process_chunk


def crash_on_c40(clusters, config):
    """Stands in for ``pipeline._process_chunk``: the worker process dies
    on the chunk holding cluster ``c40``, after a pause that lets the
    other worker finish the first chunk."""
    if any(cluster.cluster_id == "c40" for cluster, _ in clusters):
        time.sleep(0.5)
        os._exit(3)
    return PROCESS_CHUNK(clusters, config)


def test_mask_worker_crash_is_fatal(multichunk_corpus_path, monkeypatch, capsys):
    """A dead worker ends the run as one ``fatal`` line without a
    traceback, naming the first cluster whose record was not written."""
    monkeypatch.setattr(pipeline, "_process_chunk", crash_worker)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    code = main(["mask", "--input", str(multichunk_corpus_path), "--workers", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert events == [
        {
            "event": "fatal",
            "reason": "the run stopped before cluster 'c0': a worker process ended abruptly",
        }
    ]


def test_mask_worker_crash_keeps_the_records_before_it(
    multichunk_corpus_path, monkeypatch, capsys
):
    """When the worker holding a later chunk dies, stdout holds exactly
    the records of the clusters before the one the ``fatal`` line names.
    Which cluster that is depends on whether the first chunk was done
    when the pool broke."""
    monkeypatch.setattr(pipeline, "_process_chunk", crash_on_c40)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    code = main(["mask", "--input", str(multichunk_corpus_path), "--workers", "2"])
    captured = capsys.readouterr()
    assert code == 1
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [e["event"] for e in events] == ["fatal"]
    assert "traceback" not in events[0]
    written = [json.loads(line)["cluster_id"] for line in captured.out.splitlines()]
    named = re.fullmatch(r"the run stopped before cluster '(c\d+)': .*", events[0]["reason"])
    assert named and named[1] in ("c0", "c32")
    assert written == [f"c{i}" for i in range(int(named[1][1:]))]


def test_mask_strategy_flag(corpus_path, capsys):
    code = main(["mask", "--input", str(corpus_path), "--strategy", "lead"])
    captured = capsys.readouterr()
    assert code == 0
    for line in captured.out.splitlines():
        assert json.loads(line)["meta"]["strategy"] == "lead"


def test_mask_emit_text(corpus_path, capsys):
    main(["mask", "--input", str(corpus_path), "--emit-text"])
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["input_text"] == " ".join(record["input"])


def test_mask_no_lead_sep(corpus_path, capsys):
    main(["mask", "--input", str(corpus_path), "--no-lead-sep"])
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["input"][0] != "<doc-sep>"
    assert len(record["global_attention"]) == 2  # three documents, two separators


def test_mask_custom_tokens(corpus_path, capsys):
    main(
        [
            "mask",
            "--input",
            str(corpus_path),
            "--doc-sep-token",
            "<D>",
            "--sent-mask-token",
            "<G>",
        ]
    )
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["input"][0] == "<D>"
    assert "<G>" in record["input"]


def test_mask_seed_changes_random_strategy(corpus_path, capsys):
    main(["mask", "--input", str(corpus_path), "--strategy", "random", "--seed", "1"])
    first = capsys.readouterr().out
    main(["mask", "--input", str(corpus_path), "--strategy", "random", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


# ---------------------------------------------------------------------------
# config file


def test_config_file_supplies_defaults(corpus_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "lead", "emit-text": True}))
    code = main(["mask", "--input", str(corpus_path), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    record = json.loads(captured.out.splitlines()[0])
    assert record["meta"]["strategy"] == "lead"
    assert "input_text" in record


def test_flags_beat_config_file(corpus_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "lead"}))
    main(["mask", "--input", str(corpus_path), "--config", str(cfg), "--strategy", "principle"])
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["meta"]["strategy"] == "principle"


@pytest.mark.parametrize(
    "given",
    [
        pytest.param(["--workers", "100000"], id="flag"),
        pytest.param({"workers": 1e300}, id="config"),
    ],
)
def test_worker_count_is_bounded_by_usable_cpus(tmp_path, monkeypatch, capsys, given):
    """A worker count past the usable CPUs, from a flag or the config
    file, gets a pool of the usable CPUs, or no pool when one CPU is
    usable, and the output of one worker.  Threads stand in for the
    worker processes."""
    rng = random.Random(0)
    corpus = tmp_path / "corpus.jsonl"
    lines = [cluster_line(synthetic_cluster(rng, f"c{i}")) + "\n" for i in range(40)]
    corpus.write_text("".join(lines))
    argv = ["mask", "--input", str(corpus)]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    if isinstance(given, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given))
        given = ["--config", str(cfg)]
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for cpus, pools in ((3, [3]), (1, [])):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        sizes.clear()
        assert main([*argv, *given]) == 0
        assert sizes == pools
        assert capsys.readouterr().out == serial


def test_unknown_config_key_is_fatal(corpus_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strateggy": "lead"}))
    code = main(["mask", "--input", str(corpus_path), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "strateggy" in events_of(captured.err)[-1]["reason"]


def test_bad_strategy_value_is_fatal(corpus_path, capsys):
    cfg_error = main(["mask", "--input", str(corpus_path), "--mask-ratio", "0"])
    assert cfg_error == 1


def test_negative_progress_every_is_fatal(corpus_path, capsys):
    code = main(["mask", "--input", str(corpus_path), "--progress-every", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = events_of(captured.err)
    assert [e["event"] for e in events] == ["fatal"]
    assert "progress_every" in events[0]["reason"]


def test_no_settings_build_the_dataclass_defaults():
    assert _build_pipeline_config(build_parser().parse_args(["mask"])) == PipelineConfig()


PACKAGED_ABBREVIATIONS = str(resources.files("pyramid_masker.resources") / "abbreviations.txt")

# One non-default value for every mask setting: its flag arguments, and
# the config-file value that must mean the same.
SETTING_VALUES = {
    "strategy": (["--strategy", "lead"], "lead"),
    "mask_ratio": (["--mask-ratio", "0.3"], 0.3),
    "copy_ratio": (["--copy-ratio", "0.2"], 0.2),
    "salience_variant": (["--salience-variant", "r1_f1"], "r1_f1"),
    "seed": (["--seed", "7"], 7),
    "entities": (["--entities", "provided"], "provided"),
    "input_token_limit": (["--input-token-limit", "100"], 100),
    "output_token_limit": (["--output-token-limit", "50"], 50),
    "doc_sep_token": (["--doc-sep-token", "<D>"], "<D>"),
    "sent_mask_token": (["--sent-mask-token", "<G>"], "<G>"),
    "no_lead_sep": (["--no-lead-sep"], True),
    "no_lowercase": (["--no-lowercase"], True),
    "no_strip_punctuation": (["--no-strip-punctuation"], True),
    "stemming": (["--stemming", "none"], "none"),
    "workers": (["--workers", "2"], 2),
    "strict": (["--strict"], True),
    "emit_text": (["--emit-text"], True),
    "progress_every": (["--progress-every", "10"], 10),
    "abbreviations": (["--abbreviations", PACKAGED_ABBREVIATIONS], PACKAGED_ABBREVIATIONS),
}


def test_each_setting_means_the_same_as_flag_and_config_key(tmp_path):
    parser = build_parser()
    keys = set(vars(parser.parse_args(["mask"]))) - {"command", "func", "input", "output", "config"}
    assert keys == set(SETTING_VALUES)
    for key, (argv, value) in SETTING_VALUES.items():
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: value}))
        from_flag = _build_pipeline_config(parser.parse_args(["mask", *argv]))
        from_file = _build_pipeline_config(parser.parse_args(["mask", "--config", str(cfg)]))
        assert from_flag == from_file != PipelineConfig(), key


def test_setting_flags_are_unique():
    flags = [s.flag for s in SETTINGS]
    assert len(flags) == len(set(flags))


def test_setting_targets_are_unique_dataclass_fields():
    targets = [(s.config, s.field) for s in SETTINGS]
    assert len(targets) == len(set(targets))
    for config, name in targets:
        assert name in {f.name for f in dataclasses.fields(config)}, (config, name)


def test_attention_window_flag_is_gone(capsys):
    """A bad command line is one ``fatal`` line naming what was wrong, with
    exit 1, as a bad value in a config file is; ``--help`` still exits 0."""
    for argv, named in [
        (["mask", "--attention-window", "512"], "--attention-window"),
        (["mask", "--strategy", "bogus"], "--strategy"),
        (["mask", "--mask-ratio", "abc"], "--mask-ratio"),
        (["stats", "--bogus"], "--bogus"),
        (["bogus"], "'bogus'"),
    ]:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert [e["event"] for e in events] == ["fatal"], argv
        assert named in events[0]["reason"] and "traceback" not in events[0], argv
    with pytest.raises(SystemExit) as exc:
        main(["mask", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"seed": null}', "'seed'"),
        ('{"mask_ratio": null}', "'mask_ratio'"),
        ('{"no_lowercase": "false"}', "'no_lowercase'"),
        ('{"strict": "no"}', "'strict'"),
        ('{"workers": true}', "'workers'"),
        ('{"seed": 1.9}', "'seed'"),
        pytest.param(
            '{"mask_ratio": 1%s}' % ("0" * 400), "key 'mask_ratio' must be a number", id="overflow"
        ),
        ('{"attention_window": 512}', "unknown config key 'attention_window'"),
        ('{"seed": 1', "not valid JSON"),
        pytest.param("[" * 100_000, "not valid JSON", id="nested"),
        pytest.param('{"doc_sep_token": "\\ud800"}', "'doc_sep_token'", id="surrogate"),
        ("[1]", "must hold a JSON object"),
        ('{"seed": [1]}', "'seed'"),
        ('{"doc_sep_token": {"a": 1}}', "'doc_sep_token'"),
    ],
)
def test_bad_config_file_value_is_fatal(corpus_path, tmp_path, capsys, text, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["mask", "--input", str(corpus_path), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    fatal = json.loads(captured.err.splitlines()[-1])
    assert fatal["event"] == "fatal" and named in fatal["reason"]


# ---------------------------------------------------------------------------
# stats


def test_stats_output(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"cluster_id": "a", "documents": ["a b c"], "summary": "s"})
        + "\n"
        + json.dumps({"cluster_id": "b", "documents": ["d e", "f"]})
        + "\n"
    )
    code = main(["stats", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == {
        "example_count": 2,
        "mean_docs_per_cluster": 1.5,
        "mean_source_length": 3.0,
        "mean_summary_length": 1.0,
        "length_unit": "whitespace_tokens",
    }


def test_stats_reports_bad_lines(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text('{broken\n' + json.dumps({"cluster_id": "a", "documents": ["x"]}) + "\n")
    code = main(["stats", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["example_count"] == 1
    assert events_of(captured.err)[0]["event"] == "record_error"


@pytest.mark.parametrize("text", ["", "{broken\n[1, 2]\n"], ids=["empty", "only-bad-lines"])
def test_stats_without_clusters_exits_2(tmp_path, capsys, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text)
    code = main(["stats", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"example_count": 0}
    assert [e["event"] for e in events_of(captured.err)] == ["record_error"] * text.count("\n")


def test_stats_strict_is_fatal(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text("{broken\n")
    assert main(["stats", "--input", str(path), "--strict"]) == 1


# ---------------------------------------------------------------------------
# score-sentence


def test_score_sentence_first_cluster(corpus_path, capsys):
    code = main(["score-sentence", "--input", str(corpus_path)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["cluster_id"] == "wildfire"
    assert payload["salience_variant"] == "mean_r1_r2_f1"
    sentences = segment_cluster(WILDFIRE_CLUSTER)
    scorer = ClusterScorer(sentences)
    by_key = {(row["doc"], row["sent"]): row for row in payload["sentences"]}
    for s in sentences:
        row = by_key[s.key]
        assert row["principle"] == scorer.principle(s)
        assert row["cluster_rouge"] == scorer.cluster(s)


def test_score_sentence_default_variant_is_the_selection_default(corpus_path, capsys):
    code = main(["score-sentence", "--input", str(corpus_path)])
    assert code == 0
    variant = SelectionConfig().variant
    payload = json.loads(capsys.readouterr().out)
    assert payload["salience_variant"] == variant.value
    sentences = segment_cluster(WILDFIRE_CLUSTER)
    scorer = ClusterScorer(sentences, variant)
    rows = payload["sentences"]
    assert [row["cluster_rouge"] for row in rows] == [scorer.cluster(s) for s in sentences]


def test_score_sentence_builds_one_profile_per_sentence(corpus_path, capsys, monkeypatch):
    profiles = []
    build = ClusterScorer._profile

    def counted(self, start, end):
        profiles.append((start, end))
        return build(self, start, end)

    monkeypatch.setattr(ClusterScorer, "_profile", counted)
    assert main(["score-sentence", "--input", str(corpus_path)]) == 0
    rows = json.loads(capsys.readouterr().out)["sentences"]
    assert len(rows) == len(segment_cluster(WILDFIRE_CLUSTER))
    assert len(profiles) == len(set(profiles)) == len(rows)


def test_score_sentence_empty_abbreviations_is_fatal(corpus_path, capsys):
    code = main(["score-sentence", "--input", str(corpus_path), "--abbreviations", ""])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [e["event"] for e in events] == ["fatal"]


def test_score_sentence_selects_cluster(corpus_path, capsys):
    code = main(["score-sentence", "--input", str(corpus_path), "--cluster-id", "c2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["cluster_id"] == "c2"


def test_score_sentence_reports_bad_lines(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text("not json\n" + cluster_line(WILDFIRE_CLUSTER) + "\n")
    code = main(["score-sentence", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["cluster_id"] == "wildfire"
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [(e["event"], e["line"]) for e in events] == [("record_error", 1)]


def test_score_sentence_missing_cluster(corpus_path, capsys):
    code = main(["score-sentence", "--input", str(corpus_path), "--cluster-id", "zzz"])
    captured = capsys.readouterr()
    assert code == 1
    assert events_of(captured.err)[-1]["event"] == "fatal"


# ---------------------------------------------------------------------------
# eval-pyramid


def eval_record(summary_id="s1", **overrides):
    record = {
        "summary_id": summary_id,
        "gold_len": 100,
        "sys_len": 80,
        "scus": [
            {"id": "u1", "weight": 3, "covered": True},
            {"id": "u2", "weight": 2, "covered": False},
            {"id": "u3", "weight": 1, "covered": True},
        ],
    }
    record.update(overrides)
    return record


def test_eval_pyramid_worked_example(tmp_path, capsys):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(eval_record()) + "\n")
    code = main(["eval-pyramid", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    (row,) = payload["summaries"]
    assert row["summary_id"] == "s1"
    assert row["raw"] == 4.0
    assert row["recall"] == pytest.approx(0.04)
    assert row["precision"] == pytest.approx(0.05)
    assert row["f1"] == pytest.approx(0.0444444444, abs=1e-9)
    assert payload["mean"]["f1"] == row["f1"]


def test_eval_pyramid_majority_flag(tmp_path, capsys):
    record = eval_record(scus=[{"id": "u", "weight": 2, "covered": [True, False]}])
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(record) + "\n")
    main(["eval-pyramid", "--input", str(path), "--aggregation", "majority"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["summaries"][0]["raw"] == 0.0


def test_eval_pyramid_len_unit_chars(tmp_path, capsys):
    record = eval_record()
    del record["gold_len"], record["sys_len"]
    record["gold_text"] = "ab cd"
    record["sys_text"] = "efgh"
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(record) + "\n")
    main(["eval-pyramid", "--input", str(path), "--len-unit", "chars"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["summaries"][0]["recall"] == pytest.approx(4 / 5)
    assert payload["summaries"][0]["precision"] == pytest.approx(4 / 4)


def test_eval_pyramid_skips_bad_lines(tmp_path, capsys):
    path = tmp_path / "ann.jsonl"
    path.write_text("{broken\n" + json.dumps(eval_record()) + "\n")
    code = main(["eval-pyramid", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert len(json.loads(captured.out)["summaries"]) == 1
    assert events_of(captured.err)[0]["event"] == "record_error"


def test_eval_pyramid_nothing_scored_exits_2(tmp_path, capsys):
    path = tmp_path / "ann.jsonl"
    path.write_text("{broken\n")
    code = main(["eval-pyramid", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"summaries": [], "mean": None}


def test_eval_pyramid_strict(tmp_path, capsys):
    path = tmp_path / "ann.jsonl"
    path.write_text("{broken\n")
    assert main(["eval-pyramid", "--input", str(path), "--strict"]) == 1


def test_eval_pyramid_reports_non_object_line(tmp_path, capsys):
    path = tmp_path / "ann.jsonl"
    path.write_text("[1,2]\n" + json.dumps(eval_record()) + "\n")
    code = main(["eval-pyramid", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert len(json.loads(captured.out)["summaries"]) == 1
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [(e["event"], e["line"]) for e in events] == [("record_error", 1)]


def _refuse(constant):
    raise ValueError(f"not RFC 8259 JSON: {constant}")


def test_eval_pyramid_output_is_strict_json_when_a_score_would_overflow(tmp_path, capsys):
    big = 10**308
    two = [{"id": "u", "weight": big, "covered": True}, {"id": "v", "weight": big, "covered": True}]
    records = [
        eval_record("two", gold_len=1, sys_len=1, scus=two),
        eval_record("one", gold_len=1, sys_len=1, scus=two[:1]),
        eval_record("mean1", gold_len=big, sys_len=big, scus=two[:1]),
        eval_record("mean2", gold_len=big, sys_len=big, scus=two[:1]),
        eval_record("ok"),
    ]
    path = tmp_path / "ann.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main(["eval-pyramid", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out, parse_constant=_refuse)
    assert [row["summary_id"] for row in payload["summaries"]] == ["ok"]
    assert [(e["event"], e["line"]) for e in events_of(captured.err)] == [
        ("record_error", n) for n in (1, 2, 3, 4)
    ]


# ---------------------------------------------------------------------------
# inspect


def test_inspect_renders_record(corpus_path, tmp_path, capsys):
    out_path = tmp_path / "out.jsonl"
    main(["mask", "--input", str(corpus_path), "--output", str(out_path)])
    capsys.readouterr()
    code = main(["inspect", "--input", str(out_path), "--cluster-id", "wildfire"])
    captured = capsys.readouterr()
    assert code == 0
    assert "cluster_id        wildfire" in captured.out
    assert "[sent-mask]" in captured.out
    assert "scores:" in captured.out


def test_inspect_missing_record(tmp_path, capsys):
    path = tmp_path / "out.jsonl"
    path.write_text("")
    assert main(["inspect", "--input", str(path)]) == 1


def test_inspect_reports_non_object_line(tmp_path, capsys):
    record = {"cluster_id": "x", "input": ["<doc-sep>", "[sent-mask]"], "target": ["Hi."]}
    path = tmp_path / "out.jsonl"
    path.write_text("[1,2]\n" + json.dumps(record) + "\n")
    code = main(["inspect", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "cluster_id        x" in captured.out
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [(e["event"], e["line"]) for e in events] == [("record_error", 1)]


INSPECT_RECORD = {"cluster_id": "x", "input": ["<doc-sep>", "[sent-mask]"], "target": ["Hi."]}


@pytest.mark.parametrize(
    "bad",
    [
        {"meta": [1]},
        {"meta": {"scores": {"0:1": "high"}}},
        {"input": "abc", "meta": {"scores": [1]}},
        {"target": ["Hi.", 1]},
        # a score no float can hold
        {"meta": {"scores": {"0:1": 10**400}}},
        # a corpus line: no input or target
        {"documents": ["A document."]},
    ],
)
def test_inspect_skips_a_record_of_the_wrong_shape(tmp_path, capsys, bad):
    path = tmp_path / "out.jsonl"
    lines = [json.dumps({"cluster_id": "x", **bad}), json.dumps(INSPECT_RECORD)]
    path.write_text("\n".join(lines) + "\n")
    code = main(["inspect", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "target:\n  Hi." in captured.out
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [(e["event"], e["line"]) for e in events] == [("record_error", 1)]


# ---------------------------------------------------------------------------
# every subcommand: bad lines and faults

# A valid record for each subcommand's input.
VALID_RECORDS = {
    "mask": cluster_line(WILDFIRE_CLUSTER),
    "stats": cluster_line(WILDFIRE_CLUSTER),
    "score-sentence": cluster_line(WILDFIRE_CLUSTER),
    "eval-pyramid": json.dumps(eval_record()),
    "inspect": json.dumps(INSPECT_RECORD),
}


# For each subcommand, a record valid but for a lone surrogate that the
# JSON escape \ud800 or \udc00 makes in a key or a string.
SURROGATE_RECORDS = {
    "mask": json.dumps({"cluster_id": "s", "documents": ["Bad \ud800 here."]}),
    "stats": json.dumps({"cluster_id": "s", "documents": ["Fine."], "\udc00": 1}),
    "score-sentence": json.dumps({"cluster_id": "s", "documents": ["Bad \udc00 here."]}),
    "eval-pyramid": json.dumps(eval_record("s\ud800")),
    "inspect": json.dumps({**INSPECT_RECORD, "input": ["\ud800"]}),
}


@pytest.mark.parametrize(
    "bad",
    # None stands for the subcommand's line in SURROGATE_RECORDS.
    [b"not json", b"[1,2]", b"\xff", b"[" * 100_000, None],
    ids=["text", "array", "utf8", "nested", "surrogate"],
)
@pytest.mark.parametrize("command", list(VALID_RECORDS))
def test_bad_first_line_is_one_record_error(tmp_path, capsys, command, bad):
    """A bad first line is skipped as one record_error on line 1; the
    valid record after it gives the same output and exit code as alone."""
    surrogate = bad is None
    if surrogate:
        bad = SURROGATE_RECORDS[command].encode()
    valid = VALID_RECORDS[command].encode() + b"\n"
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(valid)
    assert main([command, "--input", str(clean)]) == 0
    expected = capsys.readouterr()
    path = tmp_path / "in.jsonl"
    path.write_bytes(bad + b"\n" + valid)
    code = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == expected.out != ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    expected_events = [json.loads(line)["event"] for line in expected.err.splitlines()]
    assert [e["event"] for e in events] == ["record_error", *expected_events]
    assert events[0]["line"] == 1
    if bad == b"\xff":
        assert events[0]["reason"].startswith("invalid UTF-8:")
    if bad == b"[1,2]":
        assert events[0]["reason"] == "record is not a JSON object"
    if surrogate:
        assert events[0]["reason"] == "record holds a lone UTF-16 surrogate"


def test_mask_skips_a_lone_surrogate_with_a_pool(multichunk_corpus_path, tmp_path, capsys):
    """The surrogate case above, at ``--workers 2`` on a corpus that starts a pool."""
    argv = ["mask", "--workers", "2", "--input"]
    assert main([*argv, str(multichunk_corpus_path)]) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "in.jsonl"
    path.write_bytes(SURROGATE_RECORDS["mask"].encode() + b"\n" + multichunk_corpus_path.read_bytes())
    assert main([*argv, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected != ""
    errors = [e for e in events_of(captured.err) if e["event"] == "record_error"]
    assert errors == [
        {"event": "record_error", "line": 1, "reason": "record holds a lone UTF-16 surrogate"}
    ]


# JSON edge values, each as the text of one JSON value: lone surrogates,
# integers no float can hold, one above 2**53 that a float holds, the
# non-finite literals Python's reader accepts, nesting too deep to
# decode, and plain values of each type.
EDGE_VALUES = [
    r'"\ud800"', r'"x\udc00"', "1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 308,
    "NaN", "Infinity", "-Infinity", "[" * 3000 + "]" * 3000,
    "true", "null", '"text"', "[]", "{}", "-1", "1.5",
]

_CLUSTER = '{"cluster_id": "bad", "documents": ["Fine words here."], "entities": %s}'
_SUMMARY = '{"summary_id": "bad", "gold_len": 5, "sys_len": 5, "scus": %s}'
_EXAMPLE = '{"cluster_id": "bad", "input": ["a"], "target": ["b"], "meta": {"scores": %s}}'

# For each subcommand, records with "%s" where a value of one type is
# needed, each with the EDGE_VALUES that are of that type there.
EDGE_PLACES = {
    "mask": [
        ("%s", {"{}"}),
        (_CLUSTER, {"null", "[]"}),
        (_CLUSTER % "[%s]", set()),
        (_CLUSTER % '[{"surface": "Fine", "doc": %s}]', set()),
        (_CLUSTER % '[{"surface": %s, "doc": 0}]', {'"text"'}),
    ],
    "eval-pyramid": [
        ("%s", {"{}"}),
        (_SUMMARY, {"[]"}),
        (_SUMMARY % "[%s]", set()),
        (_SUMMARY % '[{"id": "a", "weight": %s, "covered": true}]', set()),
        (_SUMMARY % '[{"id": "a", "weight": 1, "covered": %s}]', {"true"}),
        (_SUMMARY % '[{"id": "a", "weight": 1, "covered": [%s]}]', {"true"}),
    ],
    "inspect": [
        ("%s", {"{}"}),
        (_EXAMPLE, {"{}"}),
        (
            _EXAMPLE % '{"0:0": %s}',
            {"-1", "1.5", "NaN", "Infinity", "-Infinity", "1" + "0" * 308},
        ),
        ('{"cluster_id": "bad", "input": %s}', {"[]"}),
        ('{"cluster_id": "bad", "input": [%s]}', {'"text"'}),
    ],
}
EDGE_PLACES["stats"] = EDGE_PLACES["score-sentence"] = EDGE_PLACES["mask"]
EDGE_LINES = [
    (command, place % value)
    for command, places in EDGE_PLACES.items()
    for place, of_the_type in places
    for value in EDGE_VALUES
    if value not in of_the_type
]


def _run(capsys, argv: list[str]) -> tuple[int, str, list[dict]]:
    """Exit code, stdout and the stderr events of ``main(argv)``; every
    stderr line must be a JSON object without a traceback."""
    code = main(argv)
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert all("traceback" not in event for event in events), events
    return code, captured.out, events


@settings(
    deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.sampled_from(EDGE_LINES))
def test_a_line_of_edge_values_is_one_record_error(tmp_path, capsys, case):
    """A line with a JSON edge value where its reader needs another type,
    before one valid record: without --strict it is one record_error and
    the output and exit code are those of the valid record alone; under
    --strict it is one fatal.  No line ends in a traceback."""
    command, bad = case
    valid = VALID_RECORDS[command].encode() + b"\n"
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(valid)
    path = tmp_path / "in.jsonl"
    path.write_bytes(bad.encode() + b"\n" + valid)
    code, out, events = _run(capsys, [command, "--input", str(clean)])
    bad_code, bad_out, bad_events = _run(capsys, [command, "--input", str(path)])
    assert (bad_code, bad_out) == (code, out)
    assert [e["event"] for e in bad_events] == ["record_error", *(e["event"] for e in events)]
    assert bad_events[0]["line"] == 1
    if command in ("mask", "stats", "eval-pyramid"):
        code, out, events = _run(capsys, [command, "--strict", "--input", str(path)])
        assert (code, out, [e["event"] for e in events]) == (1, "", ["fatal"])


def test_score_sentence_fault_is_fatal(corpus_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("scorer fault")

    monkeypatch.setattr(cli, "ClusterScorer", broken)
    code = main(["score-sentence", "--input", str(corpus_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert [e["event"] for e in events] == ["fatal"]
    assert events[0]["reason"] == "internal error: ValueError: scorer fault"
    assert "broken" in events[0]["traceback"]


def test_stats_interrupt_is_fatal(corpus_path, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "compute_corpus_stats", interrupted)
    try:
        code = main(["stats", "--input", str(corpus_path)])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert events == [{"event": "fatal", "reason": "interrupted"}]


# ---------------------------------------------------------------------------
# start-up cost

# Modules that only a process pool or the random strategy needs;
# ``logging`` is one that the package never imports.
LOADED_ONLY_WHEN_USED = (
    "concurrent.futures",
    "concurrent.futures.process",
    "multiprocessing",
    "hashlib",
    "logging",
)


def loaded_after(code: str) -> list[str]:
    """The LOADED_ONLY_WHEN_USED modules that running ``code`` adds to a
    fresh interpreter without site-packages, beyond those it already
    had."""
    src = Path(pyramid_masker.__file__).resolve().parent.parent
    probe = (
        f"import sys\nbare = set(sys.modules)\n{code}\n"
        "import json\nadded = set(sys.modules) - bare\n"
        f"print(json.dumps([m for m in {LOADED_ONLY_WHEN_USED!r} if m in added]))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_loads_no_pool_or_hashlib():
    assert loaded_after("import pyramid_masker.cli") == []


def test_one_worker_lead_run_loads_no_pool_or_hashlib(corpus_path, tmp_path):
    argv = ["mask", "--input", str(corpus_path), "--output", str(tmp_path / "out.jsonl")]
    argv += ["--strategy", "lead", "--workers", "1"]
    code = f"from pyramid_masker.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code) == []


def test_one_chunk_run_at_two_workers_loads_no_pool(corpus_path, tmp_path):
    """Five clusters are one chunk, which runs in-process at any worker count."""
    argv = ["mask", "--input", str(corpus_path), "--output", str(tmp_path / "out.jsonl")]
    argv += ["--workers", "2"]
    code = f"from pyramid_masker.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code) == []
