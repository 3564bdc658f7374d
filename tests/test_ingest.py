"""Corpus loading, record validation, and corpus statistics."""

from __future__ import annotations

import io
import json
import re

import pytest

from pyramid_masker import (
    CorpusError,
    CorpusStats,
    DocumentCluster,
    EntityAnnotation,
    compute_corpus_stats,
    load_clusters,
)
from pyramid_masker.ingest import read_records


def jsonl(*records) -> io.BytesIO:
    lines = []
    for record in records:
        if isinstance(record, (bytes, str)):
            lines.append(record.encode() if isinstance(record, str) else record)
        else:
            lines.append(json.dumps(record).encode())
    return io.BytesIO(b"\n".join(lines) + b"\n")


def collect(stream, **kwargs):
    errors = []
    clusters = list(load_clusters(stream, on_error=errors.append, **kwargs))
    return clusters, errors


def test_minimal_record():
    clusters, errors = collect(jsonl({"cluster_id": "a", "documents": ["Doc one."]}))
    assert errors == []
    assert clusters == [DocumentCluster("a", ("Doc one.",))]


def test_full_record():
    record = {
        "cluster_id": "a",
        "documents": ["First doc.", "Second doc."],
        "summary": "A summary.",
        "entities": [{"surface": "Second", "doc": 1}],
    }
    clusters, errors = collect(jsonl(record))
    assert errors == []
    (cluster,) = clusters
    assert cluster.gold_summary == "A summary."
    assert cluster.entity_annotations == (EntityAnnotation("Second", 1),)


def test_blank_summary_treated_as_absent():
    clusters, _ = collect(jsonl({"cluster_id": "a", "documents": ["x"], "summary": "  "}))
    assert clusters[0].gold_summary is None


def test_empty_stream():
    clusters, errors = collect(io.BytesIO(b""))
    assert clusters == [] and errors == []


def test_blank_lines_skipped_without_error():
    stream = io.BytesIO(b'\n  \n{"cluster_id": "a", "documents": ["x"]}\n\n')
    clusters, errors = collect(stream)
    assert len(clusters) == 1 and errors == []


@pytest.mark.parametrize(
    "record,reason_fragment",
    [
        ("[1, 2]", "not a JSON object"),
        ("{not json", "Expecting"),
        ({"documents": ["x"]}, "cluster_id"),
        ({"cluster_id": "", "documents": ["x"]}, "cluster_id"),
        ({"cluster_id": "a", "documents": []}, "empty cluster"),
        ({"cluster_id": "a", "documents": "x"}, "array of strings"),
        ({"cluster_id": "a", "documents": ["x", 3]}, "document 1 is not a string"),
        ({"cluster_id": "a", "documents": ["x", "  "]}, "document 1 is empty"),
        ({"cluster_id": "a", "documents": ["x"], "summary": 5}, "summary"),
        ({"cluster_id": "a", "documents": ["x"], "entities": "no"}, "entities"),
        (
            {"cluster_id": "a", "documents": ["x"], "entities": [{"doc": 0}]},
            "no surface text",
        ),
        (
            {"cluster_id": "a", "documents": ["x"], "entities": [{"surface": "x", "doc": 1}]},
            "references document 1",
        ),
        (
            {"cluster_id": "a", "documents": ["x"], "entities": [{"surface": "x", "doc": True}]},
            "non-integer doc",
        ),
        ({"cluster_id": "a", "documents": ["x"], "entities": [3]}, "entity 0 is not an object"),
    ],
)
def test_bad_records_are_reported_and_skipped(record, reason_fragment):
    good = {"cluster_id": "ok", "documents": ["fine"]}
    clusters, errors = collect(jsonl(record, good))
    assert [c.cluster_id for c in clusters] == ["ok"]
    assert len(errors) == 1
    assert errors[0].line_number == 1
    assert reason_fragment in errors[0].reason


@pytest.mark.parametrize(
    "documents,reason",
    [
        ((), "empty cluster"),
        (("x", 3), "document 1 is not a string"),
        (("A b c. D e f.", "G h i. J k.", "   "), "document 2 is empty"),
    ],
)
def test_cluster_rejects_documents_without_a_sentence(documents, reason):
    with pytest.raises(ValueError, match=reason):
        DocumentCluster("c", documents)


TWO_DOCUMENTS = ("A b c. D e f.", "G h i.")


@pytest.mark.parametrize(
    "fields,reason",
    [
        ({"cluster_id": ""}, "missing or empty cluster_id"),
        ({"cluster_id": None}, "missing or empty cluster_id"),
        ({"cluster_id": 7}, "missing or empty cluster_id"),
        ({"gold_summary": 5}, "summary must be a string"),
        ({"gold_summary": ["A summary."]}, "summary must be a string"),
        ({"entity_annotations": (EntityAnnotation("", 0),)}, "entity 0 has no surface text"),
        ({"entity_annotations": (EntityAnnotation(" \t", 0),)}, "entity 0 has no surface text"),
        (
            {"entity_annotations": (EntityAnnotation("G", 1), EntityAnnotation(3, 0))},
            "entity 1 has no surface text",
        ),
        (
            {"entity_annotations": (EntityAnnotation("G", True),)},
            "entity 0 has a non-integer doc index",
        ),
        (
            {"entity_annotations": (EntityAnnotation("G", 1.0),)},
            "entity 0 has a non-integer doc index",
        ),
        (
            {"entity_annotations": (EntityAnnotation("G", 2),)},
            "entity 0 references document 2 of 2",
        ),
        (
            {"entity_annotations": (EntityAnnotation("G", -1),)},
            "entity 0 references document -1 of 2",
        ),
    ],
)
def test_cluster_built_in_code_checks_its_id_summary_and_annotations(fields, reason):
    """The rules a JSON record is held to hold for a cluster built in code."""
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        DocumentCluster(**{"cluster_id": "c", "documents": TWO_DOCUMENTS, **fields})


def test_cluster_built_in_code_stores_a_blank_summary_as_none():
    cluster = DocumentCluster("c", TWO_DOCUMENTS, gold_summary=" \n ")
    assert cluster.gold_summary is None
    assert cluster == DocumentCluster("c", TWO_DOCUMENTS)
    assert compute_corpus_stats([cluster]).mean_summary_length is None


def test_rejected_record_does_not_claim_its_id():
    clusters, errors = collect(
        jsonl({"cluster_id": "a", "documents": ["  "]}, {"cluster_id": "a", "documents": ["x"]})
    )
    assert [c.cluster_id for c in clusters] == ["a"]
    assert [e.reason for e in errors] == ["document 0 is empty"]


def test_invalid_utf8_reported():
    stream = io.BytesIO(b'\xff\xfe{"cluster_id"\n{"cluster_id": "ok", "documents": ["x"]}\n')
    clusters, errors = collect(stream)
    assert [c.cluster_id for c in clusters] == ["ok"]
    assert "UTF-8" in errors[0].reason


def test_lone_surrogate_is_a_record_error_and_a_pair_is_not():
    stream = jsonl(
        '{"cluster_id": "pair", "documents": ["Smile \\ud83d\\ude00 here."]}',
        '{"cluster_id": "high", "documents": ["Bad \\uD800 here."]}',
        '{"cluster_id": "key", "documents": ["Fine."], "\\udc00": 1}',
        '{"cluster_id": "swapped", "documents": ["Two \\ude00\\ud83d here."]}',
        '{"cluster_id": "nested", "documents": ["Fine."], "entities": [{"surface": "\\ud800"}]}',
        '{"cluster_id": "escaped", "documents": ["A \\\\ud800 backslash."]}',
    )
    clusters, errors = collect(stream)
    assert [c.cluster_id for c in clusters] == ["pair", "escaped"]
    assert clusters[0].documents == ("Smile \U0001F600 here.",)
    assert clusters[1].documents == ("A \\ud800 backslash.",)
    assert [(e.line_number, e.reason) for e in errors] == [
        (n, "record holds a lone UTF-16 surrogate") for n in (2, 3, 4, 5)
    ]


def test_duplicate_cluster_id_skipped():
    a1 = {"cluster_id": "a", "documents": ["first"]}
    a2 = {"cluster_id": "a", "documents": ["second"]}
    clusters, errors = collect(jsonl(a1, a2))
    assert [c.documents[0] for c in clusters] == ["first"]
    assert "duplicate" in errors[0].reason and errors[0].line_number == 2


def test_strict_mode_raises_with_line_number():
    good = {"cluster_id": "ok", "documents": ["x"]}
    with pytest.raises(CorpusError, match="line 2"):
        list(load_clusters(jsonl(good, "{broken")))


def test_strict_mode_covers_duplicates():
    a = {"cluster_id": "a", "documents": ["x"]}
    with pytest.raises(CorpusError, match="duplicate"):
        list(load_clusters(jsonl(a, a)))


def test_read_records_reports_what_parse_rejects():
    def parse(record):
        if record["n"] < 0:
            raise ValueError("negative")
        return record["n"]

    stream = jsonl({"n": 1}, {"n": -1}, b"\xff", "", {"n": 2})
    errors = []
    assert list(read_records(stream, parse, on_error=errors.append)) == [1, 2]
    assert [e.line_number for e in errors] == [2, 3]
    assert errors[0].event() == {"event": "record_error", "line": 2, "reason": "negative"}
    assert errors[1].reason.startswith("invalid UTF-8: ")
    with pytest.raises(CorpusError, match="^line 2: negative$"):
        list(read_records(jsonl({"n": 1}, {"n": -1}), parse))


def test_loader_is_lazy():
    calls = []

    class CountingStream:
        def __init__(self, lines):
            self.lines = iter(lines)

        def __iter__(self):
            return self

        def __next__(self):
            line = next(self.lines)
            calls.append(line)
            return line

    stream = CountingStream(
        [
            b'{"cluster_id": "a", "documents": ["x"]}',
            b'{"cluster_id": "b", "documents": ["y"]}',
        ]
    )
    iterator = load_clusters(stream)
    first = next(iterator)
    assert first.cluster_id == "a"
    assert len(calls) == 1  # the second line has not been read yet


# ---------------------------------------------------------------------------
# statistics


def test_stats_arithmetic():
    clusters = [
        DocumentCluster("a", ("a b c", "d e")),
        DocumentCluster("b", ("f", "g", "h i", "j")),
    ]
    stats = compute_corpus_stats(clusters)
    assert stats.example_count == 2
    assert stats.mean_docs_per_cluster == 3.0
    assert stats.mean_source_length == 5.0
    assert stats.mean_summary_length is None


def test_stats_summary_mean_over_summary_bearing_only():
    clusters = [
        DocumentCluster("a", ("x",), gold_summary="one two three four"),
        DocumentCluster("b", ("y",)),
        DocumentCluster("c", ("z",), gold_summary="five six"),
    ]
    stats = compute_corpus_stats(clusters)
    assert stats.mean_summary_length == 3.0


def test_stats_empty_corpus():
    stats = compute_corpus_stats([])
    assert stats == CorpusStats(example_count=0)
    assert stats.to_json_dict() == {"example_count": 0}


def test_stats_json_shape():
    stats = compute_corpus_stats([DocumentCluster("a", ("a b", "c"))])
    payload = stats.to_json_dict()
    assert payload == {
        "example_count": 1,
        "mean_docs_per_cluster": 2.0,
        "mean_source_length": 3.0,
        "length_unit": "whitespace_tokens",
    }


def test_stats_accepts_loader_output():
    stream = jsonl(
        {"cluster_id": "a", "documents": ["a b", "c d"], "summary": "s t u"},
        {"cluster_id": "b", "documents": ["e f g h"]},
    )
    stats = compute_corpus_stats(load_clusters(stream))
    assert stats.example_count == 2
    assert stats.mean_docs_per_cluster == 1.5
    assert stats.mean_source_length == 4.0
    assert stats.mean_summary_length == 3.0
