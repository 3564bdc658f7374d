"""Weighted content-unit scoring of system summaries."""

from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import example, given, strategies as st

from pyramid_masker import CoverageAggregation, LengthUnit, PyramidScore
from pyramid_masker.pyr_eval import (
    aggregate_coverage,
    mean_score,
    record_score,
    weighted_coverage_score,
)

from oracles import pyramid_arithmetic_oracle


def test_worked_example():
    units = [(3.0, 1.0), (2.0, 0.0), (1.0, 1.0)]
    score = weighted_coverage_score(units, gold_len=100, sys_len=80)
    assert score.raw == 4.0
    assert score.recall == pytest.approx(0.04)
    assert score.precision == pytest.approx(0.05)
    assert score.f1 == pytest.approx(0.044444444444, abs=1e-9)


def test_nothing_covered_is_all_zero():
    score = weighted_coverage_score([(3.0, 0.0), (1.0, 0.0)], 50, 50)
    assert score == PyramidScore(0.0, 0.0, 0.0, 0.0)


def test_full_coverage_equal_lengths():
    score = weighted_coverage_score([(2.0, 1.0), (2.0, 1.0)], 40, 40)
    assert score.recall == score.precision == 0.1
    assert score.f1 == pytest.approx(0.1)


def test_covering_more_units_never_hurts():
    low = weighted_coverage_score([(3.0, 1.0), (2.0, 0.0)], 60, 30)
    high = weighted_coverage_score([(3.0, 1.0), (2.0, 1.0)], 60, 30)
    assert high.raw > low.raw
    assert high.recall > low.recall
    assert high.f1 > low.f1


def test_longer_system_summary_halves_precision():
    units = [(4.0, 1.0)]
    short = weighted_coverage_score(units, 100, 40)
    long = weighted_coverage_score(units, 100, 80)
    assert long.precision == pytest.approx(short.precision / 2)
    assert long.recall == short.recall


def test_length_validation():
    with pytest.raises(ValueError):
        weighted_coverage_score([(1.0, 1.0)], 0, 10)
    with pytest.raises(ValueError):
        weighted_coverage_score([(1.0, 1.0)], 10, -3)


def test_fraction_validation():
    with pytest.raises(ValueError):
        weighted_coverage_score([(1.0, 1.5)], 10, 10)


@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.floats(0.0, 1.0)),
        max_size=8,
    ),
    st.integers(1, 500),
    st.integers(1, 500),
)
def test_arithmetic_matches_oracle(units, gold_len, sys_len):
    weighted = [(float(w), c) for w, c in units]
    score = weighted_coverage_score(weighted, gold_len, sys_len)
    raw, recall, precision, f1 = pyramid_arithmetic_oracle(weighted, gold_len, sys_len)
    assert score.raw == pytest.approx(raw, abs=1e-12)
    assert score.recall == pytest.approx(recall, abs=1e-12)
    assert score.precision == pytest.approx(precision, abs=1e-12)
    assert score.f1 == pytest.approx(f1, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, allow_nan=False, allow_infinity=False),
            st.floats(0.0, 1.0),
        ),
        max_size=8,
    ),
    st.integers(1, 10**308),
    st.integers(1, 10**308),
)
# 2.0 * precision overflows here, and 2.0 * recall does not.
@example([(1e308, 1.0)], 15 * 10**307, 1)
def test_score_is_the_formula_bit_for_bit(units, gold_len, sys_len):
    """recall = raw / gold_len, precision = raw / sys_len and
    F1 = 2 * recall * precision / (recall + precision), in that order."""
    score = weighted_coverage_score(units, gold_len, sys_len)
    expected = pyramid_arithmetic_oracle(units, gold_len, sys_len)
    assert [x.hex() for x in astuple(score)] == [x.hex() for x in expected]


# ---------------------------------------------------------------------------
# multi-annotator aggregation


def test_mean_aggregation():
    assert aggregate_coverage([True, False]) == 0.5
    assert aggregate_coverage([True, True, False]) == pytest.approx(2 / 3)


def test_majority_is_strict():
    majority = CoverageAggregation.MAJORITY
    assert aggregate_coverage([True, True, False], majority) == 1.0
    assert aggregate_coverage([True, False], majority) == 0.0  # a tie is not a majority
    assert aggregate_coverage([False], majority) == 0.0
    assert aggregate_coverage([True], majority) == 1.0


def test_empty_judgments_rejected():
    with pytest.raises(ValueError):
        aggregate_coverage([])


# ---------------------------------------------------------------------------
# record parsing


def record(**overrides):
    base = {
        "summary_id": "sys-1",
        "gold_len": 100,
        "sys_len": 80,
        "scus": [
            {"id": "s1", "weight": 3, "covered": True},
            {"id": "s2", "weight": 2, "covered": False},
            {"id": "s3", "weight": 1, "covered": True},
        ],
    }
    base.update(overrides)
    return base


def test_record_score_worked_example():
    summary_id, score = record_score(record())
    assert summary_id == "sys-1"
    assert score.raw == 4.0
    assert score.f1 == pytest.approx(0.044444444444, abs=1e-9)


def test_record_score_annotator_lists():
    rec = record(
        scus=[{"id": "s1", "weight": 2, "covered": [True, False]}],
    )
    _, mean = record_score(rec)
    assert mean.raw == pytest.approx(1.0)  # 2 * 0.5
    _, majority = record_score(rec, aggregation=CoverageAggregation.MAJORITY)
    assert majority.raw == 0.0


def test_record_score_measures_text_lengths():
    rec = record(gold_len=None, sys_len=None)
    del rec["gold_len"], rec["sys_len"]
    rec["gold_text"] = "one two three four"
    rec["sys_text"] = "five six"
    _, words = record_score(rec)
    assert words.recall == pytest.approx(4 / 4)
    assert words.precision == pytest.approx(4 / 2)
    _, chars = record_score(rec, len_unit=LengthUnit.CHARS)
    assert chars.recall == pytest.approx(4 / len("one two three four"))
    assert chars.precision == pytest.approx(4 / len("five six"))


def test_explicit_length_beats_text():
    rec = record()
    rec["gold_text"] = "a"
    _, score = record_score(rec)
    assert score.recall == pytest.approx(0.04)  # still the explicit 100


@pytest.mark.parametrize(
    "broken",
    [
        {"summary_id": ""},
        {"summary_id": 7},
        {"scus": "nope"},
        {"scus": ["x"]},
        {"scus": [{"id": "x", "weight": 0, "covered": True}]},
        {"scus": [{"id": "x", "weight": True, "covered": True}]},
        {"scus": [{"id": "x", "weight": 1, "covered": "yes"}]},
        {"scus": [{"id": "x", "weight": 1, "covered": []}]},
        {"scus": [{"id": "x", "weight": 1, "covered": [True, 1]}]},
        {"gold_len": "100"},
        {"gold_len": True},
        # integers no float can hold
        {"scus": [{"id": "x", "weight": 10**400, "covered": True}]},
        {"gold_len": 10**400},
        {"sys_len": 10**400},
        # above 2**53, where a score or a mean of scores could overflow
        {"scus": [{"id": "x", "weight": 2**53 + 1, "covered": True}]},
        {"gold_len": 2**53 + 1},
        {"sys_len": 2**53 + 1},
        # scores 1.0, but the raw mean of two such records overflows
        {
            "gold_len": 10**308,
            "sys_len": 10**308,
            "scus": [{"id": "x", "weight": 10**308, "covered": True}],
        },
    ],
)
def test_record_score_rejects_malformed(broken):
    with pytest.raises(ValueError):
        record_score(record(**broken))


def test_record_score_missing_lengths():
    rec = record()
    del rec["sys_len"]
    with pytest.raises(ValueError, match="sys_len or sys_text"):
        record_score(rec)


def test_mean_of_records_at_2_53_is_finite():
    scus = [{"id": "u", "weight": 2**53, "covered": True}]
    _, score = record_score(record(gold_len=2**53, sys_len=2**53, scus=scus))
    assert mean_score([score, score]) == PyramidScore(2.0**53, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# corpus mean


def test_mean_score_empty_is_none():
    assert mean_score([]) is None


def test_mean_score_fieldwise():
    a = PyramidScore(2.0, 0.2, 0.4, 0.25)
    b = PyramidScore(4.0, 0.4, 0.2, 0.25)
    mean = mean_score([a, b])
    assert mean == PyramidScore(3.0, 0.30000000000000004, 0.30000000000000004, 0.25)
