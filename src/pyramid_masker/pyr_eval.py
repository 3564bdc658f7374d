"""Scoring system summaries against weighted summary content units.

Each content unit (SCU) carries a weight — how many reference summaries
express it.  A system summary's raw score is the weight sum of the
units it covers; recall and precision normalize that by the reference
and system summary lengths, F1 combines them.

Annotation records may carry one coverage judgment per unit or one per
annotator; multi-annotator lists are reduced to a coverage fraction
(mean) or a strict-majority vote before weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .ingest import is_json_int
from .rouge import overlap_score

# Up to 2**53 a float holds every integer exactly, and no raw score, F1
# or mean of weights and lengths under it can overflow.
MAX_COUNT = 2**53


class CoverageAggregation(Enum):
    MEAN = "mean"
    MAJORITY = "majority"


class LengthUnit(Enum):
    WORDS = "words"
    CHARS = "chars"


@dataclass(frozen=True)
class PyramidScore:
    raw: float
    recall: float
    precision: float
    f1: float


def weighted_coverage_score(
    units: Sequence[tuple[float, float]],
    gold_len: int,
    sys_len: int,
) -> PyramidScore:
    """Score from (weight, coverage fraction) pairs.

    Coverage fractions are usually 0 or 1 but may be intermediate when
    several annotators disagree and their judgments are averaged.
    """
    if gold_len <= 0:
        raise ValueError(f"gold length must be positive, got {gold_len}")
    if sys_len <= 0:
        raise ValueError(f"system length must be positive, got {sys_len}")
    raw = 0.0
    for weight, coverage in units:
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"coverage fraction out of range: {coverage}")
        raw += weight * coverage
    score = overlap_score(raw, sys_len, gold_len)
    return PyramidScore(raw=raw, recall=score.recall, precision=score.precision, f1=score.f1)


def aggregate_coverage(
    judgments: Sequence[bool],
    aggregation: CoverageAggregation = CoverageAggregation.MEAN,
) -> float:
    """Reduce several annotators' yes/no judgments to one fraction."""
    if not judgments:
        raise ValueError("no coverage judgments given")
    positive = sum(1 for j in judgments if j)
    if aggregation is CoverageAggregation.MAJORITY:
        return 1.0 if 2 * positive > len(judgments) else 0.0
    return positive / len(judgments)


def _summary_length(record: dict, side: str, len_unit: LengthUnit) -> int:
    explicit = record.get(f"{side}_len")
    if explicit is not None:
        if not is_json_int(explicit):
            raise ValueError(f"{side}_len must be an integer")
        if explicit > MAX_COUNT:
            raise ValueError(f"{side}_len is above 2**53")
        return explicit
    text = record.get(f"{side}_text")
    if not isinstance(text, str):
        raise ValueError(f"record needs {side}_len or {side}_text")
    if len_unit is LengthUnit.CHARS:
        return len(text)
    return len(text.split())


def record_score(
    record: dict,
    aggregation: CoverageAggregation = CoverageAggregation.MEAN,
    len_unit: LengthUnit = LengthUnit.WORDS,
) -> tuple[str, PyramidScore]:
    """Score one annotation record.

    Expected shape: ``{summary_id, gold_len | gold_text,
    sys_len | sys_text, scus: [{id, weight, covered}]}`` where
    ``covered`` is a boolean or a per-annotator list of booleans.
    ``read_records`` has checked that the record is a JSON object.
    """
    summary_id = record.get("summary_id")
    if not isinstance(summary_id, str) or not summary_id:
        raise ValueError("record needs a non-empty summary_id")
    scus = record.get("scus")
    if not isinstance(scus, list):
        raise ValueError("record needs an scus list")
    units: list[tuple[float, float]] = []
    for scu in scus:
        if not isinstance(scu, dict):
            raise ValueError("each SCU must be an object")
        weight = scu.get("weight")
        if not is_json_int(weight) or weight < 1:
            raise ValueError(f"SCU weight must be a positive integer, got {weight!r}")
        if weight > MAX_COUNT:
            raise ValueError("SCU weight is above 2**53")
        covered = scu.get("covered")
        if isinstance(covered, bool):
            coverage = 1.0 if covered else 0.0
        elif isinstance(covered, list) and covered and all(isinstance(c, bool) for c in covered):
            coverage = aggregate_coverage(covered, aggregation)
        else:
            raise ValueError(f"SCU covered must be a boolean or list of booleans, got {covered!r}")
        units.append((float(weight), coverage))
    gold_len = _summary_length(record, "gold", len_unit)
    sys_len = _summary_length(record, "sys", len_unit)
    return summary_id, weighted_coverage_score(units, gold_len, sys_len)


def mean_score(scores: Iterable[PyramidScore]) -> PyramidScore | None:
    """Field-wise arithmetic mean; None for an empty collection."""
    scores = list(scores)
    if not scores:
        return None
    n = len(scores)
    return PyramidScore(
        raw=sum(s.raw for s in scores) / n,
        recall=sum(s.recall for s in scores) / n,
        precision=sum(s.precision for s in scores) / n,
        f1=sum(s.f1 for s in scores) / n,
    )
