"""Choosing which sentences to mask and which to copy.

Four strategies share one result shape:

* ``entity_pyramid`` -- walk entities from most- to least-shared across
  documents; for each, mask the sentence mentioning it (as
  ``entities.entity_candidates`` finds them) that best summarizes the
  *other* documents (cluster ROUGE).  At most one sentence per entity.
  If the pyramid runs dry before enough sentences are chosen, the
  remainder comes from the principle ranking and the result is flagged
  ``fallback_used``.
* ``principle`` -- rank every sentence by ROUGE against the rest of the
  cluster and take the top.
* ``lead`` -- first sentences in document order.
* ``random`` -- seeded per-cluster sample, reproducible across runs and
  worker counts.

``select_sentences(sentences, config, pyramid)`` runs the configured
strategy.  Counts derive from two ratios over the cluster's sentence
total.  At least one sentence is always masked, and never all of them
unless the cluster has a single sentence.  ``select_principle`` and
``select_entity_pyramid`` take their counts and scorer from the caller.

Sentences come in document order (``segment_cluster``'s); the scorer,
``select_entity_pyramid`` and the lead and random strategies raise
``ValueError`` otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .entities import PyramidEntry, entity_candidates
from .rouge import ClusterScorer, DEFAULT_VARIANT, SalienceVariant
from .segment import DEFAULT_NORMALIZATION, NormalizationConfig, Sentence, require_document_order


class Strategy(Enum):
    ENTITY_PYRAMID = "entity_pyramid"
    PRINCIPLE = "principle"
    LEAD = "lead"
    RANDOM = "random"


@dataclass(frozen=True)
class SelectionConfig:
    strategy: Strategy = Strategy.ENTITY_PYRAMID
    mask_ratio: float = 0.15
    copy_ratio: float = 0.15
    variant: SalienceVariant = DEFAULT_VARIANT
    seed: int = 0
    normalization: NormalizationConfig = DEFAULT_NORMALIZATION

    def __post_init__(self) -> None:
        if not 0.0 < self.mask_ratio <= 1.0:
            raise ValueError(f"mask_ratio must be in (0, 1], got {self.mask_ratio}")
        if not 0.0 <= self.copy_ratio < 1.0:
            raise ValueError(f"copy_ratio must be in [0, 1), got {self.copy_ratio}")
        if self.mask_ratio + self.copy_ratio > 1.0:
            raise ValueError(
                f"mask_ratio + copy_ratio must not exceed 1, "
                f"got {self.mask_ratio} + {self.copy_ratio}"
            )


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one strategy run over one cluster.

    ``masked`` and ``copied`` are disjoint and each sorted by
    (doc_index, sent_index).  ``scores`` maps every scored pick to the
    value that won it the spot; strategies that do not score (lead,
    random) leave it empty.
    """

    strategy: Strategy
    masked: tuple[tuple[int, int], ...]
    copied: tuple[tuple[int, int], ...]
    fallback_used: bool = False
    scores: Mapping[tuple[int, int], float] = field(default_factory=dict)


def _round_half_up(value: float) -> int:
    return int(value + 0.5)


def compute_mask_count(total_sentences: int, mask_ratio: float) -> int:
    """Number of sentences to mask: the ratio rounded half-up, at least
    one, and leaving at least one unmasked whenever possible."""
    if total_sentences <= 0:
        raise ValueError("cluster has no sentences")
    if total_sentences == 1:
        return 1
    m = max(1, _round_half_up(mask_ratio * total_sentences))
    return min(m, total_sentences - 1)


def compute_copy_count(total_sentences: int, mask_count: int, copy_ratio: float) -> int:
    """Number of additional sentences copied to the target unmasked."""
    n = _round_half_up(copy_ratio * total_sentences)
    return min(n, total_sentences - mask_count)


def _top_principle(
    sentences: Sequence[Sentence], count: int, scorer: ClusterScorer
) -> dict[tuple[int, int], float]:
    """The ``count`` highest principle scores by key, in rank order; ties
    go to the earliest position.  Each sentence is scored once."""
    ranked = sorted((-scorer.principle(s), s.key) for s in sentences)
    return {key: -negated for negated, key in ranked[:count]}


def _result(
    strategy: Strategy,
    picked: Sequence[tuple[int, int]],
    mask_count: int,
    scores: Mapping[tuple[int, int], float] | None = None,
    fallback_used: bool = False,
) -> SelectionResult:
    """The first ``mask_count`` picked keys masked, the rest copied."""
    return SelectionResult(
        strategy=strategy,
        masked=tuple(sorted(picked[:mask_count])),
        copied=tuple(sorted(picked[mask_count:])),
        fallback_used=fallback_used,
        scores=scores or {},
    )


def select_entity_pyramid(
    sentences: Sequence[Sentence],
    pyramid: Sequence[PyramidEntry],
    mask_count: int,
    copy_count: int,
    scorer: ClusterScorer,
) -> SelectionResult:
    """One pass over the pyramid, most frequent entity first.

    An entity's candidates are the sentences ``entity_candidates``
    yields for it (a mention at token boundaries, so "us" never matches
    inside "usage"), less those already picked.  Each entity contributes
    at most one sentence, the candidate with the highest cluster ROUGE;
    ties go to the earliest position.  No entry after the last pick is
    matched.  Picks beyond ``mask_count`` become the copied set.
    """
    require_document_order(sentences)
    need = mask_count + copy_count
    # Each picked key's score, in pick order.
    picked: dict[tuple[int, int], float] = {}

    for _, candidates in entity_candidates(sentences, pyramid):
        best: Sentence | None = None
        best_score = -1.0
        for sentence in candidates:
            if sentence.key in picked:
                continue
            score = scorer.cluster(sentence)
            if score > best_score:
                best, best_score = sentence, score
        if best is None:
            continue
        picked[best.key] = best_score
        if len(picked) == need:
            break

    fallback_used = len(picked) < need
    if fallback_used:
        remaining = [s for s in sentences if s.key not in picked]
        picked.update(_top_principle(remaining, need - len(picked), scorer))

    return _result(Strategy.ENTITY_PYRAMID, list(picked), mask_count, picked, fallback_used)


def select_principle(
    sentences: Sequence[Sentence],
    mask_count: int,
    copy_count: int,
    scorer: ClusterScorer,
) -> SelectionResult:
    picked = _top_principle(sentences, mask_count + copy_count, scorer)
    return _result(Strategy.PRINCIPLE, list(picked), mask_count, picked)


def _cluster_rng(seed: int, cluster_id: str) -> random.Random:
    import hashlib  # only the random strategy needs it

    digest = hashlib.sha256(f"{seed}:{cluster_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def select_sentences(
    sentences: Sequence[Sentence],
    config: SelectionConfig,
    pyramid: Sequence[PyramidEntry] | None = None,
) -> SelectionResult:
    """Run the configured strategy with counts derived from the cluster
    size.  ``pyramid`` is required for the entity strategy.  Lead takes
    the first sentences; random samples with an RNG derived from the seed
    and the sentences' cluster id, so a cluster's picks do not depend on
    processing order or worker count."""
    total = len(sentences)
    mask_count = compute_mask_count(total, config.mask_ratio)
    copy_count = compute_copy_count(total, mask_count, config.copy_ratio)
    need = mask_count + copy_count
    if config.strategy is Strategy.LEAD:
        require_document_order(sentences)
        return _result(Strategy.LEAD, [s.key for s in sentences[:need]], mask_count)
    if config.strategy is Strategy.RANDOM:
        require_document_order(sentences)
        rng = _cluster_rng(config.seed, sentences[0].cluster_id)
        return _result(Strategy.RANDOM, rng.sample([s.key for s in sentences], need), mask_count)
    scorer = ClusterScorer(sentences, config.variant, config.normalization)
    if config.strategy is Strategy.PRINCIPLE:
        return select_principle(sentences, mask_count, copy_count, scorer)
    if pyramid is None:
        raise ValueError("entity_pyramid strategy requires a pyramid")
    return select_entity_pyramid(sentences, pyramid, mask_count, copy_count, scorer)
