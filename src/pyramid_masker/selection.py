"""Choosing which sentences to mask and which to copy.

Four strategies share one result shape:

* ``entity_pyramid`` -- walk entities from most- to least-shared across
  documents; for each, mask the sentence mentioning it that best
  summarizes the *other* documents (cluster ROUGE).  At most one
  sentence per entity.  If the pyramid runs dry before enough sentences
  are chosen, the remainder comes from the principle ranking and the
  result is flagged ``fallback_used``.
* ``principle`` -- rank every sentence by ROUGE against the rest of the
  cluster and take the top.
* ``lead`` -- first sentences in document order.
* ``random`` -- seeded per-cluster sample, reproducible across runs and
  worker counts.

Counts derive from two ratios over the cluster's sentence total.  At
least one sentence is always masked, and never all of them unless the
cluster has a single sentence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .entities import PyramidEntry, contains_mention
from .rouge import ClusterScorer, DEFAULT_VARIANT, SalienceVariant
from .segment import Sentence, by_position


class Strategy(Enum):
    ENTITY_PYRAMID = "entity_pyramid"
    PRINCIPLE = "principle"
    LEAD = "lead"
    RANDOM = "random"

    @property
    def scores(self) -> bool:
        """Whether the strategy ranks sentences by ROUGE, and so needs
        their normalized tokens and a ``ClusterScorer``."""
        return self is Strategy.ENTITY_PYRAMID or self is Strategy.PRINCIPLE


@dataclass(frozen=True)
class SelectionConfig:
    strategy: Strategy = Strategy.ENTITY_PYRAMID
    mask_ratio: float = 0.15
    copy_ratio: float = 0.15
    variant: SalienceVariant = DEFAULT_VARIANT
    seed: int = 0

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


def _ordered(sentences: Sequence[Sentence]) -> list[Sentence]:
    return sorted(sentences, key=by_position)


def _result(
    strategy: Strategy,
    picked: Sequence[tuple[tuple[int, int], float]],
    mask_count: int,
    fallback_used: bool = False,
    with_scores: bool = True,
) -> SelectionResult:
    masked = tuple(sorted(key for key, _ in picked[:mask_count]))
    copied = tuple(sorted(key for key, _ in picked[mask_count:]))
    scores = {key: score for key, score in picked} if with_scores else {}
    return SelectionResult(
        strategy=strategy,
        masked=masked,
        copied=copied,
        fallback_used=fallback_used,
        scores=scores,
    )


def select_entity_pyramid(
    sentences: Sequence[Sentence],
    pyramid: Sequence[PyramidEntry],
    mask_count: int,
    copy_count: int,
    scorer: ClusterScorer,
) -> SelectionResult:
    """One pass over the pyramid, most frequent entity first.

    A sentence is a candidate for an entity when the entity occurs in
    its ``folded`` text at token boundaries (``contains_mention``, so
    "us" never matches inside "usage").  A plain substring test screens
    sentences first; it cannot reject a boundary match.  Each
    entity contributes at most one sentence, the candidate with the
    highest cluster ROUGE; ties go to the earliest position.  Picks
    beyond ``mask_count`` become the copied set.
    """
    ordered = _ordered(sentences)
    need = mask_count + copy_count
    picked: list[tuple[tuple[int, int], float]] = []
    picked_keys: set[tuple[int, int]] = set()

    for entry in pyramid:
        if len(picked) == need:
            break
        entity = entry.entity
        best: Sentence | None = None
        best_score = -1.0
        for sentence in ordered:
            text = sentence.folded
            if (
                entity not in text
                or sentence.key in picked_keys
                or not contains_mention(text, entity)
            ):
                continue
            score = scorer.cluster(sentence)
            if score > best_score:
                best, best_score = sentence, score
        if best is None:
            continue
        picked.append((best.key, best_score))
        picked_keys.add(best.key)

    fallback_used = False
    if len(picked) < need:
        fallback_used = True
        remaining = [s for s in ordered if s.key not in picked_keys]
        remaining.sort(key=lambda s: (-scorer.principle(s), s.key))
        for sentence in remaining[: need - len(picked)]:
            picked.append((sentence.key, scorer.principle(sentence)))
            picked_keys.add(sentence.key)

    return _result(Strategy.ENTITY_PYRAMID, picked, mask_count, fallback_used)


def select_principle(
    sentences: Sequence[Sentence],
    mask_count: int,
    copy_count: int,
    scorer: ClusterScorer,
) -> SelectionResult:
    ranked = _ordered(sentences)
    ranked.sort(key=lambda s: (-scorer.principle(s), s.key))
    picked = [(s.key, scorer.principle(s)) for s in ranked[: mask_count + copy_count]]
    return _result(Strategy.PRINCIPLE, picked, mask_count)


def select_lead(
    sentences: Sequence[Sentence],
    mask_count: int,
    copy_count: int,
) -> SelectionResult:
    ordered = _ordered(sentences)
    picked = [(s.key, 0.0) for s in ordered[: mask_count + copy_count]]
    return _result(Strategy.LEAD, picked, mask_count, with_scores=False)


def _cluster_rng(seed: int, cluster_id: str) -> random.Random:
    import hashlib  # only the random strategy needs it

    digest = hashlib.sha256(f"{seed}:{cluster_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def select_random(
    sentences: Sequence[Sentence],
    mask_count: int,
    copy_count: int,
    seed: int,
    cluster_id: str,
) -> SelectionResult:
    """Sample sentences with an RNG derived from (seed, cluster_id) so a
    cluster's picks do not depend on processing order or worker count."""
    ordered = _ordered(sentences)
    rng = _cluster_rng(seed, cluster_id)
    chosen = rng.sample([s.key for s in ordered], mask_count + copy_count)
    picked = [(key, 0.0) for key in chosen]
    return _result(Strategy.RANDOM, picked, mask_count, with_scores=False)


def select_sentences(
    sentences: Sequence[Sentence],
    config: SelectionConfig,
    cluster_id: str = "",
    pyramid: Sequence[PyramidEntry] | None = None,
) -> SelectionResult:
    """Dispatch to the configured strategy with counts derived from the
    cluster size.  ``pyramid`` is required for the entity strategy."""
    total = len(sentences)
    mask_count = compute_mask_count(total, config.mask_ratio)
    copy_count = compute_copy_count(total, mask_count, config.copy_ratio)
    if not config.strategy.scores:
        if config.strategy is Strategy.LEAD:
            return select_lead(sentences, mask_count, copy_count)
        return select_random(sentences, mask_count, copy_count, config.seed, cluster_id)
    scorer = ClusterScorer(sentences, config.variant)
    if config.strategy is Strategy.PRINCIPLE:
        return select_principle(sentences, mask_count, copy_count, scorer)
    if pyramid is None:
        raise ValueError("entity_pyramid strategy requires a pyramid")
    return select_entity_pyramid(sentences, pyramid, mask_count, copy_count, scorer)
