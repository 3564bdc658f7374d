"""Self-contained ROUGE-1/2/L and the cluster's sentence-salience scorer.

``rouge_n`` and ``rouge_l`` are plain ROUGE over token lists, compared
as given.  ``ClusterScorer`` is the salience scorer: it scores the
sentences of one cluster, counting the n-grams of their text normalized
under a ``NormalizationConfig`` (see ``segment.normalize_tokens``), and
is the one place a sentence is normalized.  Under a ``SalienceVariant``
a score is the ROUGE-1 F1, the ROUGE-2 F1 or their mean, and it ranks
sentences two ways:

* principle -- ROUGE of a sentence against the concatenation of every
  *other* sentence in the cluster, in document order.
* cluster -- sum of per-document ROUGE against every document except
  the sentence's own, which rewards content repeated across documents
  rather than merely long sentences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import count
from operator import add
from typing import Sequence

from .segment import (
    DEFAULT_NORMALIZATION, NormalizationConfig, Sentence, normalize_tokens, require_document_order,
)

# ROUGE-L cost is quadratic, so very long sides are truncated.  4096-token
# inputs never hit this in practice; it is a guard against degenerate data.
LCS_TOKEN_CAP = 2000


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


_ZERO = RougeScore(0.0, 0.0, 0.0)


class SalienceVariant(Enum):
    R1_F1 = "r1_f1"
    R2_F1 = "r2_f1"
    MEAN_R1_R2_F1 = "mean_r1_r2_f1"


DEFAULT_VARIANT = SalienceVariant.MEAN_R1_R2_F1


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    # eval-pyramid's order: 2.0 * precision can overflow where 2.0 * recall does not.
    return 2.0 * recall * precision / (recall + precision)


def overlap_score(overlap: float, cand_total: float, ref_total: float) -> RougeScore:
    """Precision, recall and F1 of an overlap between a candidate and a
    reference of the given sizes; an empty side scores zero."""
    if cand_total == 0 or ref_total == 0:
        return _ZERO
    precision = overlap / cand_total
    recall = overlap / ref_total
    return RougeScore(precision, recall, _f1(precision, recall))


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    if n == 1:
        return Counter(tokens)
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _once_and_repeated(grams: Sequence[int]) -> tuple[set[int], dict[int, int]]:
    """Split one sentence's n-gram ids into the set of those that occur
    once and a dict counting those that repeat."""
    once = set(grams)
    if len(once) == len(grams):
        return once, {}
    seen: set = set()
    repeated: set = set()
    for gram in grams:
        if gram in seen:
            repeated.add(gram)
        else:
            seen.add(gram)
    once -= repeated
    return once, {gram: grams.count(gram) for gram in repeated}


def _combine(variant: SalienceVariant, r1: float, r2: float) -> float:
    """The salience of a ROUGE-1 and a ROUGE-2 F1 under ``variant``."""
    if variant is SalienceVariant.R1_F1:
        return r1
    if variant is SalienceVariant.R2_F1:
        return r2
    return (r1 + r2) / 2.0


def _overlap_f1(overlap: int, cand_total: int, ref_total: int) -> float:
    """The F1 of a clipped n-gram overlap, as ``overlap_score`` computes it.
    An overlap above 0 implies that both totals are above 0."""
    if overlap == 0:
        return 0.0
    return _f1(overlap / cand_total, overlap / ref_total)


def _clipped(counts: dict, ref: dict) -> int:
    """The clipped overlap of n-gram counts with ``ref``: each n-gram
    counts at most as often as it appears there."""
    overlap = 0
    for gram, count in counts.items():
        ref_count = ref.get(gram, 0)
        overlap += count if count < ref_count else ref_count
    return overlap


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """N-gram overlap with clipping: each n-gram counts at most as often
    as it appears in the reference."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    return overlap_score(_clipped(cand, ref), sum(cand.values()), sum(ref.values()))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev = cur
    return prev[-1]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence ROUGE over whole sequences."""
    candidate = candidate[:LCS_TOKEN_CAP]
    reference = reference[:LCS_TOKEN_CAP]
    return overlap_score(_lcs_length(candidate, reference), len(candidate), len(reference))


class ClusterScorer:
    """The principle and cluster scores of one cluster's sentences, from
    counts built once instead of re-walking the cluster per sentence.

    Each sentence's text is normalized under ``normalization`` once,
    as the scorer numbers the cluster's tokens and bigrams with integer
    ids, and per-document and whole-cluster n-gram counters are built
    once.  Per sentence the scorer keeps its [start, end) span of the
    cluster's tokens and, once scored, its two floats -- never its
    n-grams.  A sentence's n-gram profile is built from its span when it
    is scored: for unigrams and for bigrams, the set of grams the
    sentence has once and a dict of those it repeats.  A once-gram's
    clipped overlap with a reference is 1 exactly when the reference has
    it, so that part of an overlap is the size of a set intersection,
    and only the repeats are counted gram by gram.  The integer overlaps
    are ``rouge_n``'s, and the float operations on them run in its
    order, so the scores equal ROUGE from the definition exactly.

    The leave-one-out context for ``principle`` is derived from the
    totals by subtracting the sentence's own n-grams and patching the
    bigrams that straddle its edges.  ``cluster`` computes both scores
    from one profile and keeps them as one memo entry per sentence,
    because the selection loop revisits sentences across entities and
    the fallback then asks for the principle score of the candidates it
    did not pick.  ``principle`` only reads that memo: a sentence
    ``cluster`` never saw gets its principle score from a profile of its
    own, which is not kept.  The scorer is built from a cluster's
    sentences in document order, and only those sentences can be scored.
    """

    def __init__(
        self,
        sentences: Sequence[Sentence],
        variant: SalienceVariant = DEFAULT_VARIANT,
        normalization: NormalizationConfig = DEFAULT_NORMALIZATION,
    ):
        self.variant = variant
        require_document_order(sentences)
        # The cluster's normalized tokens, with each sentence's
        # [start, end) in them and each document's.
        flat: list[str] = []
        self._spans: dict[tuple[int, int], tuple[int, int]] = {}
        doc_spans: dict[int, list[int]] = {}
        for s in sentences:
            start = len(flat)
            flat.extend(normalize_tokens(s.text, normalization))
            end = len(flat)
            self._spans[s.key] = (start, end)
            doc_spans.setdefault(s.doc_index, [start, end])[1] = end
        # Every token of the cluster gets an integer id, and the bigram
        # (a, b) the id a * V + b, so the bigrams are counted, hashed and
        # intersected as ints, and the bigrams of a stretch of the
        # cluster are a slice of one list.
        index = dict(zip(dict.fromkeys(flat), count()))
        vocabulary = len(index)
        ids = list(map(index.__getitem__, flat))
        bigram_ids = list(map(add, map(vocabulary.__mul__, ids), ids[1:]))
        self._vocabulary = vocabulary
        self._ids = ids
        self._bigram_ids = bigram_ids
        # (doc_index, unigrams, their key set, bigrams, their key set,
        # unigram total, bigram total), in document order.
        self._docs = []
        for doc_index, (start, end) in doc_spans.items():
            uni = Counter(ids[start:end])
            bi = Counter(bigram_ids[start : max(start, end - 1)])
            length = end - start
            self._docs.append((doc_index, uni, set(uni), bi, set(bi), length, max(0, length - 1)))
        self._total_uni = Counter(ids)
        self._total_bi = Counter(bigram_ids)
        self._total_len = len(flat)
        # The grams the cluster holds more than once: a gram a sentence
        # holds once is in its leave-one-out context exactly when it is
        # one of these (bigrams at the sentence's seams aside).
        self._shared_uni = {gram for gram, n in self._total_uni.items() if n > 1}
        self._shared_bi = {gram for gram, n in self._total_bi.items() if n > 1}
        # key -> (cluster score, principle score), filled by ``cluster``.
        self._scores: dict[tuple[int, int], tuple[float, float]] = {}

    def _profile(self, start: int, end: int) -> tuple:
        """The n-gram profile of the tokens in [start, end): the once-set
        and repeat dict of their unigrams, then of their bigrams."""
        return (
            *_once_and_repeated(self._ids[start:end]),
            *_once_and_repeated(self._bigram_ids[start : max(start, end - 1)]),
        )

    def _principle(self, start: int, end: int, profile: tuple) -> float:
        once_uni, repeated_uni, once_bi, repeated_bi = profile
        n = end - start
        ctx_len = self._total_len - n

        ov1 = len(once_uni & self._shared_uni)
        total_uni = self._total_uni
        for gram, count in repeated_uni.items():
            ctx = total_uni[gram] - count
            if ctx > 0:
                ov1 += count if count < ctx else ctx

        # Bigrams straddling the removed sentence: two vanish from the
        # context, one new seam bigram appears.
        seam: dict[int, int] = {}
        if n:
            has_prev = start > 0
            has_next = end < self._total_len
            if has_prev:
                gram = self._bigram_ids[start - 1]
                seam[gram] = seam.get(gram, 0) - 1
            if has_next:
                gram = self._bigram_ids[end - 1]
                seam[gram] = seam.get(gram, 0) - 1
            if has_prev and has_next:
                gram = self._ids[start - 1] * self._vocabulary + self._ids[end]
                seam[gram] = seam.get(gram, 0) + 1
        total_bi = self._total_bi
        ov2 = len(once_bi & self._shared_bi)
        for gram, shift in seam.items():
            if shift and gram in once_bi:
                # The intersection counted the gram as if unshifted.
                ctx = total_bi[gram] - 1
                ov2 += (ctx + shift > 0) - (ctx > 0)
        for gram, count in repeated_bi.items():
            ctx = total_bi[gram] - count + seam.get(gram, 0)
            if ctx > 0:
                ov2 += count if count < ctx else ctx

        r1 = _overlap_f1(ov1, n, ctx_len)
        return _combine(self.variant, r1, _overlap_f1(ov2, max(0, n - 1), max(0, ctx_len - 1)))

    def principle(self, sentence: Sentence) -> float:
        scored = self._scores.get(sentence.key)
        if scored is not None:
            return scored[1]
        start, end = self._spans[sentence.key]
        return self._principle(start, end, self._profile(start, end))

    def cluster(self, sentence: Sentence) -> float:
        key = sentence.key
        scored = self._scores.get(key)
        if scored is not None:
            return scored[0]
        start, end = self._spans[key]
        n = end - start
        n_bi = max(0, n - 1)
        profile = self._profile(start, end)
        once_uni, repeated_uni, once_bi, repeated_bi = profile
        variant = self.variant
        total = 0.0
        for doc_index, uni, uni_keys, bi, bi_keys, doc_len, doc_bi_len in self._docs:
            if doc_index == sentence.doc_index:
                continue
            ov1 = len(once_uni & uni_keys) + _clipped(repeated_uni, uni)
            ov2 = len(once_bi & bi_keys) + _clipped(repeated_bi, bi)
            total += _combine(variant, _overlap_f1(ov1, n, doc_len), _overlap_f1(ov2, n_bi, doc_bi_len))
        self._scores[key] = (total, self._principle(start, end, profile))
        return total
