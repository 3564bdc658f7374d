"""Self-contained ROUGE-1/2/L plus the two cluster-level salience scores.

Everything operates on pre-normalized token sequences (see
``segment.normalize_tokens``); nothing here tokenizes or stems.

Two salience scores rank sentences within a cluster:

* ``principle_score`` -- ROUGE of a sentence against the concatenation of
  every *other* sentence in the cluster.
* ``cluster_rouge`` -- sum of per-document ROUGE against every document
  except the sentence's own, which rewards content repeated across
  documents rather than merely long sentences.

The module-level functions are the readable reference implementations;
``ClusterScorer`` computes identical values and is what the pipeline
uses.  It numbers the cluster's tokens and bigrams with integer ids,
counts the n-grams of each document and of the whole cluster once, and
gives every sentence one n-gram profile, built once and read by both
scores: for unigrams and for bigrams, the set of grams the sentence
holds once and a dict of those it repeats.  The once-grams' overlap
with a reference is the size of a set intersection, and only the
repeats are counted in Python.  Its integer overlaps are the
reference's, and its float operations run in the same order, so its
scores equal the reference's exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count
from operator import add
from typing import Iterable, Sequence

from .segment import Sentence, by_position

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
    return 2.0 * precision * recall / (precision + recall)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    if n == 1:
        return Counter(tokens)
    if n == 2:
        return Counter(zip(tokens, tokens[1:]))
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _once_and_repeated(grams: Sequence[int]) -> tuple[set[int], dict[int, int] | None]:
    """Split one sentence's n-gram ids into the set of those that occur
    once and a dict counting those that repeat (None when none does)."""
    once = set(grams)
    if len(once) == len(grams):
        return once, None
    seen: set = set()
    repeated: set = set()
    for gram in grams:
        if gram in seen:
            repeated.add(gram)
        else:
            seen.add(gram)
    once -= repeated
    return once, {gram: grams.count(gram) for gram in repeated}


def _repeated_keys(counts: dict) -> set:
    """The keys of ``counts`` whose count is above 1."""
    return set(compress(counts, map((1).__lt__, counts.values())))


def _overlap_f1(overlap: int, cand_total: int, ref_total: int) -> float:
    """The F1 of a clipped n-gram overlap, as ``rouge_n`` computes it.
    An overlap above 0 implies that both totals are above 0."""
    if overlap == 0:
        return 0.0
    return _f1(overlap / cand_total, overlap / ref_total)


def _clipped(repeated: dict, ref: dict) -> int:
    """The clipped overlap of a sentence's repeated n-grams with ``ref``:
    each counts at most as often as it appears there."""
    overlap = 0
    for gram, count in repeated.items():
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
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return _ZERO
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    precision = overlap / cand_total
    recall = overlap / ref_total
    return RougeScore(precision, recall, _f1(precision, recall))


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
    if not candidate or not reference:
        return _ZERO
    lcs = _lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return RougeScore(precision, recall, _f1(precision, recall))


def salience(
    candidate: Sequence[str],
    reference: Sequence[str],
    variant: SalienceVariant = DEFAULT_VARIANT,
) -> float:
    """The scalar used to rank sentences, under the configured variant."""
    if variant is SalienceVariant.R1_F1:
        return rouge_n(candidate, reference, 1).f1
    if variant is SalienceVariant.R2_F1:
        return rouge_n(candidate, reference, 2).f1
    r1 = rouge_n(candidate, reference, 1).f1
    r2 = rouge_n(candidate, reference, 2).f1
    return (r1 + r2) / 2.0


def _by_key(sentences: Iterable[Sentence]) -> list[Sentence]:
    return sorted(sentences, key=by_position)


def principle_score(
    sentence: Sentence,
    context: Sequence[Sentence],
    variant: SalienceVariant = DEFAULT_VARIANT,
) -> float:
    """Score one sentence against the rest of its cluster.

    ``context`` must not contain the sentence itself; that is checked by
    object identity, so a verbatim duplicate elsewhere in the cluster
    still counts toward the context -- which is exactly why repeated
    boilerplate scores high here.  An empty context scores 0.
    """
    if any(other is sentence for other in context):
        raise ValueError("context must exclude the scored sentence")
    joined: list[str] = []
    for other in _by_key(context):
        joined.extend(other.tokens)
    return salience(sentence.tokens, joined, variant)


def cluster_rouge(
    sentence: Sentence,
    sentences: Sequence[Sentence],
    variant: SalienceVariant = DEFAULT_VARIANT,
) -> float:
    """Sum of per-document salience against every foreign document."""
    docs: dict[int, list[str]] = {}
    for other in _by_key(sentences):
        docs.setdefault(other.doc_index, []).extend(other.tokens)
    total = 0.0
    for doc_index in sorted(docs):
        if doc_index == sentence.doc_index:
            continue
        total += salience(sentence.tokens, docs[doc_index], variant)
    return total


class ClusterScorer:
    """Counter-based scorer giving the same numbers as the module
    functions without re-walking the cluster for every sentence.

    Per-document and whole-cluster n-gram counters are built once, and
    so is each sentence's n-gram profile, which both scores read.  A
    profile holds, for unigrams and for bigrams, the set of grams the
    sentence has once and a dict of those it repeats.  A once-gram's
    clipped overlap with a reference is 1 exactly when the reference
    has it, so that part of an overlap is the size of a set
    intersection, and only the repeats are counted gram by gram.

    The leave-one-out context for ``principle`` is derived from the
    totals by subtracting the sentence's own n-grams and patching the
    bigrams that straddle its edges.  Scores are memoized because the
    selection loop revisits sentences across entities.  Only sentences
    of the cluster the scorer was built from can be scored.
    """

    def __init__(self, sentences: Sequence[Sentence], variant: SalienceVariant = DEFAULT_VARIANT):
        self.variant = variant
        ordered = _by_key(sentences)
        flat: list[str] = []
        for s in ordered:
            flat.extend(s.tokens)
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

        # Each sentence's [start, end) in ``flat``, its profile, and each
        # document's span.
        self._spans: dict[tuple[int, int], tuple[int, int]] = {}
        self._profiles = {}
        doc_spans: dict[int, list[int]] = {}
        start = 0
        for s in ordered:
            end = start + len(s.tokens)
            self._spans[s.key] = (start, end)
            self._profiles[s.key] = (
                *_once_and_repeated(ids[start:end]),
                *_once_and_repeated(bigram_ids[start : max(start, end - 1)]),
            )
            doc_spans.setdefault(s.doc_index, [start, end])[1] = end
            start = end
        # (doc_index, unigrams, their key set, bigrams, their key set,
        # unigram total, bigram total), in document order.
        self._docs = []
        for doc_index, (start, end) in sorted(doc_spans.items()):
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
        self._shared_uni = _repeated_keys(self._total_uni)
        self._shared_bi = _repeated_keys(self._total_bi)
        self._principle_cache: dict[tuple[int, int], float] = {}
        self._cluster_cache: dict[tuple[int, int], float] = {}

    def _combine(self, r1: float, r2: float) -> float:
        if self.variant is SalienceVariant.R1_F1:
            return r1
        if self.variant is SalienceVariant.R2_F1:
            return r2
        return (r1 + r2) / 2.0

    def principle(self, sentence: Sentence) -> float:
        key = sentence.key
        cached = self._principle_cache.get(key)
        if cached is not None:
            return cached
        once_uni, repeated_uni, once_bi, repeated_bi = self._profiles[key]
        start, end = self._spans[key]
        n = end - start
        ctx_len = self._total_len - n

        ov1 = len(once_uni & self._shared_uni)
        if repeated_uni is not None:
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
        if repeated_bi is not None:
            for gram, count in repeated_bi.items():
                ctx = total_bi[gram] - count + seam.get(gram, 0)
                if ctx > 0:
                    ov2 += count if count < ctx else ctx

        score = self._combine(
            _overlap_f1(ov1, n, ctx_len), _overlap_f1(ov2, max(0, n - 1), max(0, ctx_len - 1))
        )
        self._principle_cache[key] = score
        return score

    def cluster(self, sentence: Sentence) -> float:
        key = sentence.key
        cached = self._cluster_cache.get(key)
        if cached is not None:
            return cached
        n = len(sentence.tokens)
        n_bi = max(0, n - 1)
        once_uni, repeated_uni, once_bi, repeated_bi = self._profiles[key]
        total = 0.0
        for doc_index, uni, uni_keys, bi, bi_keys, doc_len, doc_bi_len in self._docs:
            if doc_index == sentence.doc_index:
                continue
            ov1 = len(once_uni & uni_keys)
            if repeated_uni is not None:
                ov1 += _clipped(repeated_uni, uni)
            ov2 = len(once_bi & bi_keys)
            if repeated_bi is not None:
                ov2 += _clipped(repeated_bi, bi)
            total += self._combine(_overlap_f1(ov1, n, doc_len), _overlap_f1(ov2, n_bi, doc_bi_len))
        self._cluster_cache[key] = total
        return total
