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
uses.  It counts the n-grams of each document and of the whole cluster
once, and gives every sentence one n-gram profile (unigram and bigram
counts as plain dicts), built once and read by both scores.  Its
integer overlaps are the reference's, and its float operations run in
the same order, so its scores equal the reference's exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
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


def _profile(tokens: Sequence[str]) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """One sentence's unigram and bigram counts, as plain dicts.  A
    sentence is short, so a dict loop beats building a ``Counter``."""
    uni: dict[str, int] = {}
    for token in tokens:
        uni[token] = uni.get(token, 0) + 1
    bi: dict[tuple[str, str], int] = {}
    for gram in zip(tokens, tokens[1:]):
        bi[gram] = bi.get(gram, 0) + 1
    return uni, bi


def _overlap(cand: dict, ref: dict) -> int:
    """Clipped n-gram overlap: each n-gram counts at most as often as it
    appears in ``ref``."""
    overlap = 0
    for gram, count in cand.items():
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
    so is each sentence's n-gram profile, which both scores read.  The
    leave-one-out context for ``principle`` is derived from the totals
    by subtracting the sentence's own n-grams and patching the bigrams
    that straddle its edges.  Scores are memoized because the selection
    loop revisits sentences across entities.  Only sentences of the
    cluster the scorer was built from can be scored.
    """

    def __init__(self, sentences: Sequence[Sentence], variant: SalienceVariant = DEFAULT_VARIANT):
        self.variant = variant
        ordered = _by_key(sentences)
        self._profiles = {s.key: _profile(s.tokens) for s in ordered}
        doc_tokens: dict[int, list[str]] = {}
        flat: list[str] = []
        self._prev_last: dict[tuple[int, int], str | None] = {}
        self._next_first: dict[tuple[int, int], str | None] = {}
        last_nonempty: Sentence | None = None
        for s in ordered:
            doc_tokens.setdefault(s.doc_index, []).extend(s.tokens)
            if s.tokens:
                self._prev_last[s.key] = last_nonempty.tokens[-1] if last_nonempty else None
                if last_nonempty is not None:
                    self._next_first[last_nonempty.key] = s.tokens[0]
                last_nonempty = s
            flat.extend(s.tokens)
        if last_nonempty is not None:
            self._next_first[last_nonempty.key] = None
        # (doc_index, unigrams, bigrams, length), in document order.
        self._docs = [
            (doc_index, Counter(tokens), _ngrams(tokens, 2), len(tokens))
            for doc_index, tokens in sorted(doc_tokens.items())
        ]
        self._total_uni = Counter(flat)
        self._total_bi = _ngrams(flat, 2)
        self._total_len = len(flat)
        self._principle_cache: dict[tuple[int, int], float] = {}
        self._cluster_cache: dict[tuple[int, int], float] = {}

    @staticmethod
    def _score(overlap: int, cand_total: int, ref_total: int) -> float:
        if overlap == 0 or cand_total == 0 or ref_total == 0:
            return 0.0
        precision = overlap / cand_total
        recall = overlap / ref_total
        return _f1(precision, recall)

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
        tokens = sentence.tokens
        ctx_len = self._total_len - len(tokens)
        s_uni, s_bi = self._profiles[key]

        total_uni = self._total_uni
        ov1 = 0
        for gram, count in s_uni.items():
            ctx = total_uni[gram] - count
            if ctx > 0:
                ov1 += count if count < ctx else ctx
        r1 = self._score(ov1, len(tokens), ctx_len)

        # Bigrams straddling the removed sentence: two vanish from the
        # context, one new seam bigram appears.
        seam: dict[tuple[str, str], int] = {}
        if tokens:
            prev_last = self._prev_last.get(key)
            next_first = self._next_first.get(key)
            if prev_last is not None:
                gram = (prev_last, tokens[0])
                seam[gram] = seam.get(gram, 0) - 1
            if next_first is not None:
                gram = (tokens[-1], next_first)
                seam[gram] = seam.get(gram, 0) - 1
            if prev_last is not None and next_first is not None:
                gram = (prev_last, next_first)
                seam[gram] = seam.get(gram, 0) + 1
        total_bi = self._total_bi
        ov2 = 0
        for gram, count in s_bi.items():
            ctx = total_bi[gram] - count + seam.get(gram, 0)
            if ctx > 0:
                ov2 += count if count < ctx else ctx
        r2 = self._score(ov2, max(0, len(tokens) - 1), max(0, ctx_len - 1))

        score = self._combine(r1, r2)
        self._principle_cache[key] = score
        return score

    def cluster(self, sentence: Sentence) -> float:
        key = sentence.key
        cached = self._cluster_cache.get(key)
        if cached is not None:
            return cached
        n = len(sentence.tokens)
        s_uni, s_bi = self._profiles[key]
        total = 0.0
        for doc_index, doc_uni, doc_bi, doc_len in self._docs:
            if doc_index == sentence.doc_index:
                continue
            r1 = self._score(_overlap(s_uni, doc_uni), n, doc_len)
            r2 = self._score(_overlap(s_bi, doc_bi), max(0, n - 1), max(0, doc_len - 1))
            total += self._combine(r1, r2)
        self._cluster_cache[key] = total
        return total
