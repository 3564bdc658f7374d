"""Checks of `mask` output against computations made apart from the program.

The checker works from the sentence lists the generator wrote, not from
the program's segmentation, and re-derives from the method's
definitions everything it compares: per-document truncation, the
assembled input, the separator positions, the target, the mask and copy
counts, ROUGE-1/2 F1, cluster ROUGE, the principle score, the pyramid
built from annotations and the walk over it.

Two pieces come from the program on purpose: the Porter stemmer (a
published algorithm with its own tests) used to normalize tokens for
ROUGE, and, for clusters whose entities are rule-extracted, the pyramid
from the public ``extract_entities``/``build_pyramid`` functions.
"""

from __future__ import annotations

import string
import unicodedata
from collections import Counter
from typing import Callable

INPUT_LIMIT = 4096
OUTPUT_LIMIT = 1024
MASK_RATIO = 0.15
COPY_RATIO = 0.15
DOC_SEP = "<doc-sep>"
SENT_MASK = "[sent-mask]"

Key = tuple[int, int]


class CheckFailure(Exception):
    pass


def _fail(cluster_id: str, what: str) -> None:
    raise CheckFailure(f"{cluster_id}: {what}")


# ---------------------------------------------------------------------------
# truncation and assembly


def truncate(docs: list[list[str]], limit: int = INPUT_LIMIT) -> list[list[str]]:
    """Each document keeps its leading sentences while their whitespace
    token total fits (limit - documents) // documents."""
    budget = (limit - len(docs)) // len(docs)
    kept_docs = []
    for sentences in docs:
        kept: list[str] = []
        used = 0
        for sentence in sentences:
            cost = len(sentence.split())
            if used + cost > budget:
                break
            kept.append(sentence)
            used += cost
        kept_docs.append(kept)
    return kept_docs


def _words(truncated: list[list[str]], keys: list[Key]) -> list[str]:
    return [w for d, j in keys for w in truncated[d][j].split()]


def read_record(record: dict, cluster: dict, strategy: str) -> tuple[list[Key], list[Key] | None]:
    """Check one record's shape against the checker's own truncation.

    Walks the input against the truncated documents: each sentence is
    either present word for word or stands as one mask token.  The
    target must then begin with the masked sentences in order, so
    putting them back in place of the mask tokens rebuilds the truncated
    documents.  Returns the masked keys and, when the record carries
    scores, the copied keys (scored picks that are not masked).
    """
    cid = cluster["cluster_id"]
    if record.get("cluster_id") != cid:
        _fail(cid, f"record for {record.get('cluster_id')!r} in its place")
    tokens = record["input"]
    target = record["target"]
    if len(tokens) > INPUT_LIMIT:
        _fail(cid, f"input has {len(tokens)} tokens, limit {INPUT_LIMIT}")
    if len(target) > OUTPUT_LIMIT:
        _fail(cid, f"target has {len(target)} tokens, limit {OUTPUT_LIMIT}")
    separators = [i for i, tok in enumerate(tokens) if tok == DOC_SEP]
    if record["global_attention"] != separators:
        _fail(cid, "global_attention is not the <doc-sep> positions")

    truncated = truncate(cluster["docs"])
    masked: list[Key] = []
    pos = 0
    for d, sentences in enumerate(truncated):
        if pos >= len(tokens) or tokens[pos] != DOC_SEP:
            _fail(cid, f"no <doc-sep> opening document {d}")
        pos += 1
        for j, sentence in enumerate(sentences):
            words = sentence.split()
            if pos < len(tokens) and tokens[pos] == SENT_MASK:
                masked.append((d, j))
                pos += 1
            elif tokens[pos : pos + len(words)] == words:
                pos += len(words)
            else:
                _fail(cid, f"input diverges from truncated document {d} at sentence {j}")
    if pos != len(tokens):
        _fail(cid, f"input has {len(tokens) - pos} tokens past the truncated documents")
    if not masked:
        _fail(cid, "no masked sentence")

    meta = record["meta"]
    if meta.get("strategy") != strategy:
        _fail(cid, f"strategy {meta.get('strategy')!r}, expected {strategy!r}")
    if not isinstance(meta.get("dropped_masked"), int) or meta["dropped_masked"] < 0:
        _fail(cid, "dropped_masked is not a count")

    masked_words = _words(truncated, masked)
    if target[: len(masked_words)] != masked_words[:OUTPUT_LIMIT]:
        _fail(cid, "target does not start with the masked sentences in order")

    copied = None
    if "scores" in meta:
        scored = {tuple(int(x) for x in k.split(":")) for k in meta["scores"]}
        if not set(masked) <= scored:
            _fail(cid, "a masked sentence has no score")
        copied = sorted(scored - set(masked))
        if target != _words(truncated, masked + copied)[:OUTPUT_LIMIT]:
            _fail(cid, "target is not the masked then the copied sentences")
    return masked, copied


# ---------------------------------------------------------------------------
# selection from the definitions


def counts(total: int) -> tuple[int, int]:
    """Mask count: the ratio rounded half up, at least one, leaving one
    sentence unmasked when there are two or more.  Copy count: the copy
    ratio rounded half up, at most what is left."""
    if total == 1:
        m = 1
    else:
        m = min(max(1, int(MASK_RATIO * total + 0.5)), total - 1)
    c = min(int(COPY_RATIO * total + 0.5), total - m)
    return m, c


_ASCII_PUNCT = str.maketrans({c: " " for c in string.punctuation})


def normalize(text: str, stem: Callable[[str], str]) -> list[str]:
    """Lowercase, punctuation to spaces, whitespace split, stem."""
    text = text.lower().translate(_ASCII_PUNCT)
    if not text.isascii():
        text = "".join(" " if unicodedata.category(ch).startswith("P") else ch for ch in text)
    return [stem(word) for word in text.split()]


def _f1(overlap: int, cand_total: int, ref_total: int) -> float:
    if overlap == 0 or cand_total == 0 or ref_total == 0:
        return 0.0
    precision = overlap / cand_total
    recall = overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def profile(tokens: list[str]) -> tuple[Counter, Counter, int]:
    """Unigram counts, bigram counts and length of a token sequence."""
    return Counter(tokens), Counter(zip(tokens, tokens[1:])), len(tokens)


def _overlap(cand: Counter, ref: Counter) -> int:
    return sum(min(n, ref[gram]) for gram, n in cand.items())


def salience(cand: tuple[Counter, Counter, int], ref: tuple[Counter, Counter, int]) -> float:
    """Mean of ROUGE-1 F1 and ROUGE-2 F1, with clipped counts."""
    r1 = _f1(_overlap(cand[0], ref[0]), cand[2], ref[2])
    r2 = _f1(_overlap(cand[1], ref[1]), max(0, cand[2] - 1), max(0, ref[2] - 1))
    return (r1 + r2) / 2.0


def contains_at_boundaries(text: str, entity: str) -> bool:
    """``entity`` occurs in the case-folded, whitespace-collapsed text
    with no letter, digit or underscore touching either end."""
    hay = " ".join(text.split()).casefold()
    start = 0
    while True:
        i = hay.find(entity, start)
        if i < 0:
            return False
        end = i + len(entity)
        before = hay[i - 1] if i else " "
        after = hay[end] if end < len(hay) else " "
        if not (before.isalnum() or before == "_") and not (after.isalnum() or after == "_"):
            return True
        start = i + 1


def annotation_pyramid(cluster: dict) -> list[str]:
    """Entities ordered by distinct-document count (those in one document
    dropped), then earliest location, then text.  An annotation sits in
    the first sentence of its document containing it, case-insensitively."""
    docs_of: dict[str, set[int]] = {}
    places: dict[str, set[Key]] = {}
    for ann in cluster["entities"]:
        needle = " ".join(ann["surface"].split()).casefold()
        for j, sentence in enumerate(cluster["docs"][ann["doc"]]):
            if needle in " ".join(sentence.split()).casefold():
                docs_of.setdefault(needle, set()).add(ann["doc"])
                places.setdefault(needle, set()).add((ann["doc"], j))
                break
    ranked = [e for e in docs_of if len(docs_of[e]) >= 2]
    ranked.sort(key=lambda e: (-len(docs_of[e]), min(places[e]), e))
    return ranked


class Selector:
    """Brute-force selection over one cluster's generated sentences."""

    def __init__(self, cluster: dict, stem: Callable[[str], str]):
        self.cluster = cluster
        self.keys: list[Key] = [
            (d, j) for d, sentences in enumerate(cluster["docs"]) for j in range(len(sentences))
        ]
        self.text = {
            (d, j): text
            for d, sentences in enumerate(cluster["docs"])
            for j, text in enumerate(sentences)
        }
        self.tokens = {k: normalize(self.text[k], stem) for k in self.keys}
        self.profiles = {k: profile(self.tokens[k]) for k in self.keys}
        self.doc_profiles = [
            profile([t for j in range(len(sentences)) for t in self.tokens[(d, j)]])
            for d, sentences in enumerate(cluster["docs"])
        ]

    def cluster_rouge(self, key: Key) -> float:
        """Sum of salience against every other document, in document order."""
        total = 0.0
        for d, doc in enumerate(self.doc_profiles):
            if d != key[0]:
                total += salience(self.profiles[key], doc)
        return total

    def principle(self, key: Key) -> float:
        """Salience against all other sentences joined in order."""
        context = [t for k in self.keys if k != key for t in self.tokens[k]]
        return salience(self.profiles[key], profile(context))

    def lead(self) -> tuple[list[Key], list[Key]]:
        m, c = counts(len(self.keys))
        return sorted(self.keys[:m]), sorted(self.keys[m : m + c])

    def entity_pyramid(self, pyramid: list[str]) -> tuple[list[Key], list[Key], bool, dict]:
        m, c = counts(len(self.keys))
        need = m + c
        picked: list[Key] = []
        scores: dict[Key, float] = {}
        for entity in pyramid:
            if len(picked) == need:
                break
            best, best_score = None, -1.0
            for key in self.keys:
                if key in scores or not contains_at_boundaries(self.text[key], entity):
                    continue
                score = self.cluster_rouge(key)
                if score > best_score:
                    best, best_score = key, score
            if best is not None:
                picked.append(best)
                scores[best] = best_score
        fallback = len(picked) < need
        if fallback:
            rest = [(-self.principle(k), k) for k in self.keys if k not in scores]
            rest.sort()
            for negative, key in rest[: need - len(picked)]:
                picked.append(key)
                scores[key] = -negative
        return sorted(picked[:m]), sorted(picked[m:]), fallback, scores


def check_selection(
    record: dict,
    cluster: dict,
    masked: list[Key],
    copied: list[Key] | None,
    strategy: str,
    stem: Callable[[str], str],
    rules_pyramid: Callable[[dict], list[str]],
) -> None:
    """Compare the record's picks with the brute-force selection, after
    dropping picks the checker's truncation cuts away."""
    cid = cluster["cluster_id"]
    selector = Selector(cluster, stem)
    truncated = truncate(cluster["docs"])

    def survives(key: Key) -> bool:
        return key[1] < len(truncated[key[0]])

    if strategy == "lead":
        want_masked, want_copied = selector.lead()
        fallback, scores = False, {}
    else:
        if cluster["entities"]:
            pyramid = annotation_pyramid(cluster)
        else:
            pyramid = rules_pyramid(cluster)
        want_masked, want_copied, fallback, scores = selector.entity_pyramid(pyramid)
    dropped = sum(1 for k in want_masked if not survives(k))
    want_masked = [k for k in want_masked if survives(k)]
    want_copied = [k for k in want_copied if survives(k)]
    if masked != want_masked:
        _fail(cid, f"masked {masked} != brute force {want_masked}")
    meta = record["meta"]
    if meta["dropped_masked"] != dropped:
        _fail(cid, f"dropped_masked {meta['dropped_masked']} != brute force {dropped}")
    if meta["fallback_used"] != fallback:
        _fail(cid, f"fallback_used {meta['fallback_used']} != brute force {fallback}")
    if strategy == "lead":
        if record["target"] != _words(truncated, want_masked + want_copied)[:OUTPUT_LIMIT]:
            _fail(cid, "target is not the masked then the copied sentences")
        return
    if copied != want_copied:
        _fail(cid, f"copied {copied} != brute force {want_copied}")
    for key in want_masked + want_copied:
        got = meta["scores"][f"{key[0]}:{key[1]}"]
        if abs(got - scores[key]) > 1e-9 * max(1.0, abs(scores[key])):
            _fail(cid, f"score of {key} is {got}, brute force {scores[key]}")
