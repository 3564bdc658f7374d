"""Independent reference implementations used only by the test suite.

Everything here is written from the definitions, on purpose in a
different style from the package (plain dicts and index loops, no
Counter, no shared helpers), so agreement between the two is meaningful
evidence rather than a tautology.
"""

from __future__ import annotations

import re

# The salience oracles score the package's own normalized tokens: they
# check the n-gram counting, and normalization is tested on its own.
# ``principle_oracle`` and ``cluster_rouge_oracle`` are the exact
# reference for ``ClusterScorer``: its scores must equal theirs with ``==``.
from pyramid_masker.segment import DEFAULT_NORMALIZATION, normalize_tokens


def ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def rouge_n_oracle(candidate, reference, n):
    """Returns (precision, recall, f1)."""
    cand = ngram_counts(list(candidate), n)
    ref = ngram_counts(list(reference), n)
    cand_total = 0
    for v in cand.values():
        cand_total += v
    ref_total = 0
    for v in ref.values():
        ref_total += v
    if cand_total == 0 or ref_total == 0:
        return (0.0, 0.0, 0.0)
    hit = 0
    for gram, k in cand.items():
        if gram in ref:
            hit += k if k < ref[gram] else ref[gram]
    p = hit / cand_total
    r = hit / ref_total
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return (p, r, f)


def lcs_length_oracle(a, b):
    """Full-table LCS, no memory tricks."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            elif table[i - 1][j] >= table[i][j - 1]:
                table[i][j] = table[i - 1][j]
            else:
                table[i][j] = table[i][j - 1]
    return table[len(a)][len(b)]


def rouge_l_oracle(candidate, reference, cap=2000):
    candidate = list(candidate)[:cap]
    reference = list(reference)[:cap]
    if len(candidate) == 0 or len(reference) == 0:
        return (0.0, 0.0, 0.0)
    lcs = lcs_length_oracle(candidate, reference)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return (p, r, f)


def variant_oracle(candidate, reference, variant):
    if variant == "r1_f1":
        return rouge_n_oracle(candidate, reference, 1)[2]
    if variant == "r2_f1":
        return rouge_n_oracle(candidate, reference, 2)[2]
    if variant == "mean_r1_r2_f1":
        one = rouge_n_oracle(candidate, reference, 1)[2]
        two = rouge_n_oracle(candidate, reference, 2)[2]
        return (one + two) / 2
    raise AssertionError(f"unknown variant {variant}")


def _key(sentence):
    return (sentence.doc_index, sentence.sent_index)


def principle_oracle(sentence, all_sentences, variant="mean_r1_r2_f1",
                     normalization=DEFAULT_NORMALIZATION):
    context = []
    for other in sorted(all_sentences, key=_key):
        if other is sentence:
            continue
        context.extend(normalize_tokens(other.text, normalization))
    return variant_oracle(normalize_tokens(sentence.text, normalization), context, variant)


def cluster_rouge_oracle(sentence, all_sentences, variant="mean_r1_r2_f1",
                         normalization=DEFAULT_NORMALIZATION):
    per_doc = {}
    for other in sorted(all_sentences, key=_key):
        per_doc.setdefault(other.doc_index, []).extend(normalize_tokens(other.text, normalization))
    tokens = normalize_tokens(sentence.text, normalization)
    total = 0.0
    for doc_index in sorted(per_doc):
        if doc_index == sentence.doc_index:
            continue
        total += variant_oracle(tokens, per_doc[doc_index], variant)
    return total


def _wordish(ch):
    return ch.isalnum() or ch == "_"


def contains_entity_oracle(sentence_text, entity):
    """Token-boundary containment, checked by scanning occurrences."""
    hay = " ".join(sentence_text.split()).casefold()
    start = 0
    while True:
        i = hay.find(entity, start)
        if i < 0:
            return False
        before_ok = i == 0 or not _wordish(hay[i - 1])
        end = i + len(entity)
        after_ok = end == len(hay) or not _wordish(hay[end])
        if before_ok and after_ok:
            return True
        start = i + 1


def provided_locator_oracle(docs, annotations):
    """Where each (surface, doc) annotation sits: the first sentence of
    ``docs[doc]`` whose whitespace-collapsed, case-folded text contains
    the surface folded the same way.  ``docs`` is a list of documents,
    each a list of sentence texts.  Returns the located
    (folded surface, doc, sentence) triples and the (surface, doc) pairs
    that sit nowhere, each list in annotation order."""
    located = []
    dropped = []
    for surface, doc in annotations:
        needle = " ".join(surface.split()).casefold()
        found = -1
        j = 0
        while j < len(docs[doc]):
            if needle in " ".join(docs[doc][j].split()).casefold():
                found = j
                break
            j += 1
        if found < 0:
            dropped.append((surface, doc))
        else:
            located.append((needle, doc, found))
    return located, dropped


# The punctuation a word sheds before its capital is tested: any of
# these from both ends, then any of the opening marks from the front.
ORACLE_TRAILING_PUNCT = ".,;:!?\"'’”)]}»›"
ORACLE_LEADING_PUNCT = "\"'‘“«‹([{"

# The first characters whose words the name-run scan strips and tests
# one by one, as the class was first written: everything outside ASCII
# and the punctuation above.
TESTED_FIRSTS_ORACLE = re.compile(
    r"[\x80-\U0010ffff" + re.escape(ORACLE_TRAILING_PUNCT + ORACLE_LEADING_PUNCT) + "]"
)


# The year and quantity patterns as first written, each opening with a
# lookbehind or a group.
YEAR_RE_ORACLE = re.compile(r"(?<!\d)[12]\d{3}(?!\d)")
QUANTITY_RE_ORACLE = re.compile(
    r"(?:\d{1,3}(?:,\d{3})+|\d+(?:\.\d+)?)\s*(?:"
    r"acres?|hectares?|miles?|kilometers?|km|meters?|feet|ft|"
    r"percent|kg|tons?|tonnes?|pounds?|lbs|"
    r"people|residents|homes?|houses?|buildings?|structures?|firefighters?|"
    r"dollars?|euros?|billion|million|thousand)\b",
    re.IGNORECASE,
)


def word_runs_oracle(text):
    """(token position, words) of each maximal run of capitalized
    words, checking every whitespace token in turn."""
    runs = []
    current = []
    current_start = 0
    tokens = text.split()
    for pos in range(len(tokens)):
        word = tokens[pos].strip(ORACLE_TRAILING_PUNCT).lstrip(ORACLE_LEADING_PUNCT)
        if len(word) > 0 and word[0].isupper() and word[0].isalpha():
            if not current:
                current_start = pos
            current.append(word)
        else:
            if current:
                runs.append((current_start, current))
            current = []
    if current:
        runs.append((current_start, current))
    return runs


# Words capitalized for grammatical reasons, not because they name
# anything, as the rule extractor lists them.
FUNCTION_WORDS_ORACLE = set(
    """
    a an the this that these those some any each every no
    i you he she it we they me him her us them my your his its our their
    who whom whose what which when where why how
    and but or nor so yet for if as at by in of on to up with
    from into onto over under after before during about against between
    through within without along across behind beyond near
    is are was were be been being am do does did has have had will would
    can could may might must shall should
    not only just even also still yet too very
    however meanwhile moreover nevertheless nonetheless furthermore
    finally then now here there yesterday today tomorrow
    """.split()
)


def rule_pyramid_oracle(sentences):
    """The rule extractor's pyramid from its documented rules, as
    (entity, document frequency, locations) triples.

    A mention is a maximal run of capitalized words, a year, or a
    number with its unit.  A run that opens its sentence sheds its
    leading function words, and a run of one function word is no
    mention.  Mentions are grouped by their text with whitespace
    collapsed and case folded; an entity seen in one document only is
    dropped.  Entries are ordered by document frequency, highest first,
    then by first (doc, sent) location, then by text.
    """
    places = {}
    for s in sentences:
        surfaces = []
        for start, words in word_runs_oracle(s.text):
            if start == 0:
                while len(words) > 0 and words[0].casefold() in FUNCTION_WORDS_ORACLE:
                    words = words[1:]
            if len(words) == 0:
                continue
            if len(words) == 1 and words[0].casefold() in FUNCTION_WORDS_ORACLE:
                continue
            surfaces.append(" ".join(words))
        for match in YEAR_RE_ORACLE.finditer(s.text):
            surfaces.append(match.group())
        for match in QUANTITY_RE_ORACLE.finditer(s.text):
            surfaces.append(match.group())
        for surface in surfaces:
            entity = " ".join(surface.split()).casefold()
            if entity not in places:
                places[entity] = []
            places[entity].append(_key(s))
    entries = []
    for entity, found in places.items():
        docs = set()
        for doc, _ in found:
            docs.add(doc)
        if len(docs) < 2:
            continue
        entries.append((entity, len(docs), tuple(sorted(set(found)))))
    entries.sort(key=lambda e: (-e[1], e[2][0], e[0]))
    return entries


# The characters a terminator run is made of and may carry after it.
SENTENCE_TERMINATORS_ORACLE = ".?!"
SENTENCE_CLOSERS_ORACLE = "\"'’”)]}»›"


def split_oracle(document, abbreviations):
    """The sentence texts of ``document`` by the documented rule.

    A sentence ends after a run of ``.?!`` plus the closing quotes and
    brackets right after it, when whitespace or the end of the text
    follows.  A run that is one period ends nothing when the whitespace
    token it closes, less its opening quotes and brackets, is in
    ``abbreviations`` in lower case, or when a digit precedes it and
    the first character past the whitespace is a digit.  The pieces
    between ends are stripped and the empty ones dropped.
    """
    n = len(document)
    ends = []
    i = 0
    while i < n:
        if document[i] not in SENTENCE_TERMINATORS_ORACLE:
            i += 1
            continue
        run_start = i
        while i < n and document[i] in SENTENCE_TERMINATORS_ORACLE:
            i += 1
        run_length = i - run_start
        while i < n and document[i] in SENTENCE_CLOSERS_ORACLE:
            i += 1
        if i < n and not document[i].isspace():
            continue
        if run_length == 1 and document[run_start] == ".":
            token_start = run_start
            while token_start > 0 and not document[token_start - 1].isspace():
                token_start -= 1
            word = document[token_start : run_start + 1]
            while len(word) > 0 and word[0] in ORACLE_LEADING_PUNCT:
                word = word[1:]
            if word.lower() in abbreviations:
                continue
            following = i
            while following < n and document[following].isspace():
                following += 1
            if (
                run_start > 0
                and document[run_start - 1].isdigit()
                and following < n
                and document[following].isdigit()
            ):
                continue
        ends.append(i)
    ends.append(n)
    texts = []
    start = 0
    for k in range(len(ends)):
        piece = document[start : ends[k]].strip()
        if len(piece) > 0:
            texts.append(piece)
        start = ends[k]
    return texts


def round_half_up_oracle(x):
    import math

    return int(math.floor(x + 0.5))


def counts_oracle(total, mask_ratio=0.15, copy_ratio=0.15):
    """(mask count, copy count) from the documented arithmetic."""
    assert total >= 1
    if total == 1:
        m = 1
    else:
        m = round_half_up_oracle(mask_ratio * total)
        if m < 1:
            m = 1
        if m > total - 1:
            m = total - 1
    c = round_half_up_oracle(copy_ratio * total)
    if c > total - m:
        c = total - m
    return m, c


def entity_pyramid_oracle(sentences, pyramid_entities, mask_count, copy_count,
                          variant="mean_r1_r2_f1"):
    """Exhaustive-scan selection: walk entities by the given order, score
    every untaken sentence containing the entity, take the argmax
    (earliest position on ties), one sentence per entity; top up from
    the principle ranking when entities run out.

    ``pyramid_entities`` is the ordered list of normalized entity
    strings.  Returns (masked sorted, copied sorted, fallback_used,
    score per picked key).
    """
    ordered = sorted(sentences, key=_key)
    need = mask_count + copy_count
    taken = []
    scores = {}
    crouge_cache = {}

    def crouge(s):
        k = _key(s)
        if k not in crouge_cache:
            crouge_cache[k] = cluster_rouge_oracle(s, sentences, variant)
        return crouge_cache[k]

    for entity in pyramid_entities:
        if len(taken) == need:
            break
        best = None
        best_score = None
        for s in ordered:
            if _key(s) in scores:
                continue
            if not contains_entity_oracle(s.text, entity):
                continue
            value = crouge(s)
            if best is None or value > best_score:
                best = s
                best_score = value
        if best is None:
            continue
        taken.append(_key(best))
        scores[_key(best)] = best_score

    fallback = False
    if len(taken) < need:
        fallback = True
        rest = [s for s in ordered if _key(s) not in scores]
        ranked = sorted(
            rest, key=lambda s: (-principle_oracle(s, sentences, variant), _key(s))
        )
        for s in ranked[: need - len(taken)]:
            taken.append(_key(s))
            scores[_key(s)] = principle_oracle(s, sentences, variant)

    masked = tuple(sorted(taken[:mask_count]))
    copied = tuple(sorted(taken[mask_count:]))
    return masked, copied, fallback, scores


def pyramid_arithmetic_oracle(weighted_coverage, gold_len, sys_len):
    """Spreadsheet-style pyramid score: (raw, recall, precision, f1)."""
    raw = 0.0
    for weight, fraction in weighted_coverage:
        raw += weight * fraction
    recall = raw / gold_len
    precision = raw / sys_len
    if recall + precision == 0:
        f1 = 0.0
    else:
        f1 = 2 * recall * precision / (recall + precision)
    return (raw, recall, precision, f1)
