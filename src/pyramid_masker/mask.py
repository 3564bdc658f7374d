"""Assembling the final pretraining example.

Documents are truncated to an equal share of the input budget, joined
with separator tokens, and each selected sentence is replaced by a
single mask token.  The target is the concatenation of the masked
sentences' original words (then the copied sentences'), in document
order, so a decoder can be trained to regenerate them in order.

All token counts here are plain whitespace tokens of the surface text:
each sentence's ``words``, split once at segmentation.  A downstream
trainer measuring in subwords must re-truncate to its own budget; these
limits exist to bound example size, not to match any particular
vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .segment import Sentence, require_document_order
from .selection import SelectionResult


class MaskingError(ValueError):
    """A cluster that cannot be assembled into a valid example."""


@dataclass(frozen=True)
class MaskConfig:
    input_token_limit: int = 4096
    output_token_limit: int = 1024
    doc_sep_token: str = "<doc-sep>"
    sent_mask_token: str = "[sent-mask]"
    lead_separator: bool = True

    def __post_init__(self) -> None:
        if self.input_token_limit <= 0 or self.output_token_limit <= 0:
            raise ValueError("token limits must be positive")
        for token in (self.doc_sep_token, self.sent_mask_token):
            if token.split() != [token]:
                raise ValueError(f"special token {token!r} must be one whitespace-free token")
        if self.doc_sep_token == self.sent_mask_token:
            raise ValueError("separator and mask tokens must differ")


@dataclass(frozen=True)
class MaskedExample:
    cluster_id: str
    input_tokens: tuple[str, ...]
    global_attention_indices: tuple[int, ...]
    target_tokens: tuple[str, ...]
    provenance: SelectionResult
    dropped_masked: int = 0


def truncate_per_document(
    sentences: Sequence[Sentence],
    input_token_limit: int,
    num_docs: int,
) -> list[list[Sentence]]:
    """Cut each document's sentence stream to its share of the budget.

    Takes ``sentences`` non-empty, in document order and from documents
    below ``num_docs`` (``ValueError`` otherwise), and returns one list
    of survivors per document, in document order.  One separator slot is
    reserved per document, and the remainder is split evenly.  Cuts
    happen at sentence boundaries: the first sentence that would cross
    the per-document budget is dropped along with everything after it.
    A document whose first sentence is already too long contributes
    ``[]``; if that leaves the whole cluster empty, the cluster is
    unusable.
    """
    require_document_order(sentences)
    if not sentences or not 0 <= sentences[0].doc_index <= sentences[-1].doc_index < num_docs:
        raise ValueError(f"no sentences, or a document index outside [0, {num_docs})")
    budget = (input_token_limit - num_docs) // num_docs
    documents: list[list[Sentence]] = [[] for _ in range(num_docs)]
    # Each document's remaining budget; it goes negative at the first
    # sentence that does not fit and stays negative after it.
    left = [budget] * num_docs
    for sentence in sentences:
        left[sentence.doc_index] -= len(sentence.words)
        if left[sentence.doc_index] >= 0:
            documents[sentence.doc_index].append(sentence)
    if not any(documents):
        raise MaskingError("cluster untruncatable: no sentence fits the per-document budget")
    return documents


def build_masked_example(
    cluster_id: str,
    documents: Sequence[Sequence[Sentence]],
    selection: SelectionResult,
    config: MaskConfig,
) -> MaskedExample:
    """Assemble input/target token streams from truncated documents.

    ``documents`` is what ``truncate_per_document`` returns; an empty
    document still gets its separator.  ``selection`` refers to the
    pre-truncation sentences; picks that did not survive truncation are
    dropped from the provenance here (masked ones are counted, copied
    ones simply disappear).  Losing every masked sentence is an error
    because the example would have an empty target, and so is a
    surviving sentence holding a special token as a word, because the
    example's separators and masks would be ambiguous.
    """
    by_key = {s.key: s for document in documents for s in document}
    masked = tuple(k for k in selection.masked if k in by_key)
    copied = tuple(k for k in selection.copied if k in by_key)
    dropped_masked = len(selection.masked) - len(masked)
    if not masked:
        raise MaskingError("empty target: every masked sentence was truncated away")
    kept = set(masked) | set(copied)
    provenance = replace(
        selection,
        masked=masked,
        copied=copied,
        scores={k: v for k, v in selection.scores.items() if k in kept},
    )

    masked_set = set(masked)
    input_tokens: list[str] = []
    attention: list[int] = []
    for doc, document in enumerate(documents):
        if config.lead_separator or doc > 0:
            attention.append(len(input_tokens))
            input_tokens.append(config.doc_sep_token)
        for sentence in document:
            for token in (config.doc_sep_token, config.sent_mask_token):
                # The substring test is the cheap one, and a word is a substring.
                if token in sentence.text and token in sentence.words:
                    raise MaskingError(f"special token {token!r} in document {doc}")
            if sentence.key in masked_set:
                input_tokens.append(config.sent_mask_token)
            else:
                input_tokens.extend(sentence.words)

    target_tokens: list[str] = []
    for key in masked + copied:
        target_tokens.extend(by_key[key].words)
    target_tokens = target_tokens[: config.output_token_limit]

    return MaskedExample(
        cluster_id=cluster_id,
        input_tokens=tuple(input_tokens),
        global_attention_indices=tuple(attention),
        target_tokens=tuple(target_tokens),
        provenance=provenance,
        dropped_masked=dropped_masked,
    )


@dataclass(frozen=True)
class RoundtripResult:
    """Truthy when the example reconstructs its cluster exactly;
    otherwise carries a first-divergence diagnostic."""

    ok: bool
    diagnostic: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _first_divergence(actual: Sequence[str], expected: Sequence[str], label: str) -> str:
    for i, (a, e) in enumerate(zip(actual, expected)):
        if a != e:
            return f"{label}: first divergence at {i}: {a!r} != {e!r}"
    return f"{label}: length {len(actual)} != {len(expected)}"


def roundtrip_check(
    example: MaskedExample,
    original_sentences: Sequence[Sentence],
    config: MaskConfig,
) -> RoundtripResult:
    """Verify an example against the sentences it was built from.

    ``original_sentences`` are in document order, and no document of a
    ``DocumentCluster`` lacks one, so the last one's document index gives
    the document count (none: ``ValueError``).  Re-runs truncation,
    rebuilds the expected target (masked then copied, document order,
    cut at the output limit), substitutes the masked originals back into
    the input, and compares against the truncated cluster text.  Also
    checks that the attention indices are exactly the separator
    positions.
    """
    num_docs = original_sentences[-1].doc_index + 1 if original_sentences else 0
    try:
        documents = truncate_per_document(original_sentences, config.input_token_limit, num_docs)
    except MaskingError as exc:
        return RoundtripResult(False, str(exc))
    by_key = {s.key: s for document in documents for s in document}

    missing = [k for k in (*example.provenance.masked, *example.provenance.copied) if k not in by_key]
    if missing:
        return RoundtripResult(False, f"provenance references non-surviving sentences: {missing}")

    expected_target: list[str] = []
    for key in example.provenance.masked + example.provenance.copied:
        expected_target.extend(by_key[key].words)
    expected_target = expected_target[: config.output_token_limit]
    if list(example.target_tokens) != expected_target:
        return RoundtripResult(
            False, _first_divergence(example.target_tokens, expected_target, "target")
        )

    sep_positions = [
        i for i, tok in enumerate(example.input_tokens) if tok == config.doc_sep_token
    ]
    if list(example.global_attention_indices) != sep_positions:
        return RoundtripResult(
            False,
            f"attention indices {list(example.global_attention_indices)} != "
            f"separator positions {sep_positions}",
        )

    substituted: list[str] = []
    masked_iter = iter(example.provenance.masked)
    for token in example.input_tokens:
        if token == config.sent_mask_token:
            try:
                key = next(masked_iter)
            except StopIteration:
                return RoundtripResult(False, "more mask tokens than masked sentences")
            substituted.extend(by_key[key].words)
        else:
            substituted.append(token)
    leftover = list(masked_iter)
    if leftover:
        return RoundtripResult(False, f"masked sentences never substituted: {leftover}")

    reference: list[str] = []
    for doc, document in enumerate(documents):
        if config.lead_separator or doc > 0:
            reference.append(config.doc_sep_token)
        for sentence in document:
            reference.extend(sentence.words)
    if substituted != reference:
        return RoundtripResult(
            False, _first_divergence(substituted, reference, "reconstructed input")
        )
    return RoundtripResult(True)
