"""Seeded synthetic corpora shared by property and acceptance tests."""

from __future__ import annotations

import random

from pyramid_masker import DocumentCluster, EntityAnnotation

FILLER = [
    "fire", "crews", "wind", "acres", "ridge", "homes", "smoke", "burned",
    "valley", "road", "north", "grew", "containment", "evacuation", "alert",
    "dry", "heat", "storm", "line", "camp", "teams", "slope", "water",
]

# Capitalized nonce words the rule extractor will treat as names.
NONCE = [
    "Vexlor", "Quandor", "Brimfel", "Dorlith", "Marnex",
    "Tolvar", "Zephrin", "Caldor", "Nimbra", "Orvand",
]

# Capitalized function words that open a sentence before a name; the
# rule extractor sheds them from a sentence-initial run.
OPENERS = ["The", "In", "However", "After", "Meanwhile"]


def synthetic_cluster(
    rng: random.Random,
    cluster_id: str,
    num_docs: int | None = None,
    total_sentences: int | None = None,
    openers: bool = False,
) -> DocumentCluster:
    """A small cluster of filler sentences with planted entities.

    Entities are nonce capitalized words, each planted into a random
    subset of documents -- some end up in one document only (and must be
    pruned from the pyramid), others span several.  With ``openers``,
    about a third of the plantings open their sentence with one of
    ``OPENERS`` before the name ("The Vexlor ...").  Without it, the
    random draws, and so the clusters, are as they always were.
    """
    if num_docs is None:
        num_docs = rng.randint(2, 5)
    if total_sentences is None:
        total_sentences = rng.randint(max(5, num_docs), 30)
    counts = [1] * num_docs
    for _ in range(total_sentences - num_docs):
        counts[rng.randrange(num_docs)] += 1

    entities = rng.sample(NONCE, rng.randint(1, 4))
    homes = {e: rng.sample(range(num_docs), rng.randint(1, num_docs)) for e in entities}

    documents = []
    for doc in range(num_docs):
        sentences = [
            [rng.choice(FILLER) for _ in range(rng.randint(4, 9))]
            for _ in range(counts[doc])
        ]
        for entity, doc_set in homes.items():
            if doc in doc_set:
                for _ in range(rng.randint(1, 2)):
                    words = sentences[rng.randrange(counts[doc])]
                    if openers and rng.random() < 1 / 3:
                        words[:0] = [rng.choice(OPENERS), entity]
                    else:
                        words.insert(rng.randrange(len(words) + 1), entity)
        documents.append(" ".join(" ".join(words) + "." for words in sentences))
    return DocumentCluster(cluster_id=cluster_id, documents=tuple(documents))


def long_cluster(
    rng: random.Random,
    cluster_id: str,
    num_docs: int = 3,
    tokens_per_doc: int = 600,
) -> DocumentCluster:
    """A cluster with roughly fixed-size documents, for truncation and
    throughput scenarios."""
    documents = []
    for _ in range(num_docs):
        sentences = []
        tokens = 0
        while tokens < tokens_per_doc:
            words = [rng.choice(FILLER) for _ in range(rng.randint(8, 15))]
            if rng.random() < 0.5:
                words.insert(rng.randrange(len(words) + 1), rng.choice(NONCE))
            sentences.append(" ".join(words) + ".")
            tokens += len(words)
        documents.append(" ".join(sentences))
    return DocumentCluster(cluster_id=cluster_id, documents=tuple(documents))


# A three-document wildfire cluster shaped like the classic failure case
# for duplication-loving selection: an identical quote appears verbatim
# in two documents, while every document has its own distinct sentence
# naming the entity shared by all three.
QUOTE = (
    '"We are seeing extreme fire behavior and we ask everyone to stay '
    'clear of the canyon," the incident commander said.'
)

WILDFIRE_CLUSTER = DocumentCluster(
    cluster_id="wildfire",
    documents=(
        "The Pine Gulch fire burned thousands of acres across rugged terrain "
        "in Colorado on Tuesday. "
        "Crews worked through the night to hold the northern line. "
        "Officials said hot dry winds could push the fire toward the river.",
        "Evacuations were ordered as the fire spread across western Colorado "
        "ranch land. " + QUOTE + " "
        "Air tankers dropped retardant along the ridge through the afternoon.",
        "Fire managers in Colorado reported the blaze grew overnight despite "
        "cooler weather. " + QUOTE + " "
        "More crews are expected to arrive from neighboring states this week.",
    ),
)

# (doc_index, sent_index) of the duplicated quote and of the sentences
# that mention the shared entity.
QUOTE_KEYS = {(1, 1), (2, 1)}
ENTITY_KEYS = {(0, 0), (1, 0), (2, 0)}


# Pieces of the punctuation-rich corpus: names with commas, titles and
# initials, quotes of both styles, abbreviations the segmenter knows,
# non-ASCII letters, digits and underscores.
_PEOPLE = [
    "Émile Zola-Brandt", "Zoë Ørsted", "José Núñez", "Ana López",
    "Sean O'Neil", "Dr. Alma Reyes", "Jürgen Groß", "Ngozi Okafor",
]
_PLACES = [
    "Denver, Colorado", "Macon, Georgia", "Straße 9", "São Paulo",
    "İzmir", "Köln-Deutz", "Reno, Nevada",
]
_ORGS = [
    "U.S. Forest Service", "Team_7", "R2 Unit", "Pine Gulch Fire District",
    "ACME Corp.", "Ridge Line Crew",
]
_OPENERS = ["Officials", "However,", "Crews", "The", "Witnesses", "Meanwhile,"]


def _punctuated_sentence(rng: random.Random, mention: str | None) -> str:
    words = [rng.choice(FILLER) for _ in range(rng.randint(4, 10))]
    if mention is not None:
        words.insert(rng.randrange(len(words) + 1), mention)
    roll = rng.random()
    if roll < 0.15:
        words.insert(rng.randrange(len(words) + 1), f"{rng.randint(1, 12)} a.m.")
    elif roll < 0.3:
        words.insert(rng.randrange(len(words) + 1), f"{rng.randint(2, 9)},{rng.randint(100, 999)} acres")
    elif roll < 0.4:
        words.insert(rng.randrange(len(words) + 1), str(rng.randint(1990, 2024)))
    if len(words) > 3 and rng.random() < 0.5:
        i = rng.randrange(1, len(words) - 1)
        words[i] += rng.choice([",", ";", ":"])
    if rng.random() < 0.3:
        words.insert(0, rng.choice(_OPENERS))
    text = " ".join(words)
    text = text[0].upper() + text[1:]
    shape = rng.random()
    if shape < 0.15:
        return f'"{text}," {rng.choice(FILLER)} said.'
    if shape < 0.25:
        return f"“{text}”, officials said."
    if shape < 0.3:
        return f"‘{text}’!"
    if shape < 0.4:
        return text + "?"
    return text + "."


def punctuated_cluster(
    rng: random.Random, cluster_id: str, annotate: bool = False
) -> DocumentCluster:
    """A cluster of 2-4 documents whose shared names carry the
    punctuation and letters the plain synthetic text lacks.

    With ``annotate`` it also carries entity annotations: one per name
    and document that mentions it, written in a different case, plus
    one annotation its document never contains.
    """
    num_docs = rng.randint(2, 4)
    names = (
        rng.sample(_PEOPLE, 2) + rng.sample(_PLACES, 2) + rng.sample(_ORGS, 1)
    )
    homes = {n: rng.sample(range(num_docs), rng.randint(1, num_docs)) for n in names}
    documents = []
    annotations = []
    for doc in range(num_docs):
        present = [n for n in names if doc in homes[n]]
        sentences = []
        for _ in range(rng.randint(3, 8)):
            mention = rng.choice(present) if present and rng.random() < 0.6 else None
            sentences.append(_punctuated_sentence(rng, mention))
        separators = [rng.choice([" ", " ", " ", "\n", "\t", "  "]) for _ in sentences]
        documents.append("".join(s + sep for s, sep in zip(sentences, separators)).strip())
        for name in present:
            if name in documents[-1]:
                annotations.append(EntityAnnotation(name.upper(), doc))
    if not annotate:
        return DocumentCluster(cluster_id=cluster_id, documents=tuple(documents))
    annotations.append(EntityAnnotation("Nowhere Mentioned", 0))
    return DocumentCluster(
        cluster_id=cluster_id,
        documents=tuple(documents),
        entity_annotations=tuple(annotations),
    )
