"""Seeded corpus generators for the three benchmark workloads.

Each generator returns clusters whose documents are lists of sentence
strings: the document text the program sees is the sentences joined by
single spaces, and the sentence lists are the boundaries the output
checker truncates and reconstructs against.  Every sentence ends in
``.``, ``?`` or ``!`` (plus closing quotes) followed by a space or the
end of the document, and no period inside a sentence is followed by a
space unless it ends an abbreviation the segmenter knows ("Dr.",
"U.S.", "a.m.").  No sentence-final word is an abbreviation.

Nothing here imports the test suite, so editing a test cannot change a
workload.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# ---------------------------------------------------------------------------
# shapes shared by the two synthetic workloads

FILLER = [
    "flood", "river", "levee", "rain", "banks", "town", "bridge", "crest",
    "pumps", "sandbags", "gauge", "inches", "water", "rose", "fields", "roads",
    "closed", "crews", "storm", "surge", "warning", "drains", "barges",
]
NONCE = [
    "Ostrava", "Kelmir", "Draven", "Sulnor", "Purrick",
    "Halvex", "Trenmor", "Ysolde", "Bracken", "Lurien",
]


def _long_cluster(rng: random.Random, cluster_id: str) -> dict:
    """3 documents of ~600 filler tokens; half the sentences carry a
    capitalized nonce word the rule extractor treats as a name."""
    docs = []
    for _ in range(3):
        sentences: list[str] = []
        tokens = 0
        while tokens < 600:
            words = [rng.choice(FILLER) for _ in range(rng.randint(8, 15))]
            if rng.random() < 0.5:
                words.insert(rng.randrange(len(words) + 1), rng.choice(NONCE))
            sentences.append(" ".join(words) + ".")
            tokens += len(words)
        docs.append(sentences)
    return {"cluster_id": cluster_id, "docs": docs, "entities": None}


def _small_cluster(rng: random.Random, cluster_id: str) -> dict:
    """2-5 documents, 5-30 short filler sentences in all, with 1-4 nonce
    names planted into random subsets of the documents."""
    num_docs = rng.randint(2, 5)
    total = rng.randint(max(5, num_docs), 30)
    counts = [1] * num_docs
    for _ in range(total - num_docs):
        counts[rng.randrange(num_docs)] += 1
    names = rng.sample(NONCE, rng.randint(1, 4))
    homes = {name: rng.sample(range(num_docs), rng.randint(1, num_docs)) for name in names}
    docs = []
    for doc in range(num_docs):
        sentences = [
            [rng.choice(FILLER) for _ in range(rng.randint(4, 9))] for _ in range(counts[doc])
        ]
        for name, doc_set in homes.items():
            if doc in doc_set:
                for _ in range(rng.randint(1, 2)):
                    words = sentences[rng.randrange(counts[doc])]
                    words.insert(rng.randrange(len(words) + 1), name)
        docs.append([" ".join(words) + "." for words in sentences])
    return {"cluster_id": cluster_id, "docs": docs, "entities": None}


# ---------------------------------------------------------------------------
# news-like text

_STEMS = """
    account admit advance agree allow appear approve argue arrive assess attack
    attend award balance battle benefit board border borrow budget build burden
    campaign cancel capture carry cause center challenge change charge check
    claim class climb close collect command comment commit compare complain
    concern conduct confirm connect consider contract control convert council
    count cover credit crisis damage debate decide declare defend delay deliver
    demand deploy design detail develop direct discuss dispute district divide
    document double draft drill drive economy effect elect employ enforce engine
    expand expect explain export extend factor family farm figure finance follow
    force forecast form found frame fund gather govern grant ground growth guard
    handle harvest health hire hold house impact import improve include increase
    inform injure inspect insure intend invest invite join judge labor launch lead
    level limit listen local manage market measure meet member merge mission
    monitor motion move murder nation notice number object offer office operate
    order organize owner package partner patient pause percent permit phase plan
    plant point police policy power prepare present press price print prison
    produce profit program project protect protest prove provide public publish
    push quarter question raise reach react record recover reduce reform region
    release remain remove repair report request rescue research resign resolve
    respond restore result retire return review reward river route rule sample
    school season secure select sense serve settle share shift shortage signal
    source speak spend stand start state station steady strike student study
    supply support survey suspect system target teach tenant test threat trade
    train transfer travel treat trial trust union update value vote wage warn
    water weather witness worker""".split()
_SUFFIXES = [
    "", "s", "ed", "ing", "er", "ers", "ment", "ments", "al", "ally",
    "ation", "ations", "ive", "ively", "ness", "able", "ful", "less",
]
_FUNCTION = """
    the of and to in a that for on with as by at from it was is said were has
    have had will would but not this which after over about more than also
    into its their they its been under while new could during other some up
    out two three most first last against between before since""".split()
_OPENERS = [
    "Officials", "Residents", "Analysts", "Investigators", "Lawmakers",
    "Engineers", "Witnesses", "Organizers", "Regulators", "Volunteers",
]
_FIRST = [
    "Alma", "Bruno", "Celia", "Dmitri", "Elena", "Farid", "Greta", "Hector",
    "Ingrid", "Jonas", "Keiko", "Lionel", "Marisol", "Nadia", "Omar", "Priya",
    "Quentin", "Rosa", "Stefan", "Tamsin", "Ulrich", "Vera", "Wendell", "Yusuf",
]
_LAST = [
    "Reyes", "Okafor", "Lindqvist", "Moreau", "Castellano", "Hargrove",
    "Nakamura", "Petrov", "Abernathy", "Delacroix", "Fitzgerald", "Galloway",
    "Iverson", "Kowalski", "Mbeki", "Ostrowski", "Quigley", "Sorensen",
    "Tanaka", "Whitfield", "Yilmaz", "Zamora", "Brennan", "Calloway",
]
_TITLES = ["Dr.", "Sen.", "Gov.", "Gen.", "Prof.", "Rep."]
_CITIES = [
    ("Denver", "Colorado"), ("Tulsa", "Oklahoma"), ("Fresno", "California"),
    ("Spokane", "Washington"), ("Duluth", "Minnesota"), ("Macon", "Georgia"),
    ("Provo", "Utah"), ("Reno", "Nevada"), ("Akron", "Ohio"), ("Boise", "Idaho"),
    ("Peoria", "Illinois"), ("Mobile", "Alabama"), ("Billings", "Montana"),
    ("Salem", "Oregon"), ("Laredo", "Texas"), ("Bangor", "Maine"),
]
_ORG_HEADS = [
    "Harlow", "Northfield", "Crestline", "Ambrose", "Pinecrest", "Redwater",
    "Silverton", "Blackmoor", "Eastgate", "Westbury", "Highmark", "Stonebridge",
]
_ORG_TAILS = [
    "Industries", "Water Authority", "Medical Center", "Transit District",
    "Holdings", "Energy Cooperative", "School Board", "Port Commission",
]
_UNITS = ["acres", "homes", "miles", "residents", "tons", "percent", "people", "buildings"]


def _vocabulary() -> tuple[list[str], list[float]]:
    """Several thousand word forms with Zipf-like cumulative weights:
    function words first (most frequent), then suffixed stems."""
    words = list(dict.fromkeys(_FUNCTION))
    for suffix in _SUFFIXES:
        for stem in _STEMS:
            words.append(stem + suffix)
    words = list(dict.fromkeys(words))
    cumulative = []
    total = 0.0
    for rank in range(len(words)):
        total += 1.0 / (rank + 2) ** 0.9
        cumulative.append(total)
    return words, cumulative


_VOCAB, _CUM = _vocabulary()
# Sentence-final words: content forms of five letters or more, none of
# which is an abbreviation the segmenter would refuse to split after.
_FINAL = [w for w in _VOCAB if len(w) >= 5 and w not in _FUNCTION]


def _words(rng: random.Random, n: int) -> list[str]:
    return rng.choices(_VOCAB, cum_weights=_CUM, k=n)


def _number(rng: random.Random) -> str:
    value = rng.choice([rng.randint(2, 99), rng.randint(100, 999), rng.randint(1000, 99999)])
    return f"{value:,}"


@dataclass(frozen=True)
class _Entity:
    surface: str  # exactly as written in the text
    phrases: tuple[str, ...]  # ways the text mentions it


def _news_entities(rng: random.Random) -> list[_Entity]:
    entities = []
    for first, last in list(zip(rng.sample(_FIRST, 3), rng.sample(_LAST, 3)))[: rng.randint(2, 3)]:
        name = f"{first} {last}"
        titled = f"{rng.choice(_TITLES)} {name}"
        entities.append(_Entity(name, (name, titled, f"{name} said")))
    for city, state in rng.sample(_CITIES, rng.randint(1, 3)):
        place = f"{city}, {state}"
        entities.append(_Entity(place, (f"in {place}", f"near {place}", place)))
    for head in rng.sample(_ORG_HEADS, rng.randint(1, 2)):
        org = f"{head} {rng.choice(_ORG_TAILS)}"
        entities.append(_Entity(org, (f"the {org}", org)))
    year = str(rng.randint(1990, 2024))
    entities.append(_Entity(year, (f"in {year}", f"since {year}")))
    for _ in range(rng.randint(1, 2)):
        qty = f"{_number(rng)} {rng.choice(_UNITS)}"
        entities.append(_Entity(qty, (qty, f"about {qty}")))
    return entities


def _news_sentence(rng: random.Random, inserts: list[str]) -> str:
    """One news-like sentence; ``inserts`` are phrases placed into it."""
    body = _words(rng, rng.randint(6, 22))
    extras = list(inserts)
    roll = rng.random()
    if roll < 0.10:
        extras.append(f"{rng.randint(1, 99)}.{rng.randint(1, 99)} percent")
    elif roll < 0.18:
        extras.append(f"{rng.randint(1, 12)} {rng.choice(['a.m.', 'p.m.'])} on")
    elif roll < 0.26:
        extras.append(f"U.S. {rng.choice(_VOCAB[60:400])}")
    elif roll < 0.32:
        extras.append(f"{_number(rng)} {rng.choice(_UNITS)}")
    for phrase in extras:
        body.insert(rng.randrange(len(body) + 1), phrase)
    if rng.random() < 0.45 and len(body) > 3:
        i = rng.randrange(1, len(body) - 1)
        body[i] = body[i] + ","
    body.append(rng.choice(_FINAL))
    opener = rng.random()
    if opener < 0.15:
        body.insert(0, rng.choice(_OPENERS))
    elif opener < 0.25:
        body.insert(0, rng.choice(_TITLES) + " " + rng.choice(_LAST))
    text = " ".join(body)
    text = text[0].upper() + text[1:]
    shape = rng.random()
    if shape < 0.08:
        speaker = rng.choice(_OPENERS).lower()
        return f'"{text}," {speaker} said.'
    if shape < 0.13:
        return f'{rng.choice(_OPENERS)} said, "{text}."'
    if shape < 0.17:
        return text + "?"
    return text + "."


def _news_block(rng: random.Random, ids: list[str]) -> list[dict]:
    """Eight clusters of 2-8 documents about shared entities; half of
    them carry entity annotations.

    Every block has the same document counts and the same log-uniform
    spread of document lengths (~80 to ~1500 tokens), shuffled among its
    clusters, so the work in a corpus barely moves with the seed."""
    sizes = [2, 3, 4, 5, 5, 6, 7, 8]
    rng.shuffle(sizes)
    total_docs = sum(sizes)
    lengths = [
        int(math.exp(math.log(80) + (k + 0.5) / total_docs * math.log(1500 / 80)))
        for k in range(total_docs)
    ]
    rng.shuffle(lengths)
    annotated = set(rng.sample(range(len(ids)), len(ids) // 2))
    clusters = []
    for i, (cluster_id, num_docs) in enumerate(zip(ids, sizes)):
        doc_lengths, lengths = lengths[:num_docs], lengths[num_docs:]
        clusters.append(_news_cluster(rng, cluster_id, doc_lengths, i in annotated))
    return clusters


def _news_cluster(
    rng: random.Random, cluster_id: str, doc_lengths: list[int], annotated: bool
) -> dict:
    num_docs = len(doc_lengths)
    entities = _news_entities(rng)
    homes = {
        e.surface: set(rng.sample(range(num_docs), rng.randint(1, num_docs))) for e in entities
    }
    docs = []
    annotations = []
    for doc, target in enumerate(doc_lengths):
        present = [e for e in entities if doc in homes[e.surface]]
        sentences: list[str] = []
        tokens = 0
        while tokens < target or len(sentences) < 2:
            inserts = []
            for e in present:
                if rng.random() < 0.12 or (len(sentences) == 0 and rng.random() < 0.5):
                    inserts.append(rng.choice(e.phrases))
            sentence = _news_sentence(rng, inserts)
            sentences.append(sentence)
            tokens += len(sentence.split())
        docs.append(sentences)
        text = " ".join(sentences)
        for e in present:
            if e.surface in text:
                annotations.append({"surface": e.surface, "doc": doc})
    return {"cluster_id": cluster_id, "docs": docs, "entities": annotations if annotated else None}


def _long_block(rng: random.Random, ids: list[str]) -> list[dict]:
    return [_long_cluster(rng, cluster_id) for cluster_id in ids]


def _small_block(rng: random.Random, ids: list[str]) -> list[dict]:
    return [_small_cluster(rng, cluster_id) for cluster_id in ids]


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    name: str
    clusters: int
    strategy: str
    entities: str
    make_block: Callable[[random.Random, list[str]], list[dict]]

    @property
    def flags(self) -> list[str]:
        return ["--strategy", self.strategy, "--entities", self.entities]


BLOCK = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload("long_pyramid", 64, "entity_pyramid", "rules", _long_block),
        Workload("news_provided", 64, "entity_pyramid", "provided", _news_block),
        Workload("small_lead", 2048, "lead", "rules", _small_block),
    )
}


def generate(workload: Workload, seed: int) -> list[dict]:
    """The workload's clusters for ``seed``, generated in blocks of eight."""
    rng = random.Random(f"{workload.name}:{seed}")
    ids = [f"{workload.name}-{seed}-{i:05d}" for i in range(workload.clusters)]
    clusters: list[dict] = []
    for start in range(0, len(ids), BLOCK):
        clusters.extend(workload.make_block(rng, ids[start : start + BLOCK]))
    return clusters


def to_jsonl(clusters: list[dict]) -> bytes:
    lines = []
    for cluster in clusters:
        record = {
            "cluster_id": cluster["cluster_id"],
            "documents": [" ".join(sentences) for sentences in cluster["docs"]],
        }
        if cluster["entities"] is not None:
            record["entities"] = cluster["entities"]
        lines.append(json.dumps(record, ensure_ascii=False))
    return ("\n".join(lines) + "\n").encode("utf-8")
