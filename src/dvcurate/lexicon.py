"""Rule-based language tools for instruction metadata.

Target-object extraction scans instruction clauses for manipulation verbs,
collects their direct and indirect object nouns, clusters the candidates with
average-linkage agglomerative clustering on cosine distance between word
vectors, and returns the candidate nearest the primary cluster's centroid.
Word vectors come from a small deterministic table (category anchors plus
per-word jitter) so the pipeline needs no model downloads.

Both instruction-derived labels (target object and motion labels) are pure
functions of the instruction tuple, and a corpus repeats a few tuples across
thousands of demos.  So each is computed once per distinct tuple per process
and kept in a bounded LRU cache of _LABEL_CACHE_SIZE tuples; a failure
(NoVerbFound, NoObjectFound) is not cached and raises on every call.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import NoObjectFound, NoVerbFound, UnrecognizedColor
from .rng import substream

DEFAULT_CLUSTER_CUT = 0.35
_LABEL_CACHE_SIZE = 4096  # distinct instruction tuples whose labels are kept
EMBEDDING_DIM = 16
_EMBEDDING_SEED = 0xD1CE
_EMBEDDING_JITTER = 0.15

# surface form -> motion primitive label; two-word entries are verb + particle
DEFAULT_VERB_MAP = {
    "pick": "pick",
    "pick up": "pick",
    "grab": "pick",
    "grasp": "pick",
    "take": "pick",
    "lift": "pick",
    "fetch": "pick",
    "place": "place",
    "put": "place",
    "insert": "place",
    "set": "place",
    "drop": "place",
    "stack": "place",
    "store": "place",
    "push": "push",
    "slide": "push",
    "shove": "push",
    "pull": "pull",
    "drag": "pull",
    "open": "open",
    "close": "close",
    "shut": "close",
    "turn on": "turnOn",
    "switch on": "turnOn",
    "turn off": "turnOff",
    "switch off": "turnOff",
}

# every label `motion_labels` can return
MOTION_LABELS = frozenset(DEFAULT_VERB_MAP.values())

_PREPOSITIONS = frozenset(
    "in into inside on onto to at within under over above behind beside near from with".split()
)
_DETERMINERS = frozenset(
    "the a an this that these those its his her their your my our some any each every".split()
)
_PRONOUNS = frozenset("it them him one something anything everything".split())
_CONJUNCTIONS = frozenset("and then".split())

_WORD_RE = re.compile(r"[a-z]+")
_CLAUSE_SPLIT_RE = re.compile(r"[.;,]|\band\b|\bthen\b")


def match_verb(tokens: list[str], i: int) -> tuple[str, int] | None:
    """Primitive label and index past the verb if tokens[i] starts one."""
    if i + 1 < len(tokens):
        two = f"{tokens[i]} {tokens[i + 1]}"
        if two in DEFAULT_VERB_MAP:
            return DEFAULT_VERB_MAP[two], i + 2
    if tokens[i] in DEFAULT_VERB_MAP:
        return DEFAULT_VERB_MAP[tokens[i]], i + 1
    return None


# ---------------------------------------------------------------------------
# word vectors

_NOUN_CATEGORIES = {
    "kitchenware": (
        "mug cup plate bowl saucer glass pitcher teapot kettle pan pot skillet tray "
        "spatula ladle whisk fork spoon knife chopstick grater colander jug tumbler"
    ),
    "food": (
        "carrot apple banana orange tomato potato onion pepper lettuce bread egg cheese "
        "lemon lime grape pear peach corn broccoli mushroom strawberry cucumber garlic "
        "steak cookie donut coffee tea sugar salt"
    ),
    "containers": (
        "bin basket box crate jar bottle can bucket bag carton tub caddy hamper canister pod"
    ),
    "appliances": (
        "microwave stove oven toaster blender fridge dishwasher mixer machine lamp heater fan"
    ),
    "furniture": (
        "drawer cabinet shelf table chair stool rack counter desk bench cupboard dresser"
    ),
    "stationery": (
        "marker pen pencil eraser notebook paper stapler scissors tape ruler crayon chalk "
        "folder clip envelope"
    ),
    "tools": (
        "hammer screwdriver wrench pliers drill saw level clamp file mallet chisel"
    ),
    "textiles": (
        "towel cloth napkin rag sponge apron mitt blanket pillow curtain"
    ),
    "toys": (
        "ball block cube ring doll car train duck dice puzzle"
    ),
    "fixtures": (
        "lid door handle button knob switch faucet hinge latch tap"
    ),
    "sundries": (
        "soap brush candle vase plant book phone remote wallet coaster key comb battery "
        "charger glasses"
    ),
}


class WordEmbeddings:
    """Deterministic unit vectors: category anchor plus small per-word jitter.

    Words in the same category land close in cosine distance; words from
    different categories (and unknown words) are nearly orthogonal.
    """

    def __init__(self):
        self._table: dict[str, np.ndarray] = {}
        for ci, (cat, words) in enumerate(sorted(_NOUN_CATEGORIES.items())):
            anchor = self._unit(substream(_EMBEDDING_SEED, 1, ci).standard_normal(EMBEDDING_DIM))
            for word in words.split():
                self._table[word] = self._unit(anchor + _EMBEDDING_JITTER * self._word_noise(word))

    @staticmethod
    def _unit(v: np.ndarray) -> np.ndarray:
        return v / np.linalg.norm(v)

    def _word_noise(self, word: str) -> np.ndarray:
        key = 0
        for b in word.encode("utf-8"):
            key = (key * 257 + b) & 0xFFFFFFFFFFFFFFFF
        return self._unit(substream(_EMBEDDING_SEED, 2, key).standard_normal(EMBEDDING_DIM))

    def vector(self, word: str) -> np.ndarray:
        """Unit vector for `word`; unknown words get stable jitter-only vectors."""
        v = self._table.get(word)
        if v is None:
            v = self._unit(self._word_noise(word))
            self._table[word] = v
        return v


_DEFAULT_EMBEDDINGS: WordEmbeddings | None = None


def default_embeddings() -> WordEmbeddings:
    global _DEFAULT_EMBEDDINGS
    if _DEFAULT_EMBEDDINGS is None:
        _DEFAULT_EMBEDDINGS = WordEmbeddings()
    return _DEFAULT_EMBEDDINGS


# ---------------------------------------------------------------------------
# candidate extraction

@dataclass(frozen=True)
class ObjectCandidate:
    word: str
    direct: bool
    order: int


def merge_instructions(instructions) -> list[str]:
    """Concatenate instructions into deduplicated, order-preserving clauses."""
    clauses: list[str] = []
    seen: set[str] = set()
    for text in instructions:
        for raw in _CLAUSE_SPLIT_RE.split(text.lower()):
            clause = " ".join(_WORD_RE.findall(raw))
            if clause and clause not in seen:
                seen.add(clause)
                clauses.append(clause)
    return clauses


def _phrase_head(tokens: list[str]) -> str | None:
    content = [t for t in tokens if t not in _DETERMINERS]
    if not content:
        return None
    head = content[-1]
    if head in _PRONOUNS:
        return None
    return head


def _scan_clause(tokens: list[str], out: list[ObjectCandidate]) -> bool:
    """Append candidates from one clause; return whether any verb matched."""

    def is_boundary(tok: str) -> bool:
        return tok in _PREPOSITIONS or tok in _CONJUNCTIONS or tok in DEFAULT_VERB_MAP

    saw_verb = False
    i = 0
    while i < len(tokens):
        m = match_verb(tokens, i)
        if m is None:
            i += 1
            continue
        saw_verb = True
        _, j = m
        phrase: list[str] = []
        while j < len(tokens) and not is_boundary(tokens[j]):
            phrase.append(tokens[j])
            j += 1
        head = _phrase_head(phrase)
        if head is not None:
            out.append(ObjectCandidate(head, direct=True, order=len(out)))
        # chained prepositional phrases yield indirect objects
        while j < len(tokens) and tokens[j] in _PREPOSITIONS:
            j += 1
            phrase = []
            while j < len(tokens) and not is_boundary(tokens[j]):
                phrase.append(tokens[j])
                j += 1
            head = _phrase_head(phrase)
            if head is not None:
                out.append(ObjectCandidate(head, direct=False, order=len(out)))
        i += 1
    return saw_verb


def extract_candidates(instructions) -> list[ObjectCandidate]:
    clauses = merge_instructions(instructions)
    out: list[ObjectCandidate] = []
    saw_verb = False
    for clause in clauses:
        saw_verb |= _scan_clause(clause.split(), out)
    if not saw_verb:
        raise NoVerbFound(f"no manipulation verb in {list(instructions)!r}")
    if not out:
        raise NoObjectFound(f"verbs present but no object noun in {list(instructions)!r}")
    return out


def cluster_candidates(words: list[str]) -> np.ndarray:
    """Cluster ids per word via average-linkage clustering on cosine distance:
    the two clusters with the smallest mean pairwise distance merge while it is
    <= DEFAULT_CLUSTER_CUT (scipy's `fcluster(linkage(d, "average"), cut,
    "distance")` partition).  Ids number the clusters by their first word."""
    n = len(words)
    embeddings = default_embeddings()
    vecs = np.array([embeddings.vector(w) for w in words])
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    dist = np.clip(1.0 - unit @ unit.T, 0.0, None)
    np.fill_diagonal(dist, np.inf)  # no cluster merges with itself; merged-away ones get inf rows too
    sizes = np.ones(n)
    labels = np.arange(n)
    while True:
        i, j = sorted(divmod(int(dist.argmin()), n))  # j merges into i, so i is a cluster's first word
        if not dist[i, j] <= DEFAULT_CLUSTER_CUT:
            break
        dist[i] = dist[:, i] = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        dist[j] = dist[:, j] = np.inf
        sizes[i] += sizes[j]
        labels[labels == j] = i
    return np.unique(labels, return_inverse=True)[1]


def extract_target_object(instructions) -> str:
    """Canonical target-object noun for a set of instructions.

    Candidates are direct/indirect objects of manipulation verbs across the
    merged clauses.  The primary cluster is the largest one (ties prefer the
    cluster holding the earliest direct object, then the earliest candidate);
    within it the candidate closest to the cluster centroid wins, with ties
    broken direct-first then first-occurrence.  Computed once per distinct
    instruction tuple.
    """
    return _target_object(tuple(instructions))


@functools.lru_cache(maxsize=_LABEL_CACHE_SIZE)
def _target_object(instructions: tuple[str, ...]) -> str:
    cands = extract_candidates(instructions)
    labels = cluster_candidates([c.word for c in cands])

    def cluster_rank(cid: int) -> tuple:
        members = [c for c, l in zip(cands, labels) if l == cid]
        size = len(members)
        direct_orders = [c.order for c in members if c.direct]
        first_direct = min(direct_orders) if direct_orders else len(cands)
        first_any = min(c.order for c in members)
        return (-size, first_direct, first_any)

    primary = min(set(labels.tolist()), key=cluster_rank)
    members = [c for c, l in zip(cands, labels) if l == primary]
    embeddings = default_embeddings()
    vecs = np.array([embeddings.vector(c.word) for c in members])
    centroid = vecs.mean(axis=0)
    norm = np.linalg.norm(centroid)
    if norm == 0.0:
        sims = np.zeros(len(members))
    else:
        sims = vecs @ (centroid / norm)
    best = max(
        range(len(members)),
        key=lambda k: (round(float(sims[k]), 9), members[k].direct, -members[k].order),
    )
    return members[best].word


def motion_labels(instructions) -> frozenset:
    """Set of motion-primitive labels whose verbs occur in the instructions.

    Computed once per distinct instruction tuple.
    """
    return _motion_labels(tuple(instructions))


@functools.lru_cache(maxsize=_LABEL_CACHE_SIZE)
def _motion_labels(instructions: tuple[str, ...]) -> frozenset:
    labels = set()
    for clause in merge_instructions(instructions):
        tokens = clause.split()
        i = 0
        while i < len(tokens):
            m = match_verb(tokens, i)
            if m is not None:
                labels.add(m[0])
                i = m[1]
            else:
                i += 1
    return frozenset(labels)


# ---------------------------------------------------------------------------
# color canonicalization

CANONICAL_COLORS = frozenset(
    "red orange yellow green cyan blue purple pink brown white gray black".split()
)

COLOR_SYNONYMS = {
    "crimson": "red",
    "scarlet": "red",
    "maroon": "red",
    "ruby": "red",
    "amber": "orange",
    "tangerine": "orange",
    "gold": "yellow",
    "golden": "yellow",
    "lemon": "yellow",
    "lime": "green",
    "emerald": "green",
    "olive": "green",
    "teal": "cyan",
    "turquoise": "cyan",
    "aqua": "cyan",
    "navy": "blue",
    "azure": "blue",
    "cobalt": "blue",
    "indigo": "purple",
    "violet": "purple",
    "lavender": "purple",
    "magenta": "pink",
    "fuchsia": "pink",
    "rose": "pink",
    "salmon": "pink",
    "tan": "brown",
    "beige": "brown",
    "khaki": "brown",
    "chocolate": "brown",
    "ivory": "white",
    "cream": "white",
    "snow": "white",
    "grey": "gray",
    "silver": "gray",
    "charcoal": "gray",
    "slate": "gray",
    "ebony": "black",
    "jet": "black",
}


def canonical_color(label: str) -> str:
    """Lowercase and synonym-fold a color label to the canonical set."""
    word = label.strip().lower()
    word = COLOR_SYNONYMS.get(word, word)
    if word not in CANONICAL_COLORS:
        raise UnrecognizedColor(f"unknown color label {label!r}")
    return word
