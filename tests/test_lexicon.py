from __future__ import annotations

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import lexicon
from dvcurate.errors import NoObjectFound, NoVerbFound, UnrecognizedColor

from conftest import DATA_DIR

FIXTURE = json.loads((DATA_DIR / "instructions.json").read_text())


def test_fixture_has_fifty_cases():
    assert len(FIXTURE) == 50


@pytest.mark.parametrize(
    "case", FIXTURE, ids=[c["instructions"][0][:40].replace(" ", "-") for c in FIXTURE]
)
def test_target_object_fixture(case):
    assert lexicon.extract_target_object(case["instructions"]) == case["expected"]


def test_extract_requires_a_verb():
    with pytest.raises(NoVerbFound):
        lexicon.extract_target_object(["wave at the camera"])
    with pytest.raises(NoVerbFound):
        lexicon.extract_target_object([])


def test_extract_requires_an_object():
    with pytest.raises(NoObjectFound):
        lexicon.extract_target_object(["pick it"])
    with pytest.raises(NoObjectFound):
        lexicon.extract_target_object(["place everything"])


def test_merge_instructions_dedups_and_splits_clauses():
    clauses = lexicon.merge_instructions(
        ["Pick the mug, then place it.", "pick the mug", "PLACE IT"]
    )
    assert clauses == ["pick the mug", "place it"]


def test_merge_strips_punctuation_and_case():
    assert lexicon.merge_instructions(["Put the pen in the jar!"]) == [
        "put the pen in the jar"
    ]


def test_candidates_direct_and_indirect():
    cands = lexicon.extract_candidates(["put the marker in the cup"])
    assert [(c.word, c.direct) for c in cands] == [("marker", True), ("cup", False)]


def test_candidates_chained_prepositions():
    cands = lexicon.extract_candidates(["put the pen in the jar on the shelf"])
    assert [(c.word, c.direct) for c in cands] == [
        ("pen", True), ("jar", False), ("shelf", False),
    ]


def test_candidates_skip_pronouns_and_determiners():
    cands = lexicon.extract_candidates(["grab the towel and drop it in the hamper"])
    assert [(c.word, c.direct) for c in cands] == [("towel", True), ("hamper", False)]


def test_phrasal_verb_preferred_over_bare():
    assert lexicon.match_verb("turn on the stove".split(), 0) == ("turnOn", 2)
    assert lexicon.match_verb("turn off the lamp".split(), 0) == ("turnOff", 2)
    assert lexicon.match_verb("pick up the cup".split(), 0) == ("pick", 2)
    assert lexicon.match_verb("pick the cup".split(), 0) == ("pick", 1)
    assert lexicon.match_verb("wave the flag".split(), 0) is None


# ---------------------------------------------------------------------------
# cached labels against the uncached rule

_VERBS = sorted(lexicon.DEFAULT_VERB_MAP)
_NOUNS = sorted(w for words in lexicon._NOUN_CATEGORIES.values() for w in words.split())
_NOUNS.append("zzgibberish")  # a word no category holds
_PREPOSITIONS = sorted(lexicon._PREPOSITIONS)
_PRONOUNS = sorted(lexicon._PRONOUNS)


def _labels():
    """(public function, its cached helper) pairs; a helper's __wrapped__ is the uncached rule."""
    return ((lexicon.extract_target_object, lexicon._target_object),
            (lexicon.motion_labels, lexicon._motion_labels))


def _clause(draw_word) -> str:
    """A verb-object-preposition-object clause; any part may be missing or a pronoun."""
    words = []
    for vocab in (_VERBS, ["the"], _NOUNS + _PRONOUNS, _PREPOSITIONS, _NOUNS + _PRONOUNS):
        word = draw_word(vocab)
        if word is not None:
            words.append(word)
    return " ".join(words)


@st.composite
def _instructions(draw) -> list[str]:
    kind = draw(st.sampled_from(("any", "verbless", "pronoun-only")))

    def draw_word(vocab):
        if kind == "verbless" and vocab is _VERBS:
            return None
        if kind == "pronoun-only" and vocab is not _VERBS:
            vocab = _PRONOUNS
        return draw(st.none() | st.sampled_from(vocab))

    clauses = [_clause(draw_word) for _ in range(draw(st.integers(0, 3)))]
    return draw(st.lists(st.sampled_from(clauses), max_size=3)) if clauses else []


def _outcome(fn, instructions):
    """The result of `fn(instructions)`, or the class and message it raised."""
    try:
        return fn(instructions)
    except (NoVerbFound, NoObjectFound) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(instructions=_instructions())
def test_cached_labels_match_the_uncached_rule(instructions):
    for cached, helper in _labels():
        want = _outcome(helper.__wrapped__, tuple(instructions))
        # list and tuple inputs, first and repeated calls; failures raise each time
        for arg in (instructions, tuple(instructions), list(instructions), tuple(instructions)):
            assert _outcome(cached, arg) == want


def test_failures_are_not_cached():
    lexicon._target_object.cache_clear()
    for instructions in (["wave at the camera"], ["pick it"], []):
        for _ in range(2):
            with pytest.raises((NoVerbFound, NoObjectFound)):
                lexicon.extract_target_object(instructions)
    assert lexicon._target_object.cache_info().currsize == 0


def test_cached_labels_hold_after_the_cache_turns_over():
    rng = random.Random(11)
    tuples = set()
    while len(tuples) < lexicon._LABEL_CACHE_SIZE + 400:
        tuples.add(tuple(_clause(lambda vocab: rng.choice(vocab + [None]))
                         for _ in range(rng.randint(1, 2))))
    tuples = sorted(tuples)
    for cached, helper in _labels():
        helper.cache_clear()
        want = [_outcome(helper.__wrapped__, t) for t in tuples]
        assert [_outcome(cached, t) for t in tuples] == want
        info = helper.cache_info()
        assert info.currsize == lexicon._LABEL_CACHE_SIZE < info.misses  # some were evicted
        # the first tuples were evicted; computed again they still agree
        assert [_outcome(cached, list(t)) for t in tuples[:200]] == want[:200]


def test_motion_labels_across_clauses():
    labels = lexicon.motion_labels(["pick the mug and place it on the plate"])
    assert labels == frozenset({"pick", "place"})
    labels = lexicon.motion_labels(["turn on the stove", "push the pan"])
    assert labels == frozenset({"turnOn", "push"})
    assert lexicon.motion_labels(["nothing here"]) == frozenset()


def test_motion_labels_synonyms_fold():
    assert lexicon.motion_labels(["grab the cup"]) == frozenset({"pick"})
    assert lexicon.motion_labels(["shut the drawer"]) == frozenset({"close"})
    assert lexicon.motion_labels(["slide the tray"]) == frozenset({"push"})
    assert lexicon.motion_labels(["drag the chair"]) == frozenset({"pull"})


def test_embeddings_unit_norm_and_deterministic():
    a = lexicon.WordEmbeddings()
    b = lexicon.WordEmbeddings()
    for word in ("mug", "carrot", "drawer", "zzgibberish"):
        va, vb = a.vector(word), b.vector(word)
        assert np.linalg.norm(va) == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(va, vb)


def test_same_category_words_cluster_together():
    labels = lexicon.cluster_candidates(["mug", "cup", "plate", "marker", "pen"])
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4]
    assert labels[0] != labels[3]


def test_unknown_words_do_not_join_category_clusters():
    labels = lexicon.cluster_candidates(["mug", "cup", "zzgibberish"])
    assert labels[0] == labels[1]
    assert labels[2] != labels[0]


def _partition(labels) -> tuple[int, ...]:
    """Labels renumbered by first occurrence, so equal partitions compare equal."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(label, len(first)) for label in np.asarray(labels).tolist())


_NOUNS = sorted({w for words in lexicon._NOUN_CATEGORIES.values() for w in words.split()})
_UNKNOWN = ["zzgibberish", "qwxv", "blorp", "frobnitz"]


@settings(max_examples=400, deadline=None)
@given(words=st.lists(st.sampled_from(_NOUNS + _UNKNOWN), min_size=1, max_size=10),
       repeats=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3))
def test_cluster_candidates_partition_matches_scipy_average_linkage(words, repeats):
    # scipy is a test-only dependency: the program clusters in numpy
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    words = list(words)
    for src, dst in repeats:  # repeated words give zero distances and tied merges
        words[dst % len(words)] = words[src % len(words)]
    got = lexicon.cluster_candidates(words)
    assert len(got) == len(words)
    if len(words) == 1:
        assert _partition(got) == (0,)
        return
    embeddings = lexicon.default_embeddings()
    dists = np.clip(pdist(np.array([embeddings.vector(w) for w in words]), "cosine"), 0.0, None)
    want = fcluster(linkage(dists, "average"), t=lexicon.DEFAULT_CLUSTER_CUT, criterion="distance")
    assert _partition(got) == _partition(want)


class _SpreadEmbeddings:
    """Random 3-d vectors: unlike the category table's, their cosine distances
    spread over [0, 2], so many merges fall near the cut and the linkage rule
    decides the partition."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.table: dict[str, np.ndarray] = {}

    def vector(self, word: str) -> np.ndarray:
        return self.table.setdefault(word, self.rng.standard_normal(3))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       words=st.lists(st.sampled_from("abcdefghijkl"), min_size=2, max_size=12))
def test_cluster_candidates_partition_matches_scipy_where_the_linkage_rule_matters(seed, words):
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    embeddings = _SpreadEmbeddings(seed)
    with mock.patch.object(lexicon, "default_embeddings", lambda: embeddings):
        got = lexicon.cluster_candidates(words)
    dists = np.clip(pdist(np.array([embeddings.vector(w) for w in words]), "cosine"), 0.0, None)
    want = fcluster(linkage(dists, "average"), t=lexicon.DEFAULT_CLUSTER_CUT, criterion="distance")
    assert _partition(got) == _partition(want)


def test_majority_word_wins_within_cluster():
    got = lexicon.extract_target_object(["grab the mug", "take the mug", "lift the glass"])
    assert got == "mug"


def test_direct_object_breaks_size_ties():
    # carrot (direct twice) vs bin (indirect twice): equal sizes, direct wins.
    got = lexicon.extract_target_object(
        ["place the carrot in the bin", "put the carrot in the bin"]
    )
    assert got == "carrot"


@pytest.mark.parametrize(
    "raw,canon",
    [
        ("red", "red"),
        ("Crimson", "red"),
        (" scarlet ", "red"),
        ("navy", "blue"),
        ("turquoise", "cyan"),
        ("grey", "gray"),
        ("SILVER", "gray"),
        ("golden", "yellow"),
        ("magenta", "pink"),
        ("beige", "brown"),
        ("ivory", "white"),
        ("jet", "black"),
    ],
)
def test_canonical_color(raw, canon):
    assert lexicon.canonical_color(raw) == canon
    assert canon in lexicon.CANONICAL_COLORS


def test_canonical_color_rejects_unknown():
    with pytest.raises(UnrecognizedColor):
        lexicon.canonical_color("blurple")
