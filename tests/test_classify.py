import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sconvex import (Dfa, classify, minimize, random_suffix_convex,
                     reversal_witness, star_witness, syntactic_witness)

from conftest import random_dfa
from oracles import (accepts, brute_force_special_classes,
                     brute_force_suffix_convex)

A_OR_BAA = Dfa(5, ("a", "b"),
               ((1, 4, 3, 1, 4), (2, 4, 4, 4, 4)),
               frozenset({1}))

ENDS_A = Dfa(2, ("a", "b"), ((1, 1), (0, 0)), frozenset({1}))
ONLY_AS = Dfa(2, ("a", "b"), ((0, 1), (1, 1)), frozenset({0}))
SINGLE_A = Dfa(3, ("a", "b"), ((1, 2, 2), (2, 2, 2)), frozenset({1}))
EVERYTHING = Dfa(1, ("a", "b"), ((0,), (0,)), frozenset({0}))
NOTHING = Dfa(1, ("a", "b"), ((0,), (0,)), frozenset())


def test_known_counterexample():
    c = classify(A_OR_BAA)
    assert not c.suffix_convex
    assert c.counterexample == (("b",), ("a",), ("a",))


def test_counterexamples_simulate():
    c = classify(A_OR_BAA)
    assert not c.suffix_convex
    (u, v, w) = c.counterexample
    assert A_OR_BAA.accepts(u + v + w)
    assert A_OR_BAA.accepts(w)
    assert not A_OR_BAA.accepts(v + w)


def test_left_ideal():
    assert classify(ENDS_A).left_ideal
    assert not classify(ONLY_AS).left_ideal
    assert not classify(NOTHING).left_ideal
    assert classify(EVERYTHING).left_ideal


def test_suffix_closed():
    assert classify(ONLY_AS).suffix_closed
    assert classify(NOTHING).suffix_closed
    assert not classify(ENDS_A).suffix_closed
    assert not classify(SINGLE_A).suffix_closed


def test_suffix_free():
    assert classify(SINGLE_A).suffix_free
    assert classify(NOTHING).suffix_free
    assert not classify(ONLY_AS).suffix_free
    assert not classify(EVERYTHING).suffix_free


@pytest.mark.parametrize("d, proper", [
    (ENDS_A, False), (ONLY_AS, False), (SINGLE_A, False),
    (EVERYTHING, False), (NOTHING, False), (A_OR_BAA, False),
])
def test_classify_nothing_here_is_proper(d, proper):
    c = classify(d)
    assert c.proper == proper
    assert c.proper == (c.suffix_convex and not c.left_ideal
                        and not c.suffix_closed and not c.suffix_free)


def test_classify_fields_for_the_three_special_classes():
    assert classify(ENDS_A).left_ideal
    assert classify(ONLY_AS).suffix_closed
    assert classify(SINGLE_A).suffix_free
    c = classify(A_OR_BAA)
    assert not c.suffix_convex
    assert c.counterexample == (("b",), ("a",), ("a",))


def test_at_least_two_as_is_an_ideal():
    d = Dfa(3, ("a",), ((1, 2, 2),), frozenset({2}))
    c = classify(d)
    assert c.suffix_convex
    assert c.left_ideal
    assert not c.proper


def test_sampler_output_is_convex():
    c = classify(random_suffix_convex(4, 3, seed=11))
    assert c.suffix_convex


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60)
def test_special_classes_are_convex(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, rng.randint(1, 5), rng.randint(1, 3))
    c = classify(d)
    if c.left_ideal or c.suffix_closed or c.suffix_free:
        assert c.suffix_convex


# the deadline would time the word-level oracle, which can take longer
# than the default on some seeds, not the library
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_agrees_with_word_level_search(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, rng.randint(2, 5), rng.randint(1, 3))
    c = classify(d)
    (got, cex) = (c.suffix_convex, c.counterexample)
    want, _ = brute_force_suffix_convex(d)
    assert got == want
    if cex is not None:
        u, v, w = cex
        assert accepts(d, u + v + w) and accepts(d, w)
        assert not accepts(d, v + w)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30)
def test_classification_is_language_level(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, rng.randint(2, 5), rng.randint(1, 2))
    c, m = classify(d), classify(minimize(d))
    assert (c.suffix_convex, c.left_ideal, c.suffix_closed, c.suffix_free) == \
        (m.suffix_convex, m.left_ideal, m.suffix_closed, m.suffix_free)


def test_classify_matches_the_oracle_on_every_final_set():
    # every final set of random tables, many of them not minimal (some with
    # unreachable states) and not suffix-convex; the empty final set too
    rng = random.Random(15)
    kinds = set()
    for _ in range(400):
        n, letters = rng.randint(1, 6), rng.randint(1, 3)
        names = tuple("abc"[:letters])
        delta = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in names)
        for bits in range(1 << n):
            finals = frozenset(q for q in range(n) if bits >> q & 1)
            d = Dfa(n, names, delta, finals)
            c = classify(d)
            if c.counterexample is None:
                assert (c.left_ideal, c.suffix_closed, c.suffix_free) == \
                    brute_force_special_classes(d)
            kinds.add((len(d.reachable()) < n, minimize(d).n < n,
                       c.suffix_convex, c.proper))
    assert {(True, True, False, False), (True, True, True, True),
            (False, True, False, False), (False, False, True, True)} <= kinds


def _special_classes(d):
    c = classify(d)
    return (c.left_ideal, c.suffix_closed, c.suffix_free)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_special_classes_agree_with_oracle(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, rng.randint(1, 6), rng.randint(1, 3))
    assert _special_classes(d) == brute_force_special_classes(d)


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("family", [star_witness, reversal_witness,
                                    syntactic_witness])
def test_special_classes_of_witnesses_agree_with_oracle(family, n):
    d = family(n)
    assert _special_classes(d) == brute_force_special_classes(d)


GOLDEN = Path(__file__).parent / "data" / "classify_golden.txt"


def _classify_records():
    """One line per DFA: the five flags and the counterexample, if any.

    The DFAs are 300 seeded uniform random tables (n <= 7, up to 3
    letters) and the three witness families at n=4..8.
    """
    rng = random.Random(4041)
    dfas = [(f"random{i}", random_dfa(rng, rng.randint(1, 7), rng.randint(1, 3)))
            for i in range(300)]
    for family in (star_witness, reversal_witness, syntactic_witness):
        dfas.extend((f"{family.__name__}{n}", family(n)) for n in range(4, 9))
    for name, d in dfas:
        c = classify(d)
        flags = "".join(str(int(x)) for x in (c.suffix_convex, c.left_ideal,
                                               c.suffix_closed, c.suffix_free,
                                               c.proper))
        words = "-"
        if c.counterexample is not None:
            words = " ".join(f"{part}={','.join(word)}"
                             for part, word in zip("uvw", c.counterexample))
        yield f"{name} {flags} {words}"


def test_classify_matches_golden_records():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert list(_classify_records()) == want
