import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sconvex import (AlphabetMismatch, Dfa, FormatError, Nfa, NotMinimal,
                     ResourceCap, atom_count, complete_to, complexity,
                     determinize, direct_product, equivalent, is_minimal,
                     minimize, product_nfa, star_nfa, union_alphabet)
from sconvex import automata
from sconvex.automata import _complexity_and_atoms, reachable_tuples
from sconvex.witnesses import reversal_witness, star_witness

from conftest import random_dfa
from oracles import (accepts_concat, accepts_star, quotient_contains,
                     signature_atom_count, table_filling_complexity)
from parent_kernels import parent_determinize, reverse_nfa

ODD_A = Dfa(2, ("a",), ((1, 0),), frozenset({1}))

# 0 --a--> 1 (accept), 0 --b--> 2 --a--> 3 --a--> 1; everything else dies in 4
A_OR_BAA = Dfa(5, ("a", "b"),
               ((1, 4, 3, 1, 4),
                (2, 4, 4, 4, 4)),
               frozenset({1}))

ENDS_A = Dfa(2, ("a", "b"), ((1, 1), (0, 0)), frozenset({1}))
ENDS_B = Dfa(2, ("a", "b"), ((0, 0), (1, 1)), frozenset({1}))


def test_run_and_accepts():
    assert ODD_A.accepts("a")
    assert not ODD_A.accepts("aa")
    assert ODD_A.run("aaa") == 1
    assert A_OR_BAA.accepts("a")
    assert A_OR_BAA.accepts("baa")
    for w in ("", "b", "ba", "aa", "ab", "baaa"):
        assert not A_OR_BAA.accepts(w)


def test_construction_rejects_bad_tables():
    with pytest.raises(FormatError):
        Dfa(2, ("a",), ((1, 2),), frozenset())
    with pytest.raises(FormatError):
        Dfa(2, ("a", "a"), ((1, 0), (0, 1)), frozenset())
    with pytest.raises(FormatError):
        Dfa(2, ("a",), ((1, 0),), frozenset({5}))
    with pytest.raises(FormatError):
        Dfa(0, ("a",), (), frozenset())
    # the initial state is always 0, so there is no field to set it
    with pytest.raises(TypeError):
        Dfa(2, ("a",), ((1, 0),), frozenset(), initial=1)


@pytest.mark.parametrize("name", ["", " ", "a b", "a\tb", "a\n", "\u2003a",
                                  "a\x1cb", "a#b"])
def test_construction_rejects_bad_letter_names(name):
    with pytest.raises(FormatError, match="bad letter name"):
        Dfa(1, ("a", name), ((0,), (0,)), frozenset())


def test_text_round_trip():
    for d in (ODD_A, A_OR_BAA, ENDS_A):
        assert Dfa.from_text(d.to_text()) == d


def test_from_text_tolerates_comments_and_blank_lines():
    text = """
    # two states over a single letter
    states 2
    alphabet a
    initial 0
    final 1   # odd length

    0 a 1
    1 a 0
    """
    assert Dfa.from_text(text) == ODD_A


@pytest.mark.parametrize("mutation, message", [
    ("states 2\nalphabet a\ninitial 0\nfinal 1\n0 a 1\n", "incomplete"),
    ("states 2\nalphabet a\ninitial 0\nfinal 1\n0 a 1\n1 a 0\n0 a 0\n", "duplicate"),
    ("states 2\nalphabet a\ninitial 0\nfinal 1\n0 b 1\n1 a 0\n", "unknown letter"),
    ("states 2\nalphabet a\ninitial 1\nfinal 1\n0 a 1\n1 a 0\n", "initial"),
    ("states 2\nalphabet a\ninitial 0\nfinal 9\n0 a 1\n1 a 0\n", "out of range"),
    ("states x\nalphabet a\ninitial 0\nfinal 1\n0 a 1\n1 a 0\n", "integer"),
    ("states 2\nalphabet a\n", "too short"),
])
def test_from_text_rejects(mutation, message):
    with pytest.raises(FormatError, match=message):
        Dfa.from_text(mutation)


# 75 bytes declaring 9,000,000 transition cells
HUGE_DECLARED = ("states 3000000\nalphabet a b c\ninitial 0\nfinal 1 2\n"
                 "0 a 1\n0 b 0\n0 c 2\n1 a 10\n")


def test_from_text_refuses_a_huge_declared_size_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="incomplete transition table"):
            Dfa.from_text(HUGE_DECLARED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_minimize_merges_equivalent_states():
    # states 2 and 3 duplicate 0 and 1
    bloated = Dfa(4, ("a",), ((3, 2, 1, 0),), frozenset({1, 3}))
    m = minimize(bloated)
    assert m.n == 2
    assert equivalent(m, ODD_A)
    assert minimize(m) == m


def test_minimize_drops_unreachable_states():
    d = Dfa(3, ("a",), ((1, 0, 2),), frozenset({1}))
    assert complexity(d) == 2


def test_complexity_of_empty_and_full():
    assert complexity(Dfa(1, ("a",), ((0,),), frozenset())) == 1
    assert complexity(Dfa(3, ("a",), ((1, 2, 0),), frozenset({0, 1, 2}))) == 1


def test_is_minimal():
    assert is_minimal(A_OR_BAA)
    assert not is_minimal(Dfa(4, ("a",), ((3, 2, 1, 0),), frozenset({1, 3})))


def second_to_last_a_nfa():
    # accepts words over {a,b} with an 'a' in the second-to-last position
    return Nfa(3, ("a", "b"),
               ((frozenset({0, 1}), frozenset({0})),
                (frozenset({2}), frozenset({2})),
                (frozenset(), frozenset())),
               initials=frozenset({0}), finals=frozenset({2}))


def test_determinize_simple_nfa():
    d = determinize(second_to_last_a_nfa())
    for w in ("ab", "aa", "bab", "abaab"):
        assert d.accepts(w)
    for w in ("", "a", "ba", "abb"):
        assert not d.accepts(w)
    assert complexity(d) == 4


def test_determinize_resource_cap(monkeypatch):
    monkeypatch.setattr(automata, "SUBSET_CAP", 2)
    with pytest.raises(ResourceCap):
        determinize(second_to_last_a_nfa())


def test_star_of_single_word():
    single_a = Dfa(3, ("a", "b"), ((1, 2, 2), (2, 2, 2)), frozenset({1}))
    d = determinize(star_nfa(single_a))
    assert d.accepts("")
    assert d.accepts("aaa")
    assert not d.accepts("ab")
    assert complexity(d) == 2


def test_star_of_empty_language():
    empty = Dfa(1, ("a",), ((0,),), frozenset())
    d = determinize(star_nfa(empty))
    assert d.accepts("")
    assert not d.accepts("a")


def test_product_concatenation():
    # {a} . {b} = {ab}
    single_a = Dfa(3, ("a", "b"), ((1, 2, 2), (2, 2, 2)), frozenset({1}))
    single_b = Dfa(3, ("a", "b"), ((2, 2, 2), (1, 2, 2)), frozenset({1}))
    d = determinize(product_nfa(single_a, single_b))
    assert d.accepts("ab")
    for w in ("", "a", "b", "ba", "abb", "aab"):
        assert not d.accepts(w)


def _with_finals(d, kind):
    """d with its final set kept, emptied, or joined by the initial state."""
    if kind == "keep":
        return d
    return Dfa(d.n, d.alphabet, d.delta,
               frozenset() if kind == "none" else d.finals | {0})


FINAL_KINDS = st.sampled_from(["keep", "none", "initial"])


def _words(alphabet):
    '''Every word of at most 6 letters.'''
    for length in range(7):
        yield from product(alphabet, repeat=length)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), FINAL_KINDS)
@settings(max_examples=200, deadline=None)
def test_star_matches_word_splitting(seed, kind):
    rng = random.Random(seed)
    d = _with_finals(random_dfa(rng, rng.randint(1, 5), rng.randint(1, 3)), kind)
    star = determinize(star_nfa(d))
    for w in _words(d.alphabet):
        assert star.accepts(w) == accepts_star(d, w), w


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), FINAL_KINDS, FINAL_KINDS)
@settings(max_examples=200, deadline=None)
def test_product_matches_word_splitting(seed, kind1, kind2):
    rng = random.Random(seed)
    letters = rng.randint(1, 3)
    d1 = _with_finals(random_dfa(rng, rng.randint(1, 5), letters), kind1)
    d2 = _with_finals(random_dfa(rng, rng.randint(1, 5), letters), kind2)
    if rng.random() < 0.5:
        # the same letters listed in the opposite order: matched by name
        d2 = _reversed_alphabet(d2)
    cat = determinize(product_nfa(d1, d2))
    for w in _words(d1.alphabet):
        assert cat.accepts(w) == accepts_concat(d1, d2, w), w


def test_product_alphabet_rules():
    one_letter = Dfa(2, ("a",), ((1, 1),), frozenset({1}))
    other = Dfa(2, ("b",), ((1, 1),), frozenset({1}))
    with pytest.raises(AlphabetMismatch):
        product_nfa(one_letter, other)
    d = determinize(product_nfa(one_letter, other, complete_missing=True))
    assert d.alphabet == ("a", "b")
    # missing letters self-loop, so extra b's may appear anywhere
    assert d.accepts("ab")
    assert d.accepts("bab")
    assert not d.accepts("")


def test_complete_to_and_union_alphabet():
    d = complete_to(ODD_A, ("a", "b"))
    assert d.accepts("ba")
    assert d.accepts("aba") is False
    with pytest.raises(AlphabetMismatch):
        complete_to(d, ("b",))
    assert union_alphabet(ODD_A, ENDS_B) == ("a", "b")


@pytest.mark.parametrize("op, expected", [
    ("union", 2), ("xor", 2), ("diff", 2), ("intersect", 1),
])
def test_direct_product_complexities(op, expected):
    assert complexity(direct_product(ENDS_A, ENDS_B, op)) == expected


def test_direct_product_matches_letters_by_name():
    flipped = Dfa(2, ("b", "a"), ((0, 0), (1, 1)), frozenset({1}))
    assert equivalent(direct_product(ENDS_A, flipped, "union"),
                      direct_product(ENDS_A, ENDS_A, "union"))
    with pytest.raises(ValueError):
        direct_product(ENDS_A, ENDS_B, "nand")
    with pytest.raises(AlphabetMismatch):
        direct_product(ODD_A, ENDS_B, "union")


def test_quotient_contains():
    # the oracle that test_triples checks the canonical systems against: in
    # A_OR_BAA the quotient at 3 is {a} and at 2 it is {aa}
    assert quotient_contains(A_OR_BAA, 4, 0)
    assert not quotient_contains(A_OR_BAA, 0, 4)
    assert quotient_contains(A_OR_BAA, 1, 1)
    assert not quotient_contains(A_OR_BAA, 3, 2)


def test_equivalent():
    bloated = Dfa(4, ("a",), ((3, 2, 1, 0),), frozenset({1, 3}))
    assert equivalent(bloated, ODD_A)
    assert not equivalent(ODD_A, Dfa(2, ("a",), ((1, 0),), frozenset({0})))
    with pytest.raises(AlphabetMismatch):
        equivalent(ODD_A, ENDS_A)
    # letters are matched by name, not by position
    assert equivalent(ENDS_A, Dfa(2, ("b", "a"), ENDS_B.delta, ENDS_B.finals))
    assert not equivalent(ENDS_A, Dfa(2, ("b", "a"), ENDS_A.delta, ENDS_A.finals))


def _reversed_alphabet(d):
    '''The same automaton with its letters listed in the opposite order.'''
    return Dfa(d.n, d.alphabet[::-1], d.delta[::-1], d.finals)


def _relabeled(d, rng):
    '''d with its non-initial states renamed at random and an unreachable
    copy of one state added: the language is unchanged.'''
    rest = list(range(1, d.n))
    rng.shuffle(rest)
    name = [0] + rest
    copy = rng.randrange(d.n)
    delta = []
    for row in d.delta:
        new = [0] * (d.n + 1)
        for q in range(d.n):
            new[name[q]] = name[row[q]]
        new[d.n] = name[row[copy]]
        delta.append(new)
    finals = {name[q] for q in d.finals} | ({d.n} if copy in d.finals else set())
    return Dfa(d.n + 1, d.alphabet, delta, finals)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(
    ["random", "relabeled", "relabeled-flipped", "minimized"]))
@settings(max_examples=150, deadline=None)
def test_equivalent_matches_agreement_on_short_words(seed, kind):
    rng = random.Random(seed)
    letters = rng.randint(1, 3)
    d = random_dfa(rng, rng.randint(1, 4), letters)
    if kind == "random":
        e = random_dfa(rng, rng.randint(1, 4), letters)
    elif kind == "minimized":
        e = minimize(d)
    else:
        e = _relabeled(d, rng)
        if kind == "relabeled-flipped":
            q = rng.randrange(e.n)
            e = Dfa(e.n, e.alphabet, e.delta, e.finals ^ {q})
    # two DFAs that differ do so on a word shorter than d.n + e.n
    agree = all(d.accepts(w) == e.accepts(w)
                for length in range(d.n + e.n)
                for w in product(d.alphabet, repeat=length))
    assert equivalent(d, e) == agree
    assert equivalent(d, _reversed_alphabet(e)) == agree
    assert equivalent(_reversed_alphabet(d), e) == agree


@pytest.mark.parametrize("seeds", [
    [(1, 0), (1, 0), (2, 0)],
    [(0, 1, 2), (0, 1, 2), (3, 0, 4)],
], ids=["pairs", "triples"])
def test_reachable_tuples_is_lazy_and_breadth_first(seeds):
    rows = A_OR_BAA.delta
    parent = {}
    walk = reachable_tuples(rows, seeds, parent)
    assert next(walk) == seeds[0]
    assert parent == {seeds[0]: None}
    found = [seeds[0]] + list(walk)
    assert found[1] == seeds[2] and parent[seeds[2]] is None
    assert len(found) == len(set(found)) == len(parent)
    for t in found[2:]:
        prev, k = parent[t]
        assert tuple(rows[k][x] for x in prev) == t
    # breadth first: discovered by parent position, then by letter
    found_from = [(found.index(parent[t][0]), parent[t][1]) for t in found[2:]]
    assert found_from == sorted(found_from)


def test_reachable_tuples_pulls_seeds_lazily():
    pulled = []

    def seeds():
        for seed in [(0,), (2,)]:
            pulled.append(seed)
            yield seed

    walk = reachable_tuples(A_OR_BAA.delta, seeds())
    assert next(walk) == (0,) and pulled == [(0,)]
    assert next(walk) == (2,) and pulled == [(0,), (2,)]


@pytest.mark.parametrize("d", [ODD_A, A_OR_BAA, ENDS_A,
                               Dfa(3, ("a",), ((1, 0, 2),), frozenset({1})),
                               random_dfa(random.Random(5), 7, 3)])
def test_reachable_tuples_of_the_initial_state_is_reachable(d):
    assert [q for (q,) in reachable_tuples(d.delta, [(0,)])] == d.reachable()


def _refuse(*args, **kwargs):
    raise AssertionError("atom_count must not call this")


def test_atom_count_requires_minimal(monkeypatch):
    # the minimality check runs before any subset walk
    monkeypatch.setattr(automata, "_subset_walk", _refuse)
    # two equivalent pairs of states; an unreachable state 2
    for d in (Dfa(4, ("a",), ((3, 2, 1, 0),), frozenset({1, 3})),
              Dfa(3, ("a",), ((1, 0, 2),), frozenset({1}))):
        with pytest.raises(NotMinimal):
            atom_count(d)


def test_atom_count_builds_no_reversal_automaton(monkeypatch):
    witnesses = ([reversal_witness(n) for n in range(4, 13)]
                 + [star_witness(n) for n in range(4, 9)])
    # the signature oracle walks the whole transition semigroup, which
    # takes 5 to 170 s on the reversal witnesses at n=10..12; there the
    # reference is the subset construction on the reversal NFA, by the
    # parent's loop, worked out before the patches below
    expected = [signature_atom_count(d) if d.n <= 9
                else parent_determinize(reverse_nfa(d)).n for d in witnesses]
    for name in ("determinize", "Nfa"):
        monkeypatch.setattr(automata, name, _refuse)
    assert [atom_count(d) for d in witnesses] == expected


def _uniform_dfas(count, seed):
    """Uniform tables on r reachable states plus up to two states that
    nothing reaches; the final sets are empty, full or random in turn."""
    rng = random.Random(seed)
    for i in range(count):
        r, u, letters = rng.randint(1, 6), rng.randint(0, 2), rng.randint(1, 3)
        n = r + u
        delta = [[rng.randrange(r if q < r else n) for q in range(n)]
                 for _ in range(letters)]
        finals = (frozenset(), frozenset(range(n)),
                  frozenset(q for q in range(n) if rng.random() < 0.4))[i % 3]
        yield Dfa(n, "abc"[:letters], delta, finals)


def test_sizes_from_one_refinement_on_uniform_dfas():
    # Brzozowski (1962): the subset construction on the reversal of the
    # reachable part of any DFA, minimal or not, is minimal, so its size
    # is the atom count of the minimized DFA
    for d in _uniform_dfas(2000, 20261019):
        assert _complexity_and_atoms(d) == (complexity(d),
                                            signature_atom_count(minimize(d)))


def test_atom_count_small_cases():
    assert atom_count(ODD_A) == 2
    assert atom_count(minimize(A_OR_BAA)) == signature_atom_count(minimize(A_OR_BAA))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_reversal_of_a_minimal_dfa_determinizes_to_a_minimal_dfa(seed):
    # Brzozowski (1962); atom_count takes this DFA's size as the complexity
    rng = random.Random(seed)
    d = minimize(random_dfa(rng, rng.randint(1, 8), rng.randint(1, 3)))
    assert is_minimal(determinize(reverse_nfa(d)))


def test_dot_output_mentions_every_state():
    dot = A_OR_BAA.to_dot("g")
    assert dot.startswith("digraph g {")
    for q in range(5):
        assert f"{q} [" in dot
    assert "doublecircle" in dot


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_minimize_preserves_language(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, rng.randint(1, 6), rng.randint(1, 3))
    m = minimize(d)
    assert equivalent(d, m)
    assert m.n <= d.n
    assert is_minimal(m)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_complexity_matches_table_filling(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, rng.randint(1, 6), rng.randint(1, 3))
    assert complexity(d) == table_filling_complexity(d)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_double_reversal_preserves_language(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, rng.randint(1, 5), rng.randint(1, 3))
    twice = determinize(reverse_nfa(determinize(reverse_nfa(minimize(d)))))
    assert equivalent(d, twice)
