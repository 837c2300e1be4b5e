import time

import pytest

from sconvex import (AlphabetMismatch, BadSize, LetterMap, NotInjective,
                     ResourceCap, TripleSystem, base_triples, canonical_system,
                     complexity, dfa_respects, dialect, identity, is_minimal,
                     order_properties, preorder_of,
                     reversal_order, reversal_system, reversal_witness,
                     star_system, star_witness, syntactic_system,
                     syntactic_witness, total_order, Transformation)
from sconvex import triples, witnesses

from oracles import matrix_of


def test_star_witness_letters_at_four():
    d = star_witness(4)
    assert d.alphabet == ("a", "b", "c", "d", "e", "f")
    assert d.finals == frozenset({2})
    assert d.delta == ((1, 2, 3, 3),
                       (0, 0, 1, 2),
                       (0, 3, 3, 3),
                       (0, 1, 3, 3),
                       (0, 1, 2, 3),
                       (0, 1, 2, 3))


def test_reversal_witness_letters_at_five():
    d = reversal_witness(5)
    assert d.alphabet == ("a", "b", "c", "d", "e", "f", "g", "h")
    assert d.finals == frozenset({1})
    assert d.delta == ((0, 1, 2, 4, 3),
                       (0, 1, 2, 1, 4),
                       (0, 1, 2, 2, 4),
                       (0, 0, 2, 3, 4),
                       (0, 2, 2, 3, 4),
                       (0, 1, 1, 3, 4),
                       (3, 3, 3, 3, 3),
                       (1, 2, 2, 2, 2))


def test_reversal_witness_cycle_degenerates_at_four():
    assert reversal_witness(4).delta[0] == (0, 1, 2, 3)


def test_syntactic_witness_letters_at_four():
    d = syntactic_witness(4)
    assert d.finals == frozenset({2})
    assert d.delta == ((0, 2, 1, 3),
                       (0, 2, 1, 3),
                       (0, 1, 1, 3),
                       (0, 1, 0, 3),
                       (1, 1, 1, 3),
                       (0, 1, 2, 0),
                       (0, 1, 2, 1),
                       (3, 3, 3, 3))


def test_syntactic_witness_keeps_b_trivial_at_three():
    d = syntactic_witness(3)
    assert d.delta[1] == (0, 1, 2)


@pytest.mark.parametrize("family, first_n", [
    (star_witness, 3), (reversal_witness, 4), (syntactic_witness, 3),
])
def test_witness_size_guards(family, first_n):
    with pytest.raises(BadSize):
        family(first_n - 1)
    family(first_n)


@pytest.mark.parametrize("n", range(3, 9))
def test_star_witness_is_minimal_with_full_complexity(n):
    d = star_witness(n)
    assert is_minimal(d)
    assert complexity(d) == n


@pytest.mark.parametrize("n", range(4, 9))
def test_reversal_witness_is_minimal(n):
    assert is_minimal(reversal_witness(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_syntactic_witness_is_minimal(n):
    assert is_minimal(syntactic_witness(n))


def test_reversal_order_shape():
    po = reversal_order(5)
    props = order_properties(po)
    assert props.is_partial_order
    assert props.comparable_nonzero_pairs == {(2, 1)}


@pytest.mark.parametrize("family, letters", [
    (star_witness, 6), (reversal_witness, 8), (syntactic_witness, 8),
])
def test_witnesses_refuse_more_than_closure_cap_table_entries(family, letters,
                                                               monkeypatch):
    # the rule random_suffix_convex keeps: n * letters at most CLOSURE_CAP
    with monkeypatch.context() as m:
        m.setattr(witnesses, "CLOSURE_CAP", 10 * letters)
        assert len(family(10).alphabet) == letters
        with pytest.raises(ResourceCap) as refused:
            family(11)
    assert str(refused.value) == (f"a witness on 11 states with {letters} "
                                  f"letters needs n*letters at most {10 * letters}")
    # refused before anything of size n is built
    start = time.process_time()
    with pytest.raises(ResourceCap):
        family(20_000_000)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("family", [star_system, reversal_system, syntactic_system])
def test_systems_refuse_what_from_text_refuses(family, monkeypatch):
    # 2n^2 - n mandatory triples at most CLOSURE_CAP, the one rule that
    # TripleSystem.from_text keeps, so every system built reads back
    with monkeypatch.context() as m:
        m.setattr(witnesses, "CLOSURE_CAP", 2 * 10 * 10 - 10)
        m.setattr(triples, "CLOSURE_CAP", 2 * 10 * 10 - 10)
        assert TripleSystem.from_text(family(10).to_text()) == family(10)
        with pytest.raises(ResourceCap) as refused:
            family(11)
        with pytest.raises(ResourceCap) as read:
            TripleSystem.from_text("states 11\nfinal 1\n")
    assert str(refused.value) == str(read.value) == (
        "a system on 11 states has 231 mandatory triples, over the cap 190")
    start = time.process_time()
    with pytest.raises(ResourceCap):
        family(30000)
    assert time.process_time() - start < 0.1


def test_designed_systems_match_their_orders():
    assert matrix_of(preorder_of(star_system(4))) == matrix_of(total_order(4))
    assert matrix_of(preorder_of(reversal_system(5))) == matrix_of(reversal_order(5))


def test_witnesses_respect_their_systems():
    for n in (3, 4, 5):
        assert dfa_respects(star_witness(n), star_system(n))
        assert dfa_respects(syntactic_witness(n), syntactic_system(n))
    for n in (4, 5):
        assert dfa_respects(reversal_witness(n), reversal_system(n))


def test_syntactic_system_anchored_triples():
    s = syntactic_system(4)
    # every pair below n-2 relates through the initial state, as does n-1
    assert s.contains(0, 1, 2)
    assert s.contains(2, 0, 1)
    assert s.contains(0, 3, 1)
    assert not s.contains(0, 1, 3)
    assert not s.contains(1, 2, 0)


@pytest.mark.parametrize("n", range(3, 10))
def test_syntactic_system_is_the_set_its_docstring_names(n):
    pod = range(n - 1)
    want = base_triples(n)
    want |= {t for p in pod for q in pod for t in ((0, p, q), (p, 0, q))}
    want |= {t for q in pod for t in ((0, n - 1, q), (n - 1, 0, q))}
    s = syntactic_system(n)
    assert s.triples == want
    assert TripleSystem.from_text(s.to_text()) == s


def test_canonical_system_sizes_for_the_witnesses():
    assert len(canonical_system(star_witness(4)).triples) == 36
    assert len(canonical_system(star_witness(5)).triples) == 65
    assert len(canonical_system(reversal_witness(4)).triples) == 30
    assert len(canonical_system(reversal_witness(5)).triples) == 47
    assert len(canonical_system(syntactic_witness(4)).triples) == 38
    assert len(canonical_system(syntactic_witness(5)).triples) == 66


def test_designed_systems_sit_inside_the_canonical_ones():
    assert star_system(4).triples <= canonical_system(star_witness(4)).triples
    assert reversal_system(4).triples <= \
        canonical_system(reversal_witness(4)).triples
    assert syntactic_system(4).triples <= \
        canonical_system(syntactic_witness(4)).triples


def test_letter_map_parse_and_keep():
    m = LetterMap.parse("abc", "a=x,b=-,c=z")
    assert m.image == ("x", None, "z")
    assert m == LetterMap.keep("abc", ("x", None, "z"))
    with pytest.raises(NotInjective):
        LetterMap.parse("abc", "a=x,b=x,c=z")


def test_dialect_restricts_and_renames():
    d = star_witness(4)
    sub = dialect(d, LetterMap.parse("abcdef", "a=u,b=v,c=-,d=-,e=-,f=-"))
    assert sub.alphabet == ("u", "v")
    assert sub.delta == ((1, 2, 3, 3), (0, 0, 1, 2))
    assert sub.finals == d.finals
    with pytest.raises(AlphabetMismatch):
        dialect(reversal_witness(4), LetterMap.parse("abc", "a=x,b=y,c=z"))


def test_identity_letters_are_identities():
    d = star_witness(6)
    for letter in ("e", "f"):
        img = d.delta[d.letter_index(letter)]
        assert Transformation(6, img) == identity(6)
