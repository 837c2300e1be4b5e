"""Cross-checks of the subset-construction and minimization kernels against
the loops they replaced (parent_kernels.py): same DFA, same numbering,
same ResourceCap."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sconvex import (Dfa, Nfa, ResourceCap, determinize, minimize, product_nfa,
                     reverse_nfa, star_nfa)
from sconvex.witnesses import reversal_witness, star_witness, syntactic_witness

from parent_kernels import parent_determinize, parent_minimize

WITNESSES = (star_witness, reversal_witness, syntactic_witness)


def _witnesses(n):
    # the reversal family starts at n=4
    return [w(n) for w in WITNESSES if n >= 4 or w is not reversal_witness]


def _random_nfa(rng: random.Random) -> Nfa:
    """An NFA with up to 20 states, so subsets span three bytes, up to 3
    letters and up to 3 initial states."""
    n = rng.randint(1, 20)
    names = tuple("abc"[:rng.randint(1, 3)])
    density = rng.choice((0.05, 0.15, 0.4))

    def some():
        return frozenset(q for q in range(n) if rng.random() < density)

    delta = tuple(tuple(some() for _ in names) for _ in range(n))
    initials = frozenset(rng.sample(range(n), min(n, rng.randint(0, 3))))
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(n, names, delta, initials, finals)


def _dfa_with_unreachable(rng: random.Random) -> Dfa:
    """A DFA whose first r states (after relabeling) reach only each other,
    plus u states nothing reaches; sometimes with many letters."""
    r = rng.randint(1, 8)
    u = rng.randint(0, 4)
    n = r + u
    letters = rng.choice((1, 2, 3, 40))
    # relabel every state but the initial one
    label = [0] + rng.sample(range(1, n), n - 1)
    delta = [[0] * n for _ in range(letters)]
    for row in delta:
        for q in range(n):
            row[label[q]] = label[rng.randrange(r if q < r else n)]
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa(n, tuple(f"x{k}" for k in range(letters)), delta, finals)


def _witness_nfas():
    for n in range(3, 9):
        for i, d in enumerate(_witnesses(n)):
            yield pytest.param(star_nfa(d), id=f"star-{n}-{i}")
            yield pytest.param(reverse_nfa(d), id=f"reverse-{n}-{i}")
        yield pytest.param(product_nfa(star_witness(n), syntactic_witness(n),
                                       complete_missing=True), id=f"product-{n}")


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_determinize_matches_parent_on_random_nfas(seed):
    m = _random_nfa(random.Random(seed))
    assert determinize(m) == parent_determinize(m)


@pytest.mark.parametrize("m", _witness_nfas())
def test_determinize_matches_parent_on_witnesses(m):
    assert determinize(m) == parent_determinize(m)


def _raises_at(construct, m, cap):
    try:
        construct(m, cap=cap)
    except ResourceCap as e:
        return str(e)
    return None


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_determinize_cap_matches_parent(seed):
    m = _random_nfa(random.Random(seed))
    size = parent_determinize(m).n
    for cap in range(size + 1):
        old = _raises_at(parent_determinize, m, cap)
        new = _raises_at(determinize, m, cap)
        assert (old is None) == (new is None)
        if old is not None:
            assert new.startswith(old + " (")


def test_determinize_cap_reports_progress():
    m = star_nfa(star_witness(8))
    full = parent_determinize(m)
    # subset 100 (the 101st) is first found while expanding subset `expanded`,
    # after subsets 0..expanded-1 were done
    expanded = min(q for q in range(full.n) if any(row[q] == 100 for row in full.delta))
    with pytest.raises(ResourceCap) as info:
        determinize(m, cap=100)
    assert str(info.value) == f"subset construction exceeded 100 subsets ({expanded} expanded)"


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_minimize_matches_parent_with_unreachable_states(seed):
    d = _dfa_with_unreachable(random.Random(seed))
    assert minimize(d) == parent_minimize(d)


@pytest.mark.parametrize("n", range(3, 9))
def test_minimize_matches_parent_on_witness_constructions(n):
    for d in _witnesses(n):
        for big in (d, parent_determinize(star_nfa(d)), parent_determinize(reverse_nfa(d))):
            assert minimize(big) == parent_minimize(big)
