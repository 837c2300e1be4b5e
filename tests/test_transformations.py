import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconvex import (NotationError, ResourceCap, SizeMismatch, Semigroup,
                     Transformation, closure, compose, identity,
                     monotone_maps, parse_transformation,
                     reversal_witness, semigroup_size,
                     star_witness, syntactic_complexity, syntactic_witness,
                     total_order, transition_semigroup)
from sconvex.transformations import _IDENTITY, _Sims, _components, _image_orbit

from oracles import naive_closure


def t(n, *image):
    return Transformation(n, tuple(image))


def test_compose_applies_left_factor_first():
    first = t(3, 1, 2, 0)
    second = t(3, 0, 0, 2)
    assert compose(first, second).image == (0, 2, 0)
    with pytest.raises(SizeMismatch):
        compose(first, identity(4))


@pytest.mark.parametrize("text, image", [
    ("1", (0, 1, 2, 3)),
    ("(_0^2 q->q+1)", (1, 2, 3, 3)),
    ("(_1^3 q->q-1)", (0, 0, 1, 2)),
    ("(0,1,2)", (1, 2, 0, 3)),
    ("(2)", (0, 1, 2, 3)),
    ("(1,3)", (0, 3, 2, 1)),
    ("({1,2}->3)", (0, 3, 3, 3)),
    ("(Q->2)", (2, 2, 2, 2)),
    ("(Q_4->0)", (0, 0, 0, 0)),
    ("(Q\\{0}->2)", (0, 2, 2, 2)),
    ("(3->1)", (0, 1, 2, 1)),
    ("(0,1)(2->3)", (1, 0, 3, 3)),
])
def test_parse_single_forms(text, image):
    assert parse_transformation(text, 4).image == image


def test_parse_composes_left_to_right():
    # send 0 to 1, then swap 1 with 2: 0 lands on 2
    assert parse_transformation("(0->1)(1,2)", 3).image == (2, 2, 1)
    assert parse_transformation("(1,2)(0->1)", 3).image == (1, 2, 1)


def test_parse_ignores_whitespace_and_unicode_arrows():
    assert parse_transformation(" ( _0^2  q -> q+1 ) ", 4).image == (1, 2, 3, 3)
    assert parse_transformation("(1→3)", 4).image == (0, 3, 2, 3)
    assert parse_transformation("(Q∖{0}->2)", 4).image == (0, 2, 2, 2)


@pytest.mark.parametrize("bad", [
    "", "()", "(0,1", "0,1)", "(q->q+1)",
    "(0,0)", "({}->1)", "(Q_5->0)", "(->)", "junk",
    "(0,1)x(2->3)",
])
def test_parse_rejects(bad):
    with pytest.raises(NotationError):
        parse_transformation(bad, 4)


@pytest.mark.parametrize("bad", ["(_0^9 q->q+1)", "(9->1)", "({1,9}->2)"])
def test_parse_rejects_out_of_range_states(bad):
    from sconvex import StateOutOfRange
    with pytest.raises(StateOutOfRange):
        parse_transformation(bad, 4)


@st.composite
def _factor(draw, n):
    """A factor literal on n states and its image, worked out here."""
    kind = draw(st.sampled_from(("cycle", "set", "whole", "one", "shift")))
    image = list(range(n))
    if kind == "shift" and n >= 2:
        lo = draw(st.integers(0, n - 2))
        hi = draw(st.integers(lo, n - 2))
        if draw(st.booleans()):
            for q in range(lo, hi + 1):
                image[q] = q + 1
            return f"(_{lo}^{hi} q->q+1)", image
        for q in range(lo + 1, hi + 2):
            image[q] = q - 1
        return f"(_{lo + 1}^{hi + 1}q → q−1)", image
    if kind == "cycle":
        states = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        for i, q in enumerate(states):
            image[q] = states[(i + 1) % len(states)]
        return "(" + ", ".join(map(str, states)) + ")", image
    target = draw(st.integers(0, n - 1))
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1))
    if kind == "set":
        text = "({" + ",".join(map(str, sorted(sources))) + "}->" + f"{target})"
    elif kind == "whole" and len(sources) < n:
        kept = sorted(set(range(n)) - sources)
        text = ("(Q\\{" + ",".join(map(str, kept)) + "} -> " + f"{target})"
                if kept else f"(Q_{n}->{target})")
    else:
        sources = {min(sources)}
        text = f"( {min(sources)} -> {target} )"
    for q in sources:
        image[q] = target
    return text, image


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_factor(n), min_size=1, max_size=6))))
@settings(max_examples=300, deadline=None)
def test_parse_multi_factor_literals_compose_from_the_identity(case):
    n, factors = case
    image = list(range(n))
    for _, factor in factors:
        image = [factor[q] for q in image]
    text = " ".join(text for text, _ in factors)
    assert parse_transformation(text, n).image == tuple(image)


@pytest.mark.parametrize("text, n, error, message", [
    ("(0,1)(9->1)", 4, "StateOutOfRange", "state 9 outside 0..3"),
    ("(0,1)(x)(9->1)", 4, "NotationError", "cannot read factor (x)"),
    ("(Q->0)(Q_5->0)", 4, "NotationError", "Q_5 used with domain size 4"),
    ("(0,1)", 0, "ValueError", "domain must be nonempty"),
    ("1", 0, "ValueError", "domain must be nonempty"),
])
def test_parse_errors_name_the_first_bad_factor(text, n, error, message):
    with pytest.raises(Exception) as info:
        parse_transformation(text, n)
    assert (type(info.value).__name__, str(info.value)) == (error, message)


def test_closure_of_full_transformation_monoid_generators():
    gens = [t(3, 1, 2, 0), t(3, 1, 0, 2), t(3, 0, 0, 2)]
    sg = closure(gens)
    assert len(sg) == 27
    assert set(map(tuple, sg.images)) == naive_closure(gens)


def test_closure_respects_cap():
    gens = [t(3, 1, 2, 0), t(3, 1, 0, 2), t(3, 0, 0, 2)]
    with pytest.raises(ResourceCap):
        closure(gens, cap=10)


def test_closure_excludes_identity_unless_generated():
    only_constant = closure([t(3, 1, 1, 1)])
    assert len(only_constant) == 1
    assert bytes(identity(3).image) not in only_constant.images
    cyc = closure([t(3, 1, 2, 0)])
    assert bytes(identity(3).image) in cyc.images
    assert len(cyc) == 3


def test_semigroup_membership_and_dump():
    sg = closure([t(2, 1, 1)])
    assert sg.images == (bytes((1, 1)),)
    assert sg.dump() == "1 1\n"


def test_transition_semigroup_of_two_state_cycle():
    from sconvex import Dfa
    swap = Dfa(2, ("a",), ((1, 0),), frozenset({1}))
    sg = transition_semigroup(swap)
    assert set(map(tuple, sg.images)) == {(1, 0), (0, 1)}


def test_syntactic_complexity_minimizes_first():
    from sconvex import Dfa
    # two redundant copies of the odd counter; the language only needs 2 states
    bloated = Dfa(4, ("a",), ((3, 2, 1, 0),), frozenset({1, 3}))
    assert syntactic_complexity(bloated) == 2


def test_syntactic_complexity_against_naive_closure():
    w = star_witness(4)
    gens = [Transformation(4, w.delta[k]) for k in range(len(w.alphabet))]
    assert syntactic_complexity(w) == len(naive_closure(gens))


# ---------------------------------------------------------------------------
# semigroup_size against the naive closure

@st.composite
def generator_sets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    image = st.one_of(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
        st.permutations(range(n)),
        st.just(list(range(n))))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if gens and draw(st.integers(min_value=0, max_value=4)) == 0:
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(Transformation(n, tuple(draw(image))))
    return gens


@given(generator_sets())
@settings(max_examples=300, deadline=None)
def test_semigroup_size_against_naive_closure(gens):
    size = len(naive_closure(gens))
    # a cap the closure fits under is one the count fits under too
    assert semigroup_size(gens, cap=size) == size


def _letters(d):
    return [Transformation(d.n, row) for row in d.delta]


@pytest.mark.parametrize("family, n", [
    *[(star_witness, n) for n in range(3, 9)],
    *[(reversal_witness, n) for n in range(4, 9)],
    *[(syntactic_witness, n) for n in range(3, 8)],
    pytest.param(syntactic_witness, 8, marks=pytest.mark.slow),
])
def test_semigroup_size_of_witnesses(family, n):
    gens = _letters(family(n))
    assert semigroup_size(gens) == len(naive_closure(gens))


def _full_monoid_generators(n):
    '''Generators of S_n, a cycle and a swap, and of T_n, those and 0 -> 1.'''
    cycle = tuple((q + 1) % n for q in range(n))
    swap = (1, 0) + tuple(range(2, n)) if n > 1 else (0,)
    merge = (1,) + tuple(range(1, n)) if n > 1 else (0,)
    symmetric = [Transformation(n, cycle), Transformation(n, swap)]
    return symmetric, symmetric + [Transformation(n, merge)]


@pytest.mark.parametrize("n", range(1, 9))
def test_semigroup_size_of_full_and_symmetric_monoids(n):
    symmetric, full = _full_monoid_generators(n)
    assert semigroup_size(symmetric) == math.factorial(n)
    assert semigroup_size(full) == n ** n
    if n <= 6:
        assert semigroup_size(symmetric) == len(naive_closure(symmetric))
        assert semigroup_size(full) == len(naive_closure(full))


@pytest.mark.parametrize("n", range(1, 8))
def test_semigroup_size_of_the_chains_monotone_monoid(n):
    gens = [Transformation(n, img) for img in monotone_maps(total_order(n))]
    assert semigroup_size(gens) == math.comb(2 * n - 1, n)
    if n <= 6:
        assert semigroup_size(gens) == len(naive_closure(gens))


def test_semigroup_size_of_a_constant_and_a_cycle():
    constant = [t(5, 3, 3, 3, 3, 3)]
    cycle = [t(5, 1, 2, 3, 0, 4)]
    assert semigroup_size(constant) == len(naive_closure(constant)) == 1
    assert semigroup_size(cycle) == len(naive_closure(cycle)) == 4


def test_semigroup_size_caps_what_it_stores():
    # T_5 has 31 image sets and 52 kernels, one R-class for each kernel
    _, full = _full_monoid_generators(5)
    with pytest.raises(ResourceCap) as refused:
        semigroup_size(full, cap=30)
    assert str(refused.value) == ("semigroup count exceeded 30 image sets "
                                  "(29 of them expanded)")
    with pytest.raises(ResourceCap) as refused:
        semigroup_size(full, cap=51)
    assert str(refused.value) == ("semigroup count exceeded 51 R-classes "
                                  "(31 image sets, 49 R-classes expanded)")
    assert semigroup_size(full, cap=52) == 5 ** 5
    with pytest.raises(ResourceCap, match="at most 255 states"):
        semigroup_size([identity(256)])


def test_image_orbit_against_the_naive_closure():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = [tuple(rng.randrange(n) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        gen_bytes = [bytes(g) for g in gens]
        keys, flat = _image_orbit(gen_bytes, [g + _IDENTITY[n:] for g in gen_bytes],
                                  10 ** 6)
        # a key marks each member with 255
        sets = [frozenset(q for q in range(n) if key[q] == 255) for key in keys]
        assert len(set(sets)) == len(sets)
        elements = naive_closure([Transformation(n, g) for g in gens])
        assert set(sets) == {frozenset(e) for e in elements}, gens
        starts = list(dict.fromkeys(frozenset(g) for g in gens))
        assert sets[:len(starts)] == starts, gens
        # flat[i*k + j] is image set i under generator j
        assert flat == [sets.index(frozenset(g[q] for q in P))
                        for P in sets for g in gens], gens


def _reach(succ, v):
    seen, todo = {v}, [v]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def test_components_against_mutual_reachability():
    rng = random.Random(30)
    for _ in range(300):
        count = rng.randint(1, 30)
        k = rng.randint(1, 4)
        succ = [[rng.randrange(count) for _ in range(k)] for _ in range(count)]
        component_of = _components(succ)
        reach = [_reach(succ, v) for v in range(count)]
        naive = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(count)}
        named = {}
        for v, c in enumerate(component_of):
            named.setdefault(c, set()).add(v)
        assert set(map(frozenset, named.values())) == naive, succ
        # each component is named by one of its own nodes
        assert all(c in members for c, members in named.items()), succ


def test_semigroup_size_does_not_depend_on_generator_order():
    # reversing the generators moves where the count first lands in each
    # orbit component, and so where that component is rooted
    rng = random.Random(30)
    for _ in range(200):
        n = rng.randint(1, 7)
        gens = [Transformation(n, rng.sample(range(n), n) if rng.randrange(3) == 0
                               else [rng.randrange(n) for _ in range(n)])
                for _ in range(rng.randint(2, 4))]
        size = semigroup_size(gens)
        assert semigroup_size(gens[::-1]) == size, gens
        if n <= 5:
            assert len(closure(gens)) == size, gens


def test_sims_table_order_and_membership():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 7)
        perms = []
        for _ in range(rng.randint(1, 3)):
            image = list(range(n))
            rng.shuffle(image)
            perms.append(tuple(image))
        group = naive_closure([Transformation(n, p) for p in perms])
        table = _Sims(bytes(range(n)))
        for p in perms:
            table.add(bytes(p) + bytes(range(n, 256)))
        assert table.order() == len(group), perms
        for _ in range(10):
            image = list(range(n))
            rng.shuffle(image)
            member = bytes(image) + bytes(range(n, 256)) in table
            assert member == (tuple(image) in group), (perms, image)
