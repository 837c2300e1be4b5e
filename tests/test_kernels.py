"""Cross-checks of the subset-construction, pair-walk, minimization,
respecting-map and semigroup-closure kernels against the loops they replaced
(parent_kernels.py): same DFA, same numbering, same ResourceCap and errors,
the same state counts from complexity, is_minimal, nfa_complexity and the
boolean suite's shared walk; same maps and elements in the same order, and
the same random draws."""

import hashlib
import random
import tracemalloc
from functools import partial
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from sconvex import (AlphabetMismatch, Dfa, Nfa, ResourceCap, Transformation,
                     TripleSystem, canonical_system, closure, complexity,
                     determinize, direct_product, is_minimal,
                     maximal_semigroup, minimize, nfa_complexity,
                     order_system, preorder_of, product_nfa,
                     random_suffix_convex, star_nfa, transition_semigroup)
from sconvex import automata
from sconvex.automata import _pair_complexity, _pair_walk
from sconvex.harness import (BOOLEAN_OPS, _random_convex_finals, _random_order,
                             _star_dialect, verify_boolean)
from sconvex.triples import _respecting_walk
from sconvex.witnesses import (reversal_system, reversal_witness, star_system,
                               star_witness, syntactic_system,
                               syntactic_witness)

from oracles import matrix_of
from parent_kernels import (parent_closure, parent_determinize,
                            parent_direct_product, parent_dump,
                            parent_minimize, parent_respecting_maps,
                            reverse_nfa)

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
    d = determinize(m)
    assert d == parent_determinize(m)
    assert nfa_complexity(m) == complexity(d)


@pytest.mark.parametrize("m", _witness_nfas())
def test_determinize_matches_parent_on_witnesses(m):
    d = determinize(m)
    assert d == parent_determinize(m)
    assert nfa_complexity(m) == complexity(d)


def _raises_at(construct, m, cap):
    '''The ResourceCap message of construct(m) with SUBSET_CAP at cap, or None.'''
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "SUBSET_CAP", cap)
        try:
            construct(m)
        except ResourceCap as e:
            return str(e)
    return None


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_determinize_cap_matches_parent(seed):
    m = _random_nfa(random.Random(seed))
    size = parent_determinize(m).n
    for cap in range(size + 1):
        old = _raises_at(partial(parent_determinize, cap=cap), m, cap)
        new = _raises_at(determinize, m, cap)
        assert (old is None) == (new is None)
        if old is not None:
            assert new.startswith(old + " (")
        assert _raises_at(nfa_complexity, m, cap) == new


def test_determinize_cap_reports_progress(monkeypatch):
    m = star_nfa(star_witness(8))
    full = parent_determinize(m)
    # subset 100 (the 101st) is first found while expanding subset `expanded`,
    # after subsets 0..expanded-1 were done
    expanded = min(q for q in range(full.n) if any(row[q] == 100 for row in full.delta))
    monkeypatch.setattr(automata, "SUBSET_CAP", 100)
    for construct in (determinize, nfa_complexity):
        with pytest.raises(ResourceCap) as info:
            construct(m)
        assert str(info.value) == \
            f"subset construction exceeded 100 subsets ({expanded} expanded)"


def _check_minimize(d):
    """minimize equals the parent's, and complexity and is_minimal, which
    count the refinement's blocks without building the quotient, agree
    with the parent's quotient size."""
    parent = parent_minimize(d)
    assert minimize(d) == parent
    assert complexity(d) == parent.n
    assert is_minimal(d) == (parent.n == d.n)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_minimize_matches_parent_with_unreachable_states(seed):
    _check_minimize(_dfa_with_unreachable(random.Random(seed)))


@pytest.mark.parametrize("n", range(3, 9))
def test_minimize_matches_parent_on_witness_constructions(n):
    for d in _witnesses(n):
        for big in (d, parent_determinize(star_nfa(d)), parent_determinize(reverse_nfa(d))):
            _check_minimize(big)


def _small_dfas():
    """DFAs on which the refinement stops at its edges: one state; two
    states already split by finality, either one final; every state final
    or none; and chains that become discrete after one or two rounds."""
    for k in (1, 2, 3):
        letters = tuple("abc"[:k])
        for finals in ((), (0,)):
            yield Dfa(1, letters, [(0,)] * k, finals)
        for finals in ((0,), (1,)):
            yield Dfa(2, letters, [(1, 0)] + [(0, 0)] * (k - 1), finals)
            yield Dfa(2, letters, [(1, 1)] * k, finals)
        for finals in ((), (0, 1, 2, 3)):
            yield Dfa(4, letters, [(1, 2, 3, 0)] * k, finals)
    # 0 -a-> 1 -a-> 2 -a-> 2, finals {2}: the first round splits {0, 1}
    # by their a-targets and makes the partition discrete
    yield Dfa(3, ("a", "b"), [(1, 2, 2), (0, 0, 0)], {2})
    # the same chain with states 1 and 2 swapped in the numbering
    yield Dfa(3, ("a", "b"), [(2, 1, 1), (0, 0, 0)], {1})
    # a chain one state longer is one block short of discrete after the
    # first round, and discrete after the second
    yield Dfa(4, ("a",), [(1, 2, 3, 3)], {3})


@pytest.mark.parametrize("d", _small_dfas())
def test_minimize_matches_parent_on_edge_cases(d):
    _check_minimize(d)


def test_counts_build_no_dfa(monkeypatch):
    built = []
    post_init = Dfa.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    d = parent_determinize(star_nfa(star_witness(6)))
    size = parent_minimize(d).n
    monkeypatch.setattr(Dfa, "__post_init__", counting)
    assert complexity(d) == size
    assert is_minimal(d) == (size == d.n)
    assert built == []
    # minimize builds exactly its result, so the counter does count
    minimize(d)
    assert built == [size]


# ---------------------------------------------------------------------------
# the pair walk

def _operand(rng: random.Random, names) -> Dfa:
    """A DFA over the letters `names`, taken in a shuffled order: up to 6
    states that reach only each other, one of them 0, and up to 3 that
    nothing reaches; its final set is sometimes empty or full."""
    r = rng.randint(1, 6)
    n = r + rng.randint(0, 3)
    # relabel every state but the initial one
    label = [0] + rng.sample(range(1, n), n - 1)
    delta = [[0] * n for _ in names]
    for row in delta:
        for q in range(n):
            row[label[q]] = label[rng.randrange(r if q < r else n)]
    shape = rng.random()
    finals = (() if shape < 0.1 else range(n) if shape < 0.2
              else [q for q in range(n) if rng.random() < 0.4])
    return Dfa(n, tuple(rng.sample(names, len(names))), delta, finals)


def _operand_pairs():
    for seed in range(2000):
        rng = random.Random(seed)
        names = "abc"[:rng.randint(1, 3)]
        yield _operand(rng, names), _operand(rng, names)


def test_direct_product_and_the_shared_walk_match_parent():
    sizes = set()
    for d1, d2 in _operand_pairs():
        walk = _pair_walk(d1, d2)
        for op in BOOLEAN_OPS:
            parent = parent_direct_product(d1, d2, op)
            assert direct_product(d1, d2, op) == parent
            assert _pair_complexity(d1, d2, walk, op) == complexity(parent)
        sizes.add((d1.n, d2.n))
    # the operands span 1 to 9 states each
    assert (1, 1) in sizes and (9, 9) in sizes


def test_verify_boolean_matches_parent():
    expected = []
    for m in range(3, 9):
        left = _star_dialect(m, ("a", "b", None, None, "e", "f"))
        for n in range(3, 9):
            right = _star_dialect(n, ("e", "f", None, None, "a", "b"))
            expected += [(f"boolean-{op}", (("n", n), ("m", m)), m * n,
                          complexity(parent_direct_product(left, right, op)))
                         for op in BOOLEAN_OPS]
    assert [(r.suite, r.params, r.expected, r.actual)
            for r in verify_boolean(range(3, 9), range(3, 9))] == expected


def test_verify_boolean_builds_no_dfa(monkeypatch):
    operands = {m: _star_dialect(m, ("a", "b", None, None, "e", "f")) for m in (4, 5)}
    operands[6] = _star_dialect(6, ("e", "f", None, None, "a", "b"))
    monkeypatch.setattr("sconvex.harness._star_dialect",
                        lambda n, images: operands[n])
    built = []
    post_init = Dfa.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(Dfa, "__post_init__", counting)
    reports = verify_boolean([4, 5], [6])
    assert [r.actual for r in reports] == [24] * 4 + [30] * 4
    assert built == []


def _error(construct, *args):
    with pytest.raises(Exception) as info:
        construct(*args)
    return type(info.value), str(info.value)


def test_direct_product_errors_match_parent():
    ab = Dfa(1, ("a", "b"), [(0,), (0,)], ())
    ba = Dfa(1, ("b", "a"), [(0,), (0,)], ())
    a = Dfa(1, ("a",), [(0,)], ())
    for d1, d2, op in ((ab, ba, "nand"), (ab, a, "nand"), (ab, a, "union"),
                       (a, ba, "xor"), (ab, ba, "Union")):
        error = _error(parent_direct_product, d1, d2, op)
        assert _error(direct_product, d1, d2, op) == error
    assert _error(direct_product, ab, a, "diff")[0] is AlphabetMismatch
    assert _error(_pair_complexity, ab, ba, _pair_walk(ab, ba), "nand") == \
        (ValueError, "unknown boolean operation 'nand'")


# ---------------------------------------------------------------------------
# the respecting-map walk

def _walk_args(s):
    return (preorder_of(s), s.scan_triples(), s.masks)


def _parent_walk(po, scan=(), masks=(), rng=None):
    # the parent walk takes the order as its matrix
    return parent_respecting_maps(po.n, matrix_of(po), scan, masks, rng)


def _shapes(scan):
    """The scan-triple shapes the walk checks at the level of their largest
    state: third coordinate largest, second largest, and (q, q, c)."""
    return {"third" if c > b else "second" if a < b else "diagonal"
            for (a, b, c) in scan}


@pytest.mark.parametrize("family", [star_system, reversal_system,
                                    syntactic_system])
@pytest.mark.parametrize("n", range(3, 8))
def test_respecting_walk_matches_parent_on_witness_systems(family, n):
    args = _walk_args(family(n))
    assert list(_respecting_walk(*args)()) == list(_parent_walk(*args))


def test_respecting_walk_matches_parent_on_random_orders():
    rng = random.Random(2718)
    for _ in range(60):
        po = _random_order(rng, rng.randint(2, 7))
        s = order_system(po, _random_convex_finals(rng, po))
        # the plain monotone walk, then the one with scan triples
        assert list(_respecting_walk(po)()) == list(_parent_walk(po))
        args = _walk_args(s)
        assert list(_respecting_walk(*args)()) == list(_parent_walk(*args))


def test_respecting_walk_matches_parent_on_canonical_systems():
    rng = random.Random(1618)
    shapes = set()
    sampled = 0
    while sampled < 200:
        d = minimize(random_suffix_convex(rng.randint(3, 7), rng.randint(1, 3),
                                          rng.randrange(2 ** 32)))
        if d.n < 3:
            continue
        sampled += 1
        args = _walk_args(canonical_system(d))
        shapes |= _shapes(args[1])
        assert list(_respecting_walk(*args)()) == list(_parent_walk(*args)), d
    assert shapes == {"third", "second", "diagonal"}


def _seeded_systems():
    rng = random.Random(31)
    for n in range(3, 8):
        yield _walk_args(syntactic_system(n))
        yield _walk_args(reversal_system(n))
        po = _random_order(rng, n)
        yield (po, (), ())
        yield _walk_args(order_system(po, _random_convex_finals(rng, po)))


@pytest.mark.parametrize("seed", range(5))
def test_seeded_walks_match_parent_and_leave_the_same_draws(seed):
    for args in _seeded_systems():
        walk = _respecting_walk(*args)
        # several walks on one set of tables, as random_suffix_convex runs them
        for taken in (1, 3, 40):
            (new, old) = (random.Random(seed), random.Random(seed))
            got = [m for _, m in zip(range(taken), walk(new))]
            want = [m for _, m in zip(range(taken),
                                      _parent_walk(*args, rng=old))]
            assert got == want
            assert new.random() == old.random()


@pytest.mark.parametrize("lengths", [
    [*range(1, 65), 127, 128, 129, 255, 256, 257, 300],
    pytest.param(range(1, 301), marks=pytest.mark.slow)])
def test_walk_shuffles_as_random_shuffle_draws(lengths):
    # with no state below another (not a Preorder, which needs 0 on top)
    # every level's candidates are all n values, so the first n maps show
    # the first value of each level's shuffle and all of the last one's
    for n in lengths:
        units = [1 << p for p in range(n)]
        walk = _respecting_walk(SimpleNamespace(n=n, up=units, down=units))
        (ours, theirs) = (random.Random(n), random.Random(n))
        got = [tuple(image) for image in islice(walk(ours), n)]
        orders = []
        for _ in range(n):
            order = list(range(n))
            theirs.shuffle(order)
            orders.append(order)
        head = tuple(order[0] for order in orders[:-1])
        assert got == [head + (v,) for v in orders[-1]], n
        assert ours.getstate() == theirs.getstate(), n


class _OneEdge(random.Random):
    """Draws one candidate edge per random order: randint gives 1 and
    draws nothing."""

    def randint(self, a, b):
        return 1


@pytest.mark.parametrize("m", range(2, 41))
def test_random_order_edge_draws_as_random_sample(m):
    # on both sides of sample's switch from a pool to a set at 21 items;
    # the one edge p <= q of a fresh order is the only up mask with 3 bits
    for seed in range(60):
        (ours, theirs) = (_OneEdge(seed), random.Random(seed))
        up = _random_order(ours, m + 1).up
        ((p, mask),) = [(p, u) for p, u in enumerate(up) if u.bit_count() == 3]
        q = (mask & ~(1 | 1 << p)).bit_length() - 1
        assert [p, q] == theirs.sample(range(1, m + 1), 2)
        assert ours.getstate() == theirs.getstate()


def _closure_outcome(close, gens, cap):
    try:
        return list(close(gens, cap))
    except ResourceCap as exc:
        return str(exc)


def test_closure_matches_parent():
    # the same elements in the same order, and the same refusal text, on
    # seeded lists of 1-4 generators on 1-7 points, some of them repeated,
    # the identity or a permutation
    rng = random.Random(30)
    outcomes = []
    for _ in range(200):
        n = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(6)
            if kind == 0:
                image = list(range(n))
            elif kind == 1:
                image = rng.sample(range(n), n)
            elif kind == 2 and gens:
                image = rng.choice(gens).image
            else:
                image = [rng.randrange(n) for _ in range(n)]
            gens.append(Transformation(n, image))
        for cap in [*range(1, 41), 5000]:
            got = _closure_outcome(closure, gens, cap)
            assert got == _closure_outcome(parent_closure, gens, cap), (gens, cap)
            outcomes.append(isinstance(got, str))
    # both the refusals and the full closures are reached
    assert 0.1 < sum(outcomes) / len(outcomes) < 0.9


def test_dump_matches_parent():
    # one chunk of 4,096 elements and many, and entries of two digits
    semigroups = [maximal_semigroup(syntactic_system(n)) for n in (3, 6)]
    semigroups += [transition_semigroup(d) for d in
                   (syntactic_witness(7), star_witness(12), star_witness(16))]
    assert list(map(len, semigroups)) == [10, 3775, 54468, 2443, 7836]
    for sg in semigroups:
        assert sg.dump() == parent_dump(list(sg))


def test_semigroup_iterates_its_packed_elements():
    sg = closure([Transformation(3, (1, 2, 0)), Transformation(3, (0, 0, 2))])
    assert list(sg) == [sg.elements[i:i + 3] for i in range(0, 3 * len(sg), 3)]
    assert len(sg.elements) == 3 * len(sg)
    # the one map of no states has no bytes to pack
    with pytest.raises(ValueError, match="domain must be nonempty"):
        maximal_semigroup(TripleSystem(0, frozenset(), ()))


def test_maximal_semigroup_of_the_syntactic_system_at_seven_is_pinned():
    sg = maximal_semigroup(syntactic_system(7))
    assert len(sg) == 54468
    assert hashlib.sha256(sg.elements).hexdigest() == \
        "aae18094a317f5346722ea3b6a5ae0938174ac609a7edd6a9b21d45eac01175e"


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_maximal_semigroup_memory_is_its_packed_maps():
    # 54,468 maps of 7 bytes are 381,276 bytes packed; a tuple of one bytes
    # object per map peaked at 2,661,612 bytes
    assert _traced_peak(lambda: maximal_semigroup(syntactic_system(7))) \
        < 1_500_000


def test_closure_packs_its_elements_under_its_walks_peak():
    # the walk's set and list of 54,468 elements peak at about 4,730,000
    # bytes, and a tuple of them on top at 5,159,912; one join over all of
    # them at once would take 80 bytes per element more
    d = syntactic_witness(7)
    assert _traced_peak(lambda: transition_semigroup(d)) < 5_100_000


def test_random_suffix_convex_is_pinned():
    digest = hashlib.sha256()
    for n in range(2, 10):
        for k in range(1, 7):
            for seed in range(20):
                digest.update(random_suffix_convex(n, k, seed).to_text().encode())
    assert digest.hexdigest() == \
        "c835abf1c22acfcf0dd4f4b51183128536307b772b37b36d45014eed7d176803"


def test_random_suffix_convex_is_pinned_past_nine():
    # byte images up to 256 states and tuples past them, and the random
    # order's edges drawn from a pool (n - 1 <= 21) and from a set
    digest = hashlib.sha256()
    for n in (10, 16, 23, 40, 300):
        for k in (1, 3):
            for seed in range(4):
                digest.update(random_suffix_convex(n, k, seed).to_text().encode())
    assert digest.hexdigest() == \
        "a967a27fd0ca74504d533bd392c6639a423d69a6fdea020d47328582311635d4"
