import importlib
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import sconvex
from sconvex import (AxiomViolation, Dfa, FormatError, NonConvexFinals,
                     NotMinimal, NotPartialOrder, NotSuffixConvex, Preorder,
                     ResourceCap, StateOutOfRange, TripleSystem,
                     antichain_order, canonical_system, classify, is_minimal,
                     maximal_semigroup, minimize, order_system, preorder_of,
                     random_suffix_convex, reversal_order, reversal_system,
                     reversal_witness, star_system, star_witness,
                     syntactic_system, syntactic_witness, total_order)
from sconvex import harness, triples
from sconvex.harness import (_random_convex_finals, _random_order,
                             monotone_reversal_count, monotone_total_count)
from sconvex.triples import (_convex_violation, _count_monotone,
                             _require_partial_order, _respecting_walk,
                             letter_names, monotone_count)

from conftest import monotone_walk, random_dfa
from oracles import (antichain_order_matrix, base_triples, dfa_respects,
                     first_convexity_violation, first_transitivity_violation,
                     make_triple_system, matrix_of, naive_axiom_c,
                     naive_canonical_triples, naive_monotone_maps,
                     naive_order_properties, naive_respecting_maps,
                     preorder_from_matrix, preorder_of_matrix,
                     quotient_contains, respects, reversal_order_matrix,
                     total_order_matrix)
from parent_kernels import parent_random_order

ENDS_A = Dfa(2, ("a", "b"), ((1, 1), (0, 0)), frozenset({1}))


def test_base_triples():
    base = base_triples(3)
    assert len(base) == 2 * 9 - 3
    assert (0, 2, 0) in base and (0, 2, 2) in base
    assert (0, 2, 1) not in base


def test_make_triple_system_accepts_base():
    s = make_triple_system(3, {1}, base_triples(3))
    assert s.contains(1, 2, 1)
    assert not s.contains(1, 2, 0)


def test_axiom_a_missing_mandatory_triple():
    triples = base_triples(2) - {(0, 1, 0)}
    with pytest.raises(AxiomViolation) as exc:
        make_triple_system(2, {1}, triples)
    assert exc.value.axiom == "A"
    assert exc.value.triple == (0, 1, 0)


def test_axiom_b_needs_symmetry():
    triples = base_triples(3) | {(1, 2, 0)}
    with pytest.raises(AxiomViolation) as exc:
        make_triple_system(3, {1}, triples)
    assert exc.value.axiom == "B"
    assert exc.value.triple == (2, 1, 0)


def test_axioms_are_checked_in_order():
    # each relation fails the earlier axiom at a later pair than the later
    # axiom, so a single pass over the pairs would name the wrong one
    a_and_b = base_triples(3) - {(2, 1, 2)} | {(0, 1, 2)}
    with pytest.raises(AxiomViolation) as exc:
        make_triple_system(3, {1}, a_and_b)
    assert (exc.value.axiom, exc.value.triple) == ("A", (2, 1, 2))
    b_and_c = base_triples(4) | {(1, 2, 3), (2, 1, 3), (2, 3, 0), (3, 2, 0),
                                 (3, 2, 1)}
    with pytest.raises(AxiomViolation) as exc:
        make_triple_system(4, {1}, b_and_c)
    assert (exc.value.axiom, exc.value.triple) == ("B", (2, 3, 1))


@pytest.mark.parametrize("state", [10 ** 12, -1])
def test_triple_from_text_checks_range_before_setting_bits(state):
    # a bit set first would be a 10^12-bit mask, or a negative shift
    tracemalloc.start()
    try:
        with pytest.raises(StateOutOfRange):
            TripleSystem.from_text(f"states 3\nfinal 1\n0 1 {state}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("masks", [(3, 3, 3), (3, 3, 3, 3, 3), (3, 7, 3, 3),
                                   (3, -1, 3, 3)])
def test_triple_system_refuses_malformed_masks(masks):
    with pytest.raises(FormatError, match="4 masks of 2 bits"):
        TripleSystem(2, {1}, masks)


def test_axiom_c_needs_transitivity():
    triples = base_triples(4) | {(1, 2, 3), (2, 1, 3), (2, 3, 0), (3, 2, 0)}
    with pytest.raises(AxiomViolation) as exc:
        make_triple_system(4, {1}, triples)
    assert exc.value.axiom == "C"
    assert exc.value.triple == (1, 2, 0)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_axiom_c_matches_naive_check(seed):
    # relations that pass (A) and (B), with no finals so (D) cannot fail:
    # (C) is the only axiom that can be missed
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    density = rng.choice((0.05, 0.2, 0.6))
    triples = base_triples(n)
    for p in range(n):
        for q in range(p + 1, n):
            for r in range(n):
                if rng.random() < density:
                    triples |= {(p, q, r), (q, p, r)}
    missed = naive_axiom_c(n, triples)
    if missed is None:
        assert make_triple_system(n, (), triples).triples == triples
    else:
        with pytest.raises(AxiomViolation) as exc:
            make_triple_system(n, (), triples)
        assert (exc.value.axiom, exc.value.triple) == ("C", missed)


def test_axiom_d_keeps_finals_closed():
    triples = base_triples(3) | {(1, 2, 0), (2, 1, 0)}
    with pytest.raises(AxiomViolation) as exc:
        make_triple_system(3, {1, 2}, triples)
    assert exc.value.axiom == "D"
    assert exc.value.triple[2] == 0


def test_triple_text_round_trip():
    s = star_system(4)
    again = TripleSystem.from_text(s.to_text())
    assert again.n == s.n
    assert again.finals == s.finals
    assert again.triples == s.triples


def test_triple_from_text_symmetrizes():
    s = TripleSystem.from_text("states 3\nfinal 1\n1 2 0\n")
    assert s.contains(2, 1, 0)


@pytest.mark.parametrize("text", [
    "",
    "states 3\n",
    "final 1\nstates 3\n",
    "states 3\nfinal 1\n1 2\n",
    "states 3\nfinal x\n",
    "states \u00b2\nfinal 1\n",
])
def test_triple_from_text_rejects(text):
    with pytest.raises(FormatError):
        TripleSystem.from_text(text)


@pytest.mark.parametrize("n", [1001, 100000])
def test_triple_from_text_refuses_before_the_mandatory_triples(n):
    # 2n^2 - n mandatory triples: 2,003,001 at n=1001, over the 2,000,000
    # cap; at n=100000 building them would take 2*10^10 tuples
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCap, match=f"on {n} states"):
            TripleSystem.from_text(f"states {n}\nfinal 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("text, message", [
    ("states 3\nfinal 1\n0 5 1\n", "state 5 outside 0..2"),
    ("states 3\nfinal 1\n0 1 -1\n", "state -1 outside 0..2"),
    ("states 3\nfinal 1\n0 1 9\n", "state 9 outside 0..2"),
    ("states 3\nfinal 7\n0 1 2\n", "final state 7 outside 0..2"),
])
def test_triple_from_text_range_checks(text, message):
    with pytest.raises(StateOutOfRange) as info:
        TripleSystem.from_text(text)
    assert str(info.value) == message


def _outcome(build):
    try:
        return build()
    except AxiomViolation as e:
        return (e.axiom, e.triple)


def test_triple_from_text_matches_make_triple_system():
    # the reader seeds the mandatory bits itself; make_triple_system, given
    # the mandatory triples, the listed ones and their mirrors, must agree,
    # down to the axiom violation named
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 6)
        finals = set(rng.sample(range(n), rng.randint(0, n)))
        listed = [tuple(rng.randrange(n) for _ in range(3))
                  for _ in range(rng.randint(0, 2 * n))]
        text = "".join([f"states {n}\nfinal", *(f" {f}" for f in finals), "\n",
                        *(f"{p} {q} {r}\n" for (p, q, r) in listed)])
        triples = base_triples(n) | set(listed) | {(q, p, r) for (p, q, r) in listed}
        assert _outcome(lambda: TripleSystem.from_text(text)) == \
            _outcome(lambda: make_triple_system(n, finals, triples))


def test_cube_and_scan_agree_with_membership():
    s = star_system(4)
    scan = s.scan_triples()
    assert list(scan) == sorted(scan)
    for (p, q, r) in scan:
        assert p <= q and r not in (p, q)
        assert s.contains(p, q, r)


def test_respects_reports_the_escaping_triple():
    s = star_system(4)
    # reversing the chain 3 <= 2 <= 1 lets the images of (0, 2, 1),
    # (0, 3, 1) and (0, 3, 2) escape
    assert not respects((0, 3, 2, 1), s)
    assert respects((0, 1, 2, 2), s)


def test_dfa_respects():
    assert dfa_respects(star_witness(4), star_system(4))


def test_preorder_validation():
    with pytest.raises(FormatError):
        preorder_from_matrix(((True, True), (False, True)))  # 0 not a maximum
    with pytest.raises(FormatError):
        preorder_from_matrix(((True, False), (True, False)))  # not reflexive
    with pytest.raises(FormatError, match="transitive"):
        preorder_from_matrix(((1, 0, 0, 0),
                              (1, 1, 0, 0),
                              (1, 1, 1, 0),
                              (1, 0, 1, 1)))  # 3 below 2 below 1 but not 3 below 1
    with pytest.raises(FormatError, match="need 3 up masks of 3 bits each"):
        Preorder(3, (0b1, 0b11))  # a mask short
    with pytest.raises(FormatError, match="need 3 up masks of 3 bits each"):
        Preorder(3, (0b1, 0b11, 0b1101))  # a bit past the last state


def test_preorder_names_the_first_transitivity_violation():
    rng = random.Random(9090)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 7)
        density = rng.choice((0.1, 0.3, 0.6))
        leq = [[p == q or q == 0 or rng.random() < density for q in range(n)]
               for p in range(n)]
        want = first_transitivity_violation(leq)
        seen.add(want is None)
        if want is None:
            _assert_masks_match(preorder_from_matrix(leq), leq)
        else:
            message = "preorder not transitive: {} <= {} <= {}".format(*want)
            with pytest.raises(FormatError) as info:
                preorder_from_matrix(leq)
            assert str(info.value) == message
    assert seen == {True, False}


def _assert_masks_match(po, leq):
    # bit q of up[p] is p <= q, and bit q of down[p] is q <= p, in the
    # matrix leq the order was drawn as
    for p in range(po.n):
        for q in range(po.n):
            assert po.up[p] >> q & 1 == leq[p][q]
            assert po.down[p] >> q & 1 == leq[q][p]
    assert all(m >> po.n == 0 for m in po.up + po.down)


def test_preorder_masks_at_the_edges():
    empty = total_order(0)
    assert empty.up == empty.down == ()
    big = _random_order(random.Random(8), 300)
    assert len(big.up) == len(big.down) == 300
    _assert_masks_match(big, parent_random_order(random.Random(8), 300))


def test_preorder_relations():
    po = total_order(3)
    # 2 below 1 below 0: bit q of up[p] when p <= q, of down[p] when q <= p
    assert (po.up, po.down) == ((0b001, 0b011, 0b111), (0b111, 0b110, 0b100))
    assert po.dump() == "1 0 0\n1 1 0\n1 1 1\n"
    rng = random.Random(77)
    mixed = _random_preorder(rng, 7)
    while not naive_order_properties(matrix_of(mixed))[2]:
        mixed = _random_preorder(rng, 7)
    for po, leq in ((reversal_order(5), reversal_order_matrix(5)),
                    (antichain_order(4), antichain_order_matrix(4)),
                    (mixed, matrix_of(mixed))):
        _assert_masks_match(po, leq)
        assert po.dump() == "".join(" ".join(str(int(x)) for x in row) + "\n"
                                    for row in leq)


def test_mask_builders_match_their_matrices():
    for n in range(10):
        assert matrix_of(total_order(n)) == total_order_matrix(n)
        assert matrix_of(antichain_order(n)) == antichain_order_matrix(n)
        if n >= 3:
            assert matrix_of(reversal_order(n)) == reversal_order_matrix(n)
            for family in (star_system, reversal_system, syntactic_system):
                s = family(n)
                assert matrix_of(preorder_of(s)) == preorder_of_matrix(s)


def test_random_order_draws_the_parent_masks():
    for seed in range(500):
        (ours, parent) = (random.Random(seed), random.Random(seed))
        n = ours.randint(0, 9)
        parent.randint(0, 9)
        assert _random_order(ours, n) == \
            preorder_from_matrix(parent_random_order(parent, n))
        # the draws that follow, such as the final set's, are the parent's
        assert ours.random() == parent.random()


def test_syntactic_system_preorder_has_pods():
    (is_partial, _, symmetric, _) = \
        naive_order_properties(matrix_of(preorder_of(syntactic_system(4))))
    assert not is_partial
    assert symmetric == {(0, 1), (0, 2), (1, 2)}


def test_preorder_of_inverts_order_system():
    for po in (total_order(4), reversal_order(5), antichain_order(3)):
        finals = {1}
        assert matrix_of(preorder_of(order_system(po, finals))) == matrix_of(po)


def test_order_system_is_the_betweenness_relation():
    rng = random.Random(2718)
    for _ in range(40):
        po = _random_order(rng, rng.randint(2, 7))
        s = order_system(po, _random_convex_finals(rng, po))
        leq = matrix_of(po)
        states = range(po.n)
        assert s.triples == {(p, q, r) for p in states for q in states
                             for r in states
                             if r in (p, q) or leq[p][r] and leq[r][q]
                             or leq[q][r] and leq[r][p]}
        assert TripleSystem.from_text(s.to_text()) == s


def test_order_system_rejects_bad_finals():
    with pytest.raises(NonConvexFinals):
        order_system(total_order(4), {1, 3})
    with pytest.raises(NotPartialOrder):
        order_system(preorder_of(syntactic_system(4)), {2})


def _random_preorder(rng, n):
    """A preorder with maximum 0: a random relation closed under
    reflexivity, p <= 0 and transitivity, so its cycles, and any state
    above 0, become equivalent states."""
    density = rng.choice((0.03, 0.1, 0.3))
    leq = [[p == q or q == 0 or rng.random() < density for q in range(n)]
           for p in range(n)]
    for r in range(n):
        for p in range(n):
            if leq[p][r]:
                leq[p] = [x or y for x, y in zip(leq[p], leq[r])]
    return preorder_from_matrix(leq)


def test_require_partial_order_names_the_least_equivalent_pair():
    rng = random.Random(4242)
    partial = 0
    for _ in range(600):
        po = _random_preorder(rng, rng.randint(1, 9))
        (is_partial, _, symmetric, _) = naive_order_properties(matrix_of(po))
        if is_partial:
            _require_partial_order(po)
            partial += 1
        else:
            p, q = min(symmetric)
            with pytest.raises(NotPartialOrder,
                               match=f"^states {p} and {q} are equivalent$"):
                _require_partial_order(po)
    # both kinds were drawn
    assert 50 < partial < 550


def _exclusion_order_reads(po):
    # the two order facts verify_exclusions reads off the masks: totality as
    # up | down full on every row, and the reversal witness's shape (a
    # partial order whose only comparable distinct non-zero pair is 2 below
    # 1) as equality with reversal_order
    full = (1 << po.n) - 1
    return (all(u | d == full for u, d in zip(po.up, po.down)),
            po == reversal_order(po.n))


def test_order_properties_of_named_orders():
    assert _exclusion_order_reads(total_order(4)) == (True, False)
    assert _exclusion_order_reads(antichain_order(4)) == (False, False)
    assert _exclusion_order_reads(reversal_order(5)) == (False, True)
    chain = naive_order_properties(matrix_of(total_order(4)))
    assert chain == (True, True, frozenset(), {(2, 1), (3, 1), (3, 2)})
    flat = naive_order_properties(matrix_of(antichain_order(4)))
    assert flat == (True, False, frozenset(), frozenset())
    rev = naive_order_properties(matrix_of(reversal_order(5)))
    assert rev == (True, False, frozenset(), {(2, 1)})


def test_order_properties_match_the_pair_loop():
    rng = random.Random(5151)
    orders = [_random_preorder(rng, rng.randint(3, 9)) for _ in range(300)]
    orders += [_random_order(rng, rng.randint(3, 9)) for _ in range(300)]
    orders += [named(n) for n in range(3, 10)
               for named in (reversal_order, total_order, antichain_order)]
    seen = set()
    for po in orders:
        (is_partial, total, _, nonzero) = naive_order_properties(matrix_of(po))
        reads = _exclusion_order_reads(po)
        assert reads == (total, is_partial and nonzero == {(2, 1)})
        seen.add(reads)
    # every combination was drawn: reversal_order(3) is the chain on 3 states
    assert len(seen) == 4


def test_convex_violation_names_the_triple_of_the_loop():
    rng = random.Random(6161)
    orders = [_random_order(rng, rng.randint(1, 7)) for _ in range(60)]
    orders += [_random_preorder(rng, rng.randint(1, 7)) for _ in range(60)]
    convex = 0
    for po in orders:
        for bits in range(1 << po.n):
            finals = frozenset(q for q in range(po.n) if bits >> q & 1)
            want = first_convexity_violation(matrix_of(po), finals)
            assert _convex_violation(po, bits) == want
            convex += want is None
    # both kinds of final set were met
    assert 0 < convex < sum(1 << po.n for po in orders)


def _images(sg):
    return [tuple(img) for img in sg]


def test_monotone_maps_match_naive_filter():
    rng = random.Random(31337)
    seeded = [_random_order(rng, rng.randint(2, 6)) for _ in range(12)]
    for po in (total_order(3), total_order(4), antichain_order(3),
               reversal_order(4), *seeded):
        # same maps, in the same lexicographic order
        assert list(map(tuple, monotone_walk(po))) == naive_monotone_maps(po)


def test_monotone_counts_small():
    assert len(list(monotone_walk(total_order(3)))) == 10
    assert len(list(monotone_walk(antichain_order(3)))) == 11
    assert len(list(monotone_walk(reversal_order(4)))) == 40


def test_monotone_cap(monkeypatch):
    # the chain's system on 8 states is respected by its 6,435 monotone maps
    produced = []

    def counted(*args):
        walk = _respecting_walk(*args)

        def maps():
            for image in walk():
                produced.append(image)
                yield image
        return maps

    monkeypatch.setattr(triples, "_respecting_walk", counted)
    monkeypatch.setattr(triples, "CLOSURE_CAP", 100)
    with pytest.raises(ResourceCap, match="^enumeration on 8 states reached "
                                          "101 maps, over the cap 100$"):
        maximal_semigroup(star_system(8))
    # the first 100 come, then one more that is refused, and no others
    assert len(produced) == 101
    # the cap bounds the maps produced, not the n^n candidates
    monkeypatch.setattr(triples, "CLOSURE_CAP", 6435)
    assert len(maximal_semigroup(star_system(8))) == 6435
    monkeypatch.setattr(triples, "CLOSURE_CAP", 54467)
    with pytest.raises(ResourceCap, match="reached 54468 maps, over the cap 54467"):
        maximal_semigroup(syntactic_system(7))


def test_monotone_count_matches_enumeration_on_probe_orders():
    for n in range(2, 7):
        for up in harness._nonzero_posets(n):
            po = harness._probe_order(n, up)
            assert monotone_count(po) == sum(1 for _ in monotone_walk(po))


def test_monotone_count_matches_enumeration_on_random_orders():
    rng = random.Random(7070)
    for _ in range(300):
        po = _random_order(rng, rng.randint(0, 7))
        assert monotone_count(po) == sum(1 for _ in monotone_walk(po))


def test_monotone_count_meets_both_closed_forms():
    for n in range(3, 41):
        assert monotone_count(total_order(n)) == monotone_total_count(n)
        assert monotone_count(reversal_order(n)) == monotone_reversal_count(n)


def test_monotone_count_refuses_what_enumeration_refuses():
    rng = random.Random(6262)
    refused = 0
    for _ in range(200):
        po = _random_preorder(rng, rng.randint(2, 6))
        try:
            _require_partial_order(po)
        except NotPartialOrder as e:
            refused += 1
            with pytest.raises(NotPartialOrder, match=f"^{e}$"):
                monotone_count(po)
        else:
            assert monotone_count(po) == sum(1 for _ in monotone_walk(po))
    assert 0 < refused < 200


def test_monotone_count_cap(monkeypatch):
    # the antichain on 5 states leaves 5 distinct mask tuples after state 0
    monkeypatch.setattr(triples, "CLOSURE_CAP", 4)
    with pytest.raises(ResourceCap, match="5 states reached 5 mask tuples "
                                          "at state 0, over the cap 4"):
        monotone_count(antichain_order(5))
    monkeypatch.setattr(triples, "CLOSURE_CAP", 5)
    # image[0] = 0 frees the other four states, any other image pins them
    assert monotone_count(antichain_order(5)) == 5 ** 4 + 4


def test_bounded_count_is_exact_at_or_above_its_floor():
    # floors around the true count: at or below it the count is exact, and
    # above it the counter may stop early but answers below the floor
    rng = random.Random(8181)
    stopped = 0
    for _ in range(300):
        po = _random_order(rng, rng.randint(1, 8))
        (n, up, down) = (po.n, po.up, po.down)
        count = monotone_count(po)
        assert _count_monotone(n, up, down, 0) == count
        for floor in (1, count // 2, count - 1, count, count + 1, 2 * count,
                      rng.randint(1, 3 * count)):
            got = _count_monotone(n, up, down, floor)
            if count >= floor:
                assert got == count
            else:
                assert got < floor
                stopped += got != count
    assert stopped > 0


def test_count_refuses_past_its_work_cap(monkeypatch):
    # the tables of every level alone are n^4/2 bits or so, so 1000 states
    # are refused before the first
    po = total_order(1000)
    start = time.process_time()
    with pytest.raises(ResourceCap, match="counting on 1000 states would handle "
                                          "501500000000 mask bits by state 0"):
        monotone_count(po)
    assert time.process_time() - start < 0.1
    # total_order(4): tables 160 bits, then each level's tuples times 16 bits
    # per remaining state: 64, 4 * 48, 4 * 32 and 4 * 16
    monkeypatch.setattr(triples, "COUNT_WORK_CAP", 607)
    with pytest.raises(ResourceCap, match="handle 608 mask bits by state 3, "
                                          "over the cap 607"):
        monotone_count(total_order(4))
    monkeypatch.setattr(triples, "COUNT_WORK_CAP", 608)
    assert monotone_count(total_order(4)) == 35


def test_enumeration_refuses_too_many_states_before_producing_maps(monkeypatch):
    # the refusal comes before the walk builds any table, and with the cap
    # at 10 a late size check would show as the cap message instead
    def no_walk(*args):
        raise AssertionError("the walk was built")

    monkeypatch.setattr(triples, "_respecting_walk", no_walk)
    monkeypatch.setattr(triples, "CLOSURE_CAP", 10)
    with pytest.raises(ResourceCap, match="^map enumeration supports at most "
                                          "12 states, got 13$"):
        maximal_semigroup(star_system(13))


def test_monotone_maps_of_empty_order():
    assert list(monotone_walk(total_order(0))) == [b""]


def test_random_walk_beyond_byte_images():
    n = 300
    po = _random_order(random.Random(8), n)
    image = next(_respecting_walk(po)(random.Random(9)))
    assert len(image) == n and max(image) < n
    leq = matrix_of(po)
    assert all(leq[image[p]][image[q]]
               for p in range(n) for q in range(n) if leq[p][q])


@pytest.mark.parametrize("family", [star_system, reversal_system,
                                    syntactic_system])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_maximal_semigroup_matches_naive_respect(family, n):
    s = family(n)
    assert _images(maximal_semigroup(s)) == naive_respecting_maps(s)


def test_maximal_semigroup_matches_naive_respect_on_random_systems():
    rng = random.Random(5150)
    for _ in range(30):
        d = minimize(random_suffix_convex(rng.randint(2, 5), rng.randint(1, 3),
                                          rng.randrange(2 ** 32)))
        s = canonical_system(d)
        assert _images(maximal_semigroup(s)) == naive_respecting_maps(s)


def test_library_imports_without_numpy():
    src = Path(sconvex.__file__).resolve().parents[1]
    code = "import sconvex, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})


# every public name of the package, module by module, so that adding or
# removing one is a change made here too
PUBLIC = {
    # automata
    "Dfa", "Nfa", "atom_count", "complete_to", "complexity", "determinize",
    "direct_product", "is_minimal", "minimize",
    "nfa_complexity", "product_nfa", "star_nfa", "union_alphabet",
    # classify
    "Classification", "classify",
    # errors
    "AlphabetMismatch", "AxiomViolation", "BadSize", "FormatError",
    "NonConvexFinals", "NotInjective", "NotMinimal", "NotPartialOrder",
    "NotSuffixConvex", "NotationError", "ResourceCap", "SconvexError",
    "SizeMismatch", "StateOutOfRange",
    # harness
    "ProbeResult", "Report", "monotone_reversal_count",
    "monotone_total_count", "probe_conjecture", "product_bound",
    "random_suffix_convex", "reports_to_json", "reversal_bound",
    "star_bound", "syntactic_bound", "verify_boolean", "verify_exclusions",
    "verify_monotone_counts", "verify_product", "verify_reversal",
    "verify_star", "verify_syntactic",
    # transformations
    "Semigroup", "Transformation", "closure", "compose", "identity",
    "parse_transformation", "semigroup_size", "syntactic_complexity",
    "transition_semigroup",
    # triples
    "Preorder", "TripleSystem", "antichain_order", "canonical_system",
    "maximal_semigroup", "order_system", "preorder_of", "total_order",
    # witnesses
    "LetterMap", "dialect", "reversal_order", "reversal_system",
    "reversal_witness", "star_system", "star_witness", "syntactic_system",
    "syntactic_witness",
}


def test_public_surface_is_pinned():
    names = {name for name, value in vars(sconvex).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == PUBLIC


def test_maximal_semigroup_of_bare_system():
    s = make_triple_system(2, {1}, base_triples(2))
    assert _images(maximal_semigroup(s)) == [(0, 0), (0, 1), (1, 1)]


def test_maximal_semigroup_of_chain_system_is_monotone_set():
    s = star_system(3)
    assert _images(maximal_semigroup(s)) == naive_monotone_maps(total_order(3))


def test_monotone_dfa_shape():
    # one letter per monotone map, as the probe's configurations are built
    maps = tuple(naive_monotone_maps(total_order(3)))
    d = Dfa(3, letter_names(len(maps)), maps, {1})
    assert len(d.alphabet) == 10
    assert d.alphabet[0] == "t000"
    assert dfa_respects(d, star_system(3))


def test_canonical_system_requires_minimal_convex_input():
    with pytest.raises(NotMinimal):
        canonical_system(Dfa(4, ("a",), ((3, 2, 1, 0),), frozenset({1, 3})))
    a_or_baa = Dfa(5, ("a", "b"),
                   ((1, 4, 3, 1, 4), (2, 4, 4, 4, 4)),
                   frozenset({1}))
    with pytest.raises(NotSuffixConvex):
        canonical_system(a_or_baa)


def test_canonical_system_messages_and_no_minimize(monkeypatch):
    # no input builds a quotient: a refusal spells its counterexample by
    # classify's walks on the DFA itself, already known to be minimal
    calls = []
    for name in ("automata", "classify"):
        module = importlib.import_module(f"sconvex.{name}")
        real = module.minimize
        monkeypatch.setattr(module, "minimize",
                            lambda d, real=real: calls.append(d) or real(d))
    canonical_system(star_witness(5))
    assert len(calls) == 0
    with pytest.raises(NotMinimal) as info:
        canonical_system(Dfa(4, ("a",), ((3, 2, 1, 0),), frozenset({1, 3})))
    assert str(info.value) == "canonical_system needs a minimal DFA"
    assert len(calls) == 0
    a_or_baa = Dfa(5, ("a", "b"),
                   ((1, 4, 3, 1, 4), (2, 4, 4, 4, 4)),
                   frozenset({1}))
    with pytest.raises(NotSuffixConvex) as info:
        canonical_system(a_or_baa)
    assert str(info.value) == \
        "language is not suffix-convex: (('b',), ('a',), ('a',))"
    assert len(calls) == 0


def test_canonical_system_refuses_at_the_first_marked_seed(monkeypatch):
    # the minimal star closure of the a-d dialect of the star witness at
    # n=6 has 48 states and a final initial state, so its first marks
    # already fall on a seed (0, x, y) and the backward fixpoint pops no
    # mask: nothing reaches the _bits of a pop
    four = sconvex.dialect(star_witness(6), sconvex.LetterMap.keep(
        "abcdef", ("a", "b", "c", "d", None, None)))
    d = minimize(sconvex.determinize(sconvex.star_nfa(four)))
    assert d.n == 48
    calls = []
    real = triples._bits
    monkeypatch.setattr(triples, "_bits",
                        lambda mask: calls.append(mask) or real(mask))
    with pytest.raises(NotSuffixConvex) as info:
        canonical_system(d)
    assert str(info.value) == ("language is not suffix-convex: "
                               "(('a', 'a', 'a'), ('a',), ())")
    assert calls == []


def test_canonical_system_refuses_exactly_the_non_convex():
    # the refusal read off the masks against classify's triple walk, and
    # the minimality refusal against is_minimal, on uniform DFAs
    rng = random.Random(2202)
    refused = 0
    for _ in range(600):
        d = random_dfa(rng, rng.randint(2, 7), rng.randint(1, 3))
        for d in (d, minimize(d)):
            if not is_minimal(d):
                with pytest.raises(NotMinimal):
                    canonical_system(d)
                continue
            c = classify(d)
            if c.suffix_convex:
                canonical_system(d)
                continue
            refused += 1
            with pytest.raises(NotSuffixConvex) as info:
                canonical_system(d)
            assert str(info.value) == \
                f"language is not suffix-convex: {c.counterexample}"
    assert refused > 100


def test_canonical_system_of_a_convex_dfa_runs_no_triple_walk(monkeypatch):
    calls = []
    classify_module = importlib.import_module("sconvex.classify")
    real = classify_module._chain

    def counted(d):
        calls.append(d)
        return real(d)

    # wherever the chain of walks is bound by name
    for module in (classify_module, triples):
        if getattr(module, "_chain", None) is real:
            monkeypatch.setattr(module, "_chain", counted)
    for n in range(4, 9):
        for family in (star_witness, reversal_witness, syntactic_witness):
            canonical_system(family(n))
    assert calls == []


def test_canonical_system_refuses_past_the_system_cap_at_once(monkeypatch):
    # a triple system on 1001 states would have 2,003,001 mandatory triples;
    # the refusal comes before the minimality check and the n^2 tables
    d = star_witness(1001)
    monkeypatch.setattr(triples, "is_minimal",
                        lambda d: pytest.fail("is_minimal was called"))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCap) as info:
            canonical_system(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == ("a system on 1001 states has 2003001 "
                               "mandatory triples, over the cap 2000000")
    assert peak < 1 << 16


def test_canonical_system_memory_is_its_masks():
    d = star_witness(60)
    tracemalloc.start()
    try:
        canonical_system(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_canonical_system_of_a_left_ideal():
    s = canonical_system(ENDS_A)
    assert len(s.triples) == 7
    assert not s.contains(1, 1, 0)
    assert dfa_respects(ENDS_A, s)


def test_canonical_system_is_respected_and_contains_designed_system():
    for n in (3, 4, 5):
        designed = star_system(n)
        canon = canonical_system(star_witness(n))
        assert designed.triples <= canon.triples
        assert dfa_respects(star_witness(n), canon)


def _containment_samples():
    for n in range(4, 11):
        yield star_witness(n)
        yield reversal_witness(n)
        yield syntactic_witness(n)
    rng = random.Random(808)
    for _ in range(200):
        yield minimize(random_suffix_convex(rng.randint(2, 7), rng.randint(1, 4),
                                            rng.randrange(2 ** 32)))


def test_quotient_containment_is_canonical_membership():
    # L_p is in L_q exactly when no word takes (p, p, q) to
    # (final, final, non-final), that is, when (p, p, q) is in R
    for d in _containment_samples():
        triples = canonical_system(d).triples
        for p in range(d.n):
            for q in range(d.n):
                assert quotient_contains(d, p, q) == ((p, p, q) in triples), \
                    (d, p, q)


def _canonical_samples():
    # 200 seeded DFAs from each generator, counting only those that keep two
    # or more states after minimizing: one state leaves nothing to check
    for n in range(3, 9):
        yield star_witness(n)
        yield syntactic_witness(n)
        if n >= 4:
            yield reversal_witness(n)
    rng = random.Random(4711)
    sampled = 0
    while sampled < 200:
        d = minimize(random_suffix_convex(rng.randint(2, 8), rng.randint(1, 3),
                                          rng.randrange(2 ** 32)))
        if d.n >= 2:
            sampled += 1
            yield d
    sampled = 0
    while sampled < 200:
        d = minimize(random_dfa(rng, rng.randint(2, 7), rng.randint(1, 2)))
        if d.n >= 2 and classify(d).suffix_convex:
            sampled += 1
            yield d


def test_canonical_system_matches_forward_walks():
    for d in _canonical_samples():
        assert canonical_system(d).triples == naive_canonical_triples(d), d
