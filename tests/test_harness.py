import json
import random
import time
import tracemalloc
from itertools import permutations

import pytest

from sconvex import (BadSize, Dfa, Report, ResourceCap, atom_count, classify,
                     complexity, harness, is_minimal, minimize,
                     monotone_reversal_count, monotone_total_count, probe_conjecture, product_bound,
                     random_suffix_convex, reports_to_json, reversal_bound,
                     star_bound, syntactic_bound, verify_boolean,
                     verify_exclusions, verify_monotone_counts,
                     verify_product, verify_reversal, verify_star,
                     verify_syntactic)
from sconvex import automata, triples
from sconvex.automata import _complexity_and_atoms
from sconvex.triples import _bits, _convex_violation, letter_names, monotone_count

from conftest import monotone_walk
from oracles import (matrix_of, naive_class_key, naive_nonzero_posets,
                     signature_atom_count)


def test_report_line_shape():
    r = Report("star", (("n", 4),), 12, 12, 0.5)
    assert r.passed
    assert r.line() == "suite=star n=4 expected=12 actual=12 result=PASS"
    r2 = Report("product", (("n", 3), ("m", 4)), 40, 39, 1.0)
    assert not r2.passed
    assert r2.line() == "suite=product n=3 m=4 expected=40 actual=39 result=FAIL"


def test_reports_serialize_to_json():
    rows = json.loads(reports_to_json([Report("star", (("n", 3),), 6, 6, 0.2)]))
    assert rows == [{"suite": "star", "params": {"n": 3}, "expected": 6,
                     "actual": 6, "pass": True, "ms": 0.2}]


def test_bound_formulas():
    assert [star_bound(n) for n in (3, 4, 10)] == [6, 12, 768]
    assert product_bound(3, 3) == 20
    assert product_bound(6, 4) == 88
    assert [reversal_bound(n) for n in (4, 10)] == [14, 896]
    assert [syntactic_bound(n) for n in (3, 4, 5)] == [10, 45, 336]
    assert [monotone_total_count(n) for n in (3, 4)] == [10, 35]
    assert [monotone_reversal_count(n) for n in (3, 4, 5)] == [10, 40, 265]


def test_verify_star_small():
    reports = verify_star([3, 4])
    assert [r.actual for r in reports] == [6, 12]
    assert all(r.passed for r in reports)


def test_verify_product_single_pair():
    (r,) = verify_product(ms=[3], ns=[3])
    assert r.suite == "product"
    assert r.actual == 20 and r.passed


def test_verify_boolean_single_pair():
    reports = verify_boolean(ms=[3], ns=[4])
    assert {r.suite for r in reports} == {"boolean-union", "boolean-xor",
                                          "boolean-diff", "boolean-intersect"}
    assert all(r.actual == 12 and r.passed for r in reports)


def test_verify_reversal_without_sampling():
    reports = verify_reversal([4, 5], samples=0)
    values = {r.suite: r.actual for r in reports}
    assert values["reversal-bound"] == 0
    assert all(r.passed for r in reports)


def test_verify_syntactic_small():
    reports = verify_syntactic([3, 4])
    assert [r.actual for r in reports] == [10, 45]


@pytest.mark.parametrize("suite, lists", [
    (verify_star, {"ns": [3, 4]}),
    (verify_product, {"ms": [3, 4], "ns": [3, 4]}),
    (verify_boolean, {"ms": [3, 4], "ns": [3, 4]}),
    (verify_reversal, {"ns": [4, 5]}),
    (verify_monotone_counts, {"ns": [3, 4]}),
])
def test_suites_take_one_shot_iterators(suite, lists):
    # each suite walks its ranges for the refusal checks before the reports
    def rows(reports):
        return [{k: v for k, v in r.to_json().items() if k != "ms"} for r in reports]

    expected = rows(suite(**lists))
    assert expected
    assert rows(suite(**{k: iter(v) for k, v in lists.items()})) == expected


def test_verify_exclusions_suite_names():
    reports = verify_exclusions([4])
    names = [r.suite for r in reports]
    assert names == ["exclusions-star-reversal-bound",
                     "exclusions-reversal-star-bound",
                     "exclusions-star-syntactic",
                     "exclusions-reversal-syntactic",
                     "exclusions-star-order-total",
                     "exclusions-reversal-order-pair",
                     "exclusions-star-containments",
                     "exclusions-reversal-containments"]
    assert all(r.passed for r in reports)


def test_random_suffix_convex_is_deterministic():
    a = random_suffix_convex(5, 3, seed=42)
    b = random_suffix_convex(5, 3, seed=42)
    c = random_suffix_convex(5, 3, seed=43)
    assert a == b
    assert a != c


# Pinned samples: any drift in the random draws of the shuffled walk that
# picks the letters changes at least one of these.
GOLDEN_RANDOM = [
    ((4, 2, 1), {1}, ((1, 2, 2, 2), (2, 2, 2, 2))),
    ((6, 3, 7), {1, 2, 3, 5},
     ((0, 2, 0, 5, 0, 4), (1, 1, 1, 3, 1, 1), (1, 1, 1, 3, 1, 1))),
    ((5, 4, 20260819), {1, 4},
     ((2, 2, 2, 2, 2), (3, 2, 4, 4, 4), (1, 1, 1, 1, 1), (4, 4, 4, 4, 4))),
]


@pytest.mark.parametrize("args, finals, delta", GOLDEN_RANDOM)
def test_random_suffix_convex_golden_text(args, finals, delta):
    n, letters, seed = args
    want = Dfa(n, letter_names(letters), delta, finals)
    assert random_suffix_convex(n, letters, seed).to_text() == want.to_text()


@pytest.mark.parametrize("n, letters", [(2, 1), (3, 2), (5, 4), (8, 6)])
def test_random_suffix_convex_shape_and_convexity(n, letters, seed=9):
    d = random_suffix_convex(n, letters, seed)
    assert d.n == n
    assert len(d.alphabet) == letters
    assert classify(d).suffix_convex


def test_random_suffix_convex_refuses_runaway_walks_only():
    # a walk that backtracks out of dead ends is refused once it has
    # entered n + CLOSURE_CAP // n levels ...
    with pytest.raises(ResourceCap, match="letter t001 entered 62533 levels "
                       "on 32 states, past the cap n [+] CLOSURE_CAP // n = 62532"):
        random_suffix_convex(32, 5, 56)
    # ... while one that enters 30,607 levels, under the cap of 66,696,
    # still gives its DFA
    d = random_suffix_convex(30, 1, 57)
    assert classify(d).suffix_convex


def test_random_suffix_convex_spread():
    seen_proper = False
    for seed in range(30):
        d = random_suffix_convex(4, 4, seed)
        if classify(d).proper:
            seen_proper = True
            break
    assert seen_proper


def test_probe_reaches_formula_at_three():
    result = probe_conjecture(3)
    assert result.max_syntactic == 10
    assert result.achieves_formula
    assert result.proper_count == 1
    text = "\n".join(result.lines())
    assert "max=10" in text and "achieves=true" in text


# Every line of probe_conjecture(n); best-order and best-final move if the
# order in which the probe meets the posets changes.
GOLDEN_PROBE = {
    2: ["probe n=2 orders=1 configurations=2 proper=0 max=0 formula=3 "
        "achieves=false",
        "best-order", "  1 0", "  1 1", "best-final "],
    3: ["probe n=3 orders=2 configurations=11 proper=1 max=10 formula=10 "
        "achieves=true",
        "best-order", "  1 0 0", "  1 1 0", "  1 1 1", "best-final 1"],
    4: ["probe n=4 orders=5 configurations=57 proper=11 max=40 formula=45 "
        "achieves=false",
        "best-order", "  1 0 0 0", "  1 1 0 0", "  1 0 1 0", "  1 0 1 1",
        "best-final 2"],
    5: ["probe n=5 orders=16 configurations=339 proper=101 max=265 "
        "formula=336 achieves=false",
        "best-order", "  1 0 0 0 0", "  1 1 0 0 0", "  1 0 1 0 0",
        "  1 0 0 1 0", "  1 0 0 1 1", "best-final 3"],
    # from the code that put every monotone map in as a letter
    6: ["probe n=6 orders=63 configurations=2341 proper=935 max=2620 "
        "formula=3775 achieves=false",
        "best-order", "  1 0 0 0 0 0", "  1 1 0 0 0 0", "  1 0 1 0 0 0",
        "  1 0 0 1 0 0", "  1 0 0 0 1 0", "  1 0 0 0 1 1", "best-final 4"],
    # from the code that tried all (n-1)! relabellings of every grown poset
    # and enumerated every order's maps, with its n <= 6 guard lifted
    7: ["probe n=7 orders=318 configurations=20180 proper=9938 max=33667 "
        "formula=54468 achieves=false",
        "best-order", "  1 0 0 0 0 0 0", "  1 1 0 0 0 0 0", "  1 0 1 0 0 0 0",
        "  1 0 0 1 0 0 0", "  1 0 0 0 1 0 0", "  1 0 0 0 0 1 0",
        "  1 0 0 0 0 1 1", "best-final 5"],
    # from the code that grew every labelled poset before keying it, with
    # its n <= 7 guard lifted
    8: ["probe n=8 orders=2045 configurations=218021 proper=125419 max=524390 "
        "formula=941241 achieves=false",
        "best-order", "  1 0 0 0 0 0 0 0", "  1 1 0 0 0 0 0 0",
        "  1 0 1 0 0 0 0 0", "  1 0 0 1 0 0 0 0", "  1 0 0 0 1 0 0 0",
        "  1 0 0 0 0 1 0 0", "  1 0 0 0 0 0 1 0", "  1 0 0 0 0 0 1 1",
        "best-final 6"],
    # from the code that listed every convex set of every order and counted
    # every order's maps in full, with its n <= 8 guard lifted
    9: ["probe n=9 orders=16999 configurations=3023833 proper=1957155 "
        "max=9566137 formula=18874432 achieves=false",
        "best-order", "  1 0 0 0 0 0 0 0 0", "  1 1 0 0 0 0 0 0 0",
        "  1 0 1 0 0 0 0 0 0", "  1 0 0 1 0 0 0 0 0", "  1 0 0 0 1 0 0 0 0",
        "  1 0 0 0 0 1 0 0 0", "  1 0 0 0 0 0 1 0 0", "  1 0 0 0 0 0 0 1 0",
        "  1 0 0 0 0 0 0 1 1", "best-final 7"],
}


@pytest.mark.parametrize("n", [n if n < 9 else pytest.param(n, marks=pytest.mark.slow)
                               for n in sorted(GOLDEN_PROBE)])
def test_probe_golden_lines(n):
    assert list(probe_conjecture(n).lines()) == GOLDEN_PROBE[n]


def _matrix(up):
    '''The 0/1 matrix of a poset given by the masks of the points strictly
    above each point.'''
    m = len(up)
    return tuple(tuple(p == q or up[p] >> q & 1 == 1 for q in range(m))
                 for p in range(m))


def _probe_orders(n):
    return [harness._probe_order(n, up) for up in harness._nonzero_posets(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_grown_posets_match_the_relation_sweep(n):
    # the least matrix over all relabellings of each class, in the order of
    # the least bit code over all its labellings, is the sweep's list
    least = sorted(map(harness._least_labelling, harness._nonzero_posets(n)))
    assert [_matrix(up) for _, up in least] == naive_nonzero_posets(n)


def test_grown_posets_count_the_classes():
    # 1, 1, 2, 5, 16, 63, 318, 2045 unlabelled posets on 0..7 points (A000112)
    assert [len(harness._nonzero_posets(n)) for n in range(2, 9)] == \
        [1, 2, 5, 16, 63, 318, 2045]


@pytest.mark.slow
def test_grown_posets_count_the_classes_on_eight_points():
    assert len(harness._nonzero_posets(9)) == 16999


def test_grown_posets_list_each_point_below_earlier_ones():
    for n in range(2, 9):
        for up in harness._nonzero_posets(n):
            assert all(above >> k == 0 for k, above in enumerate(up))


def test_grown_posets_key_only_the_extensions_of_the_smaller_classes(monkeypatch):
    # one point more keys each class on 5 points below each of its
    # up-closed sets, and no other labelled poset
    extensions = sum(len(harness._up_closed_sets(up))
                     for up in harness._nonzero_posets(6))
    calls = []
    class_key = harness._class_key
    monkeypatch.setattr(harness, "_class_key",
                        lambda up: calls.append(up) or class_key(up))
    harness._nonzero_posets(6)
    smaller = len(calls)
    calls.clear()
    harness._nonzero_posets(7)
    assert len(calls) == smaller + extensions


def _relabel(up, order):
    '''The masks up with the old point order[i] renamed to i.'''
    new = [0] * len(order)
    for i, a in enumerate(order):
        new[a] = 1 << i
    return tuple(sum(new[b] for b in _bits(up[a])) for a in order)


def test_class_key_is_a_relabelling_of_each_grown_poset():
    # each grown poset on 5 points and a random relabelling of it have the
    # same key, a listed class and one of the poset's relabellings
    rng = random.Random(4242)
    classes = set(harness._nonzero_posets(6))
    grown = [()]
    for _ in range(5):
        grown = [up + (above,) for up in grown
                 for above in harness._up_closed_sets(up)]
    for up in grown:
        order = rng.sample(range(5), 5)
        key = harness._class_key(_relabel(up, order))
        assert key == harness._class_key(up) and key in classes
        assert key in {_relabel(up, pi) for pi in permutations(range(5))}


def test_class_key_matches_the_sweep_of_every_sorted_relabelling():
    # the cell-by-cell search against trying every relabelling that sorts
    # the points by size, on each grown poset on 6 points and a random
    # relabelling of it
    rng = random.Random(3131)
    for up in harness._nonzero_posets(7):
        for above in harness._up_closed_sets(up):
            grown = up + (above,)
            for poset in (grown, _relabel(grown, rng.sample(range(7), 7))):
                assert harness._class_key(poset) == naive_class_key(poset)


def test_probe_orders_put_zero_above_each_class_matrix():
    for n in range(2, 7):
        top = ((True,) + (False,) * (n - 1),)
        want = [top + tuple((True,) + row for row in _matrix(up))
                for up in harness._nonzero_posets(n)]
        assert [matrix_of(po) for po in _probe_orders(n)] == want


def test_probe_counts_at_most_once_per_class(monkeypatch):
    # each class costs a walk over its key and at most one bounded count;
    # only the antichain, which has no proper configuration, is not counted
    calls = []
    count = harness._count_monotone

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(harness, "_count_monotone", counted)
    for n in range(2, 8):
        calls.clear()
        orders = probe_conjecture(n).orders
        assert len(calls) == orders - 1


def test_counts_from_the_key_match_the_convex_sets():
    # |C(P)| + |I(P)| - 2 and |C(P)| - |I(P)| against every convex set of
    # the order and the proper ones among them
    for n in range(2, 9):
        for up in harness._nonzero_posets(n):
            po = harness._probe_order(n, up)
            convex = [f for f in range(1, (1 << n) - 1)
                      if _convex_violation(po, f) is None]
            (c, i) = harness._convex_counts(up)
            assert i == len(harness._up_closed_sets(up))
            assert c + i - 2 == len(convex)
            assert c - i == sum(not f & 1 and any(po.down[g] & ~f for g in _bits(f))
                                for f in convex)


def test_counted_masks_relabel_the_probe_order():
    # state m-1-p of the counted order is state p+1 of the probe order, and
    # 0 is state m; the count is the same
    for n in range(2, 7):
        for up in harness._nonzero_posets(n):
            po = harness._probe_order(n, up)
            (ups, downs) = harness._counted_masks(up)
            name = [n - 1] + [n - 2 - p for p in range(n - 1)]
            assert ups == [sum(1 << name[q] for q in range(n) if po.up[p] >> q & 1)
                           for p in sorted(range(n), key=name.__getitem__)]
            assert downs == [sum(1 << name[q] for q in range(n)
                                 if po.down[p] >> q & 1)
                             for p in sorted(range(n), key=name.__getitem__)]
            assert triples._count_monotone(n, ups, downs) == monotone_count(po)


@pytest.mark.parametrize("n", [3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_closed_form_matches_classify(n):
    # the probe reads each configuration off the order; classify and
    # is_minimal judge the DFA with every monotone map as a letter
    proper_count = 0
    for po in _probe_orders(n):
        maps = tuple(monotone_walk(po))
        names = letter_names(len(maps))
        leq = matrix_of(po)
        for bits in [f for f in range(1, (1 << n) - 1)
                     if _convex_violation(po, f) is None]:
            finals = frozenset(q for q in range(n) if bits >> q & 1)
            up_closed = all(r in finals for f in finals
                            for r in range(n) if leq[f][r])
            down_closed = all(q in finals for f in finals
                              for q in range(n) if leq[q][f])
            d = Dfa(n, names, maps, finals)
            c = classify(d)
            assert c.suffix_convex
            assert c.suffix_closed == up_closed
            assert c.left_ideal == (bool(finals) and down_closed)
            assert not c.suffix_free
            assert c.proper == (0 not in finals and not down_closed)
            if c.proper:
                assert is_minimal(d)
                proper_count += 1
    assert proper_count == probe_conjecture(n).proper_count


def test_probe_at_two_is_degenerate():
    result = probe_conjecture(2)
    assert result.orders == 1
    assert result.max_syntactic <= syntactic_bound(2)


def test_probe_rejects_large_n():
    with pytest.raises(ResourceCap, match="2 <= n <= 9, got 10"):
        probe_conjecture(10)
    with pytest.raises(BadSize, match="n >= 2, got 1"):
        probe_conjecture(1)


def test_monotone_counts_refuse_before_building_orders():
    # building the two orders first costs about 374 MB max RSS at 2,000
    # states, and it grows with n^2; n=100 goes first, so the whole range
    # is refused before any count
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCap, match="at most 100 states, got 3000"):
            verify_monotone_counts([100, 3000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_monotone_counts_refuse_a_huge_range_without_listing_it():
    # listing range(3, 10**9) first would take gigabytes; the check loop
    # stops at n=101
    tracemalloc.start()
    start = time.process_time()
    try:
        with pytest.raises(ResourceCap, match="^the monotone counts support at "
                                              "most 100 states, got 101$"):
            verify_monotone_counts(range(3, 10 ** 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 0.1
    assert peak < 1 << 20


def test_monotone_counts_reach_their_bound():
    reports = verify_monotone_counts([harness.MONOTONE_MAX_N])
    assert [r.actual for r in reports] == [monotone_total_count(100),
                                           monotone_reversal_count(100)]
    assert all(r.passed for r in reports)


def test_monotone_counts_store_no_maps():
    # storing the 524,390 reversal-order maps would peak at about 26 MB
    tracemalloc.start()
    try:
        reports = verify_monotone_counts(range(8, 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.actual for r in reports] == [6435, 524390]
    assert all(r.passed for r in reports)
    assert peak < 5 << 20


def test_monotone_counts_past_the_enumeration_cap():
    # the reversal counts from 9,566,137 maps on, which enumeration
    # refused at its 2,000,000-map cap, and past its 12 states
    reports = verify_monotone_counts(range(9, 14))
    assert [r.actual for r in reports if r.suite == "monotone-reversal"] == \
        [9566137, 200000392, 4715896159, 123834729994, 3584320791157]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_monotone_counts_refuse_small_n(n):
    with pytest.raises(BadSize, match=f"need n >= 3, got {n}"):
        verify_monotone_counts(range(n, 4))


def _reversal_samples(samples, seed):
    '''The raw DFAs the reversal-bound check draws, by the same rng calls.'''
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(3, harness.REVERSAL_SAMPLE_MAX_N)
        k = rng.randint(1, harness.REVERSAL_SAMPLE_MAX_LETTERS)
        yield random_suffix_convex(n, k, rng.randrange(2 ** 32))


def test_reversal_sample_sizes_from_one_refinement():
    # most samples shrink when minimized; the check reads complexity and
    # atoms off the raw sample, which the report's actual=0 alone would not
    # guard against atom counts that came out too small
    for d in _reversal_samples(500, harness.DEFAULT_SEED):
        m = minimize(d)
        assert _complexity_and_atoms(d) == (m.n, signature_atom_count(m))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bound_violations_match_minimized_atom_counts(seed):
    expected = sum(8 * atom_count(minimize(d)) > 7 * 2 ** complexity(d)
                   for d in _reversal_samples(500, seed))
    assert harness._bound_violations(500, seed) == expected


def test_reversal_refuses_negative_samples():
    with pytest.raises(BadSize, match="samples must be at least 0, got -3"):
        verify_reversal([], samples=-3)


@pytest.mark.parametrize("suite, args, where, bound", [
    (verify_star, ([23],), "star suite at n=23", 6291456),
    # a range to 10^9 is not listed: the first point past the cap ends it
    (verify_star, (range(3, 10 ** 9),), "star suite at n=23", 6291456),
    (verify_reversal, ([4, 23],), "reversal suite at n=23", 7340032),
    (verify_product, ([18], [18]), "product suite at n=18 m=18", 4587520),
    (verify_product, (range(3, 19), range(3, 19)),
     "product suite at n=18 m=17", 4325376),
    # the pair walk alone took about 6 s and 715 MB at m = n = 2000
    (verify_boolean, ([2049], [2049]), "boolean suite at n=2049 m=2049", 4198401),
])
def test_subset_suites_refuse_past_the_subset_cap_before_building(suite, args,
                                                                  where, bound,
                                                                  monkeypatch):
    # the walk at star n=23 would spend 11-15 s CPU and 600 MB before its
    # own refusal; every point is checked before the first input is built
    def no_input(*args):
        raise AssertionError("an input was built")

    monkeypatch.setattr(harness, "_star_dialect", no_input)
    monkeypatch.setattr(harness, "reversal_witness", no_input)
    message = f"the {where} expects {bound} states, over the subset cap 4194304"
    tracemalloc.start()
    start = time.process_time()
    try:
        with pytest.raises(ResourceCap, match=f"^{message}$"):
            suite(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 0.1
    assert peak < 1 << 20


@pytest.mark.parametrize("suite, kwargs, bound, where", [
    (verify_star, {}, star_bound(5), "star suite at n=6"),
    (verify_reversal, {"samples": 0}, reversal_bound(5), "reversal suite at n=6"),
    (verify_product, {"ms": [5]}, product_bound(5, 5), "product suite at n=6 m=5"),
    (verify_boolean, {"ms": [5]}, 25, "boolean suite at n=6 m=5"),
])
def test_subset_suites_read_the_cap_at_call_time(suite, kwargs, bound, where,
                                                 monkeypatch):
    # the walks reach exactly the bound, so a bound equal to the cap passes
    monkeypatch.setattr(automata, "SUBSET_CAP", bound)
    assert all(r.passed for r in suite(ns=[5], **kwargs))
    with pytest.raises(ResourceCap, match=f"^the {where} expects .* cap {bound}$"):
        suite(ns=[5, 6], **kwargs)
