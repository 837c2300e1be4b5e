"""End-to-end verification of every published bound at its stated range.

Each test prints exactly one summary line; the detailed report lines are
attached to the assertion message when something fails.
"""

import random
import tracemalloc

import pytest

from sconvex import (atom_count, canonical_system, classify, maximal_semigroup,
                     minimize, preorder_of, reversal_witness, star_witness,
                     syntactic_bound, syntactic_complexity, syntactic_system,
                     syntactic_witness, transition_semigroup, verify_boolean,
                     verify_exclusions, verify_monotone_counts, verify_product,
                     verify_reversal, verify_star, verify_syntactic)

from conftest import random_dfa
from oracles import (accepts, brute_force_suffix_convex, dfa_respects,
                     matrix_of, naive_order_properties, signature_atom_count)


def _conclude(label, reports):
    ok = all(r.passed for r in reports)
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")
    failing = "\n".join(r.line() for r in reports if not r.passed)
    assert ok, f"{label} failed:\n{failing}"


def _conclude_flag(label, ok, detail=""):
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label} failed: {detail}"


def test_star_closure_bound():
    _conclude("star-closure n=3..10", verify_star())


def test_product_bound():
    _conclude("product m,n=3..8", verify_product())


def test_boolean_bounds():
    _conclude("boolean m,n=3..8", verify_boolean())


def test_reversal_witness_bound():
    _conclude("reversal-witness n=4..10", verify_reversal(samples=0))


def test_reversal_upper_bound_on_samples():
    reports = verify_reversal(ns=[], samples=500)
    assert [r.suite for r in reports] == ["reversal-bound"]
    _conclude("reversal-upper-bound samples=500", reports)


def test_syntactic_semigroup_sizes():
    _conclude("syntactic-semigroup n=3..7", verify_syntactic())


def test_syntactic_semigroup_size_at_eight():
    _conclude("syntactic-semigroup n=8", verify_syntactic([8]))


def test_syntactic_semigroup_size_at_nine_in_little_memory():
    tracemalloc.start()
    try:
        reports = verify_syntactic([9])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _conclude("syntactic-semigroup n=9", reports)
    assert peak < 100_000_000, f"peak {peak} bytes"


@pytest.mark.slow
def test_syntactic_semigroup_size_at_ten():
    _conclude("syntactic-semigroup n=10", verify_syntactic([10]))


def test_exhaustive_filter_matches_generated_semigroup():
    mismatches = []
    for n in range(3, 7):
        filtered = maximal_semigroup(syntactic_system(n))
        generated = transition_semigroup(syntactic_witness(n))
        if set(filtered.images) != set(generated.images):
            mismatches.append(n)
    _conclude_flag("respecting-filter-equals-closure n=3..6", not mismatches,
                   f"diverges at n={mismatches}")


def test_maximal_semigroup_of_the_syntactic_system_at_eight():
    # every map respecting the system, 941,241 of them, enumerated one by one
    size = len(maximal_semigroup(syntactic_system(8)))
    _conclude_flag("maximal-semigroup n=8", size == syntactic_bound(8),
                   f"{size} maps, bound {syntactic_bound(8)}")


def test_monotone_counts():
    _conclude("monotone-counts n=3..7", verify_monotone_counts())


def test_monotone_counts_at_eight():
    # 6,435 and 524,390 maps out of 8^8 = 16,777,216 candidates: within
    # the default cap, which bounds maps produced, not candidates
    _conclude("monotone-counts n=8", verify_monotone_counts(range(8, 9)))


def test_witness_families_are_proper():
    bad = []
    for family, first in ((star_witness, 3), (reversal_witness, 4),
                          (syntactic_witness, 3)):
        for n in range(first, 9):
            if not classify(family(n)).proper:
                bad.append((family.__name__, n))
    _conclude_flag("witnesses-proper n<=8", not bad, f"not proper: {bad}")


def test_structural_predicates():
    problems = []
    for family, first in ((star_witness, 3), (reversal_witness, 4),
                          (syntactic_witness, 3)):
        for n in range(first, 9):
            w = family(n)
            system = canonical_system(w)
            if not dfa_respects(w, system):
                problems.append((family.__name__, n, "respect"))
            (is_partial, total, _, nonzero) = \
                naive_order_properties(matrix_of(preorder_of(system)))
            if family is star_witness and not total:
                problems.append((family.__name__, n, "not a chain"))
            if family is reversal_witness:
                if not is_partial:
                    problems.append((family.__name__, n, "not an order"))
                if nonzero != {(2, 1)}:
                    problems.append((family.__name__, n, nonzero))
    _conclude_flag("canonical-structure n<=8", not problems, f"{problems}")


def test_exclusion_cross_checks():
    _conclude("exclusions n=4..8", verify_exclusions())


def test_oracle_agreement_on_random_dfas():
    rng = random.Random(20260819)
    disagreements = []
    for i in range(200):
        d = random_dfa(rng, rng.randint(2, 5), rng.randint(1, 3))
        c = classify(d)
        (got, cex) = (c.suffix_convex, c.counterexample)
        want, _ = brute_force_suffix_convex(d)
        if got != want:
            disagreements.append((i, "convexity", d))
        if cex is not None:
            u, v, w = cex
            if not (accepts(d, u + v + w) and accepts(d, w)
                    and not accepts(d, v + w)):
                disagreements.append((i, "counterexample", d))
        m = minimize(d)
        if atom_count(m) != signature_atom_count(m):
            disagreements.append((i, "atoms", d))
    _conclude_flag("independent-oracles 200 samples", not disagreements,
                   f"{disagreements[:3]}")
