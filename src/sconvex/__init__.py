"""Suffix-convex regular languages: automata, triple systems, witnesses,
classification, and exact verification of the operation bounds."""

from .automata import (Dfa, Nfa, atom_count, complete_to, complexity,
                       determinize, direct_product, is_minimal, minimize,
                       nfa_complexity, product_nfa, star_nfa, union_alphabet)
from .classify import Classification, classify
from .errors import (AlphabetMismatch, AxiomViolation, BadSize, FormatError,
                     NonConvexFinals, NotInjective, NotMinimal, NotPartialOrder,
                     NotSuffixConvex, NotationError, ResourceCap, SconvexError,
                     SizeMismatch, StateOutOfRange)
from .harness import (ProbeResult, Report, monotone_reversal_count,
                      monotone_total_count, probe_conjecture,
                      product_bound, random_suffix_convex, reports_to_json,
                      reversal_bound, star_bound, syntactic_bound,
                      verify_boolean, verify_exclusions,
                      verify_monotone_counts, verify_product, verify_reversal,
                      verify_star, verify_syntactic)
from .transformations import (Semigroup, Transformation, closure, compose,
                              identity, parse_transformation, semigroup_size,
                              syntactic_complexity, transition_semigroup)
from .triples import (Preorder, TripleSystem, antichain_order,
                      canonical_system, maximal_semigroup, order_system,
                      preorder_of, total_order)
from .witnesses import (LetterMap, dialect, reversal_order, reversal_system,
                        reversal_witness, star_system, star_witness,
                        syntactic_system, syntactic_witness)

__version__ = "0.1.0"
