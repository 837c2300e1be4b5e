"""Exception types shared across the package."""


class SconvexError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetMismatch(SconvexError):
    """Two automata were combined but their alphabets differ."""


class SizeMismatch(SconvexError):
    """Two transformations (or a transformation and a system) have different domains."""


class StateOutOfRange(SconvexError):
    """A notation string or constructor referenced a state outside 0..n-1."""


class NotationError(SconvexError):
    """A transformation literal could not be parsed."""


class FormatError(SconvexError):
    """A DFA or triple-system file is malformed."""


class NotMinimal(SconvexError):
    """The operation is only defined on minimal DFAs."""


class NotSuffixConvex(SconvexError):
    """The operation requires a suffix-convex language."""


class AxiomViolation(SconvexError):
    """A triple relation fails one of the axioms (A), (B), (C), (D).

    Attributes:
        axiom: one of 'A', 'B', 'C', 'D'.
        triple: the offending or missing triple.
    """

    def __init__(self, axiom, triple):
        self.axiom = axiom
        self.triple = tuple(triple)
        super().__init__(f"axiom ({axiom}) fails at {self.triple}")


class NotPartialOrder(SconvexError):
    """The relation is not an antisymmetric order (or lacks 0 as maximum)."""


class NonConvexFinals(SconvexError):
    """The final set is empty, full, or not convex with respect to the order."""


class NotInjective(SconvexError):
    """A letter map sends two letters to the same target."""


class BadSize(SconvexError):
    """The requested witness or system is undefined at this n."""


class ResourceCap(SconvexError):
    """A construction exceeded its configured size cap."""
