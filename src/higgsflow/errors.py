"""Exception types shared across the package."""


class HiggsflowError(Exception):
    """Base class for all errors raised by higgsflow."""


class InternalError(HiggsflowError):
    """An internal invariant broke on valid input; signals a bug, not bad input."""


class NotPrime(HiggsflowError):
    """The characteristic passed to a context constructor is not prime."""


class EvenPrime(HiggsflowError):
    """p = 2 is rejected: the machinery here needs an odd characteristic."""


class DegreeOutOfRange(HiggsflowError):
    """Extension degree outside the supported range."""


class ForbiddenResidue(HiggsflowError):
    """A parameter reduces to 0 or 1, where the four marked points collide."""


class DivisionByZeroPoly(InternalError):
    """Polynomial division by the zero polynomial; no valid input divides by it."""


class NotSquare(HiggsflowError):
    """Determinant of a non-square matrix requested."""


class IndexOutOfRange(HiggsflowError):
    """Submatrix index outside its legal range."""


class DegreeTooLarge(HiggsflowError):
    """Input polynomial exceeds the degree bound of the operation."""


class InternalDivisibilityFailure(InternalError):
    """A division that must be exact was not; signals a bug."""


class InternalInvariantFailure(InternalError):
    """An internal invariant that holds for every valid input broke; signals a bug."""


class CertificateCheckFailed(InternalError):
    """A factorization certificate failed one of its invariants."""


class UnstableDimension(InternalError):
    """Section-space dimension changed when the ansatz bound grew."""


class ProfileMismatch(InternalError):
    """Computed section dimensions match no single splitting integer."""


class ReducibleMinpoly(HiggsflowError):
    """Proposed minimal polynomial is reducible over the rationals."""


class ForbiddenValue(HiggsflowError):
    """The algebraic number itself is 0 or 1."""


class DegreeUnsupported(HiggsflowError):
    """Minimal polynomials of degree > 2 are not supported."""


class NonInvertible(HiggsflowError):
    """A Moebius orbit member is not invertible in the Witt ring."""


class InvalidRange(HiggsflowError):
    """Prime range or size parameter outside its documented bounds."""


class MethodUnavailable(HiggsflowError):
    """Unknown method name, or a method used outside its prime range."""
