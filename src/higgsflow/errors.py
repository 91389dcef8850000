"""Exception types shared across the package."""


class HiggsflowError(Exception):
    """Base class for all errors raised by higgsflow."""


class NotPrime(HiggsflowError):
    """The characteristic passed to a context constructor is not prime."""


class EvenPrime(HiggsflowError):
    """p = 2 is rejected: the machinery here needs an odd characteristic."""


class DegreeOutOfRange(HiggsflowError):
    """Extension degree outside the supported range."""


class ForbiddenResidue(HiggsflowError):
    """A parameter reduces to 0 or 1, where the four marked points collide."""


class DivisionByZeroPoly(HiggsflowError):
    """Polynomial division by the zero polynomial."""


class NotSquare(HiggsflowError):
    """Determinant of a non-square matrix requested."""


class IndexOutOfRange(HiggsflowError):
    """Submatrix index outside its legal range."""


class DegreeTooLarge(HiggsflowError):
    """Input polynomial exceeds the degree bound of the operation."""


class InternalDivisibilityFailure(HiggsflowError):
    """A quantity that must be divisible by p was not; signals a bug."""


class InternalInvariantFailure(HiggsflowError):
    """An internal invariant that holds for every valid input broke; signals a bug."""


class CertificateCheckFailed(HiggsflowError):
    """A factorization certificate failed one of its invariants."""


class UnstableDimension(HiggsflowError):
    """Section-space dimension changed when the ansatz bound grew."""


class ProfileMismatch(HiggsflowError):
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
