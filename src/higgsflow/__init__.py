"""Periodicity of the uniformizing rank-2 bundle on the four-punctured line.

Decides, in odd characteristic p, whether the bundle is one-periodic with
respect to a length-2 Witt lifting of the cross-ratio parameter, by three
mutually cross-checking methods, and sweeps the test over reductions of
algebraic numbers.
"""

__version__ = "0.1.0"

from .errors import (CertificateCheckFailed, DegreeOutOfRange, DegreeTooLarge,
                     DegreeUnsupported, DivisionByZeroPoly, EvenPrime,
                     ForbiddenResidue, ForbiddenValue, HiggsflowError,
                     IndexOutOfRange, InternalDivisibilityFailure, InternalError,
                     InternalInvariantFailure, InvalidRange, MethodUnavailable,
                     NonInvertible, NotPrime, NotSquare, ProfileMismatch,
                     ReducibleMinpoly, UnstableDimension)
from .fields import (FieldElement, ReductionContext, WittParameter,
                     WittRingElement, frobenius_w2, make_context, teichmuller,
                     witt_compose, witt_decompose)
from .polys import Poly, poly_divrem, poly_ext_gcd
from .linalg import FqMatrix, mat_det, mat_rank
from .cocycle import (CocyclePolynomial, TransitionMatrix, build_A_closed,
                      build_A_primitive, build_transition)
from .criterion import (CriterionMatrix, RemainderSystem, SplittingType,
                        build_T, periodicity_pair, remainder_system,
                        splitting_from_T, t_submatrix, validate_T_R)
from .factorization import (FactorizationCertificate, birkhoff_step1,
                            birkhoff_step2, factorization_certificate,
                            splitting_from_birkhoff, verify_certificate)
from .sections import h0_of_twist, splitting_from_cech
from .lambdas import (BeauvilleEntry, LambdaSpec, ReductionDatum,
                      beauville_catalog, parse_lambda_spec, reduce_at_prime,
                      w2_orbit)
from .scan import (ScanReport, ScanRow, run_enumerate, run_scan,
                   run_selftest, run_verify_beauville)
