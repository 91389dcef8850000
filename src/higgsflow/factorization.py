"""Constructive diagonalization of the transition matrix.

Step 1 finds the minimal pair (f, g) with f*A + g*z^p divisible by
(z-1)^(2p) by extended Euclid, as a rational reconstruction of A*z^(-p)
(see :func:`birkhoff_step1`); n = p - max(deg f, deg g).  It shares no
linear algebra with the t method's rank scan.  The Euclid row before the
stopping row is a Bezout partner: it gives (beta', gamma') with
f*gamma' + g*beta' = (z-1)^(2p) and z^p*gamma' = A*beta' mod (z-1)^(2p),
reduced so that both have degree <= 2p - c.

Step 2 divides the off-frame entry alpha out of z^p*gamma' - A*beta' and
assembles unimodular frames P, Q with
P * M * Q = diag((z-1)^(p-c), (z-1)^(c-p)).  It runs no second gcd: the
Bezout identity shows that gcd(f, g) divides (z-1)^(2p), so it is
(z-1)^l.

The three divisions by (z-1)^(2p) (B and h in step 1, alpha in step 2)
use :func:`~higgsflow.polys.divrem_z_minus_one_2p`, which divides by
z^(2p) - 2z^p + 1 a block of p coefficients at a time.

Everything is certified: the returned object carries (f, g, h, l, c,
beta', gamma', alpha, P, Q), and step 2 hands it back only after
:func:`check_certificate` has proved every identity exactly, in the ring
of rational functions with poles in {0, 1, infinity}: the step-1
congruence, the Bezout relation, the alpha relation, det P = det Q = 1 and
the diagonalization itself.  Once det P = 1 is proved, P^(-1) = adj(P),
so the diagonalization is proved as M*Q = adj(P)*diag, which needs no
product with P.  Each is a polynomial identity or an identity of pole
fractions, which compare by cross-multiplying, so the check is
deterministic and draws no sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycle import CocyclePolynomial, TransitionMatrix, build_transition
from .criterion import SplittingType
from .errors import CertificateCheckFailed, DegreeTooLarge
from .fields import ReductionContext
from .polys import Poly, PoleFraction, divrem_z_minus_one_2p, poly_divrem, z_minus_one_pow
# unused here; kept because perfbench/hooks.py patches them by name in this module
from .cocycle import build_A_primitive  # noqa: F401
from .criterion import remainder_system  # noqa: F401
from .linalg import _rank_mod_p, left_nullspace_vecs  # noqa: F401
from .polys import poly_divexact, poly_ext_gcd  # noqa: F401


@dataclass(frozen=True)
class FactorizationCertificate:
    """Machine-checkable witness of the splitting computation.

    f, g, h and beta', gamma' are stored against the cocycle normalisation
    of A, so that f*A + g*z^p = h*(z-1)^(2p),
    f*gamma' + g*beta' = (z-1)^(2p) and
    alpha*z^p*(z-1)^(2p) = z^p*gamma' - A*beta' hold verbatim; l is the
    order of gcd(f, g) at z = 1.  P and Q absorb the scalar unit
    internally; their entries are exact pole fractions.
    """

    f: Poly
    g: Poly
    h: Poly
    l: int
    c: int
    n: int
    beta_prime: Poly
    gamma_prime: Poly
    alpha: PoleFraction
    P: tuple
    Q: tuple


def _fail(msg: str):
    raise CertificateCheckFailed(msg)


def _deg(f: Poly) -> int:
    return f.degree if not f.is_zero() else -1


def birkhoff_step1(ctx: ReductionContext,
                   A: Poly) -> tuple[Poly, Poly, Poly, int, Poly, Poly]:
    """Minimal (f, g) with f*A + g*z^p = h*(z-1)^(2p), and a Bezout partner.

    Rational reconstruction of B = A*z^(-p) mod (z-1)^(2p): a pair solves
    step 1 exactly when f*B = -g mod (z-1)^(2p).  In characteristic p,
    z^p*(2 - z^p) = 1 - (z-1)^(2p), so z^(-p) = 2 - z^p and B needs no
    inverse.  Extended Euclid on ((z-1)^(2p), B) keeps r_j = t_j*B, with
    deg r_j falling and deg t_j = 2p - deg r_(j-1) rising.  The first row
    with deg r_j <= p-1 is the answer: every earlier row has
    max(deg t, deg r) >= p, every later one deg t >= p+1.  f = t_j and
    g = -r_j, scaled so that f is monic; c = max(deg f, deg g) <= p.  A
    remainder that reaches zero ends the loop too, and then g = 0.

    f is unique up to a scalar.  For c < p, two solutions of degree <= c
    satisfy f1*g2 = f2*g1 mod (z-1)^(2p) in degree < 2p, hence exactly, so
    both are multiples of one primitive pair by polynomials in one ideal
    (z-1)^k, and only (z-1)^k itself keeps the degree minimal.  For c = p
    the pairs of degree <= p form a 2-dimensional space.  The rule
    deg g <= p-1 says that f*A mod (z-1)^(2p) has no terms below z^p: p
    conditions on the p+1 coefficients of f whose leading p x p block is
    T_0, which has full rank exactly when c = p.  So one line is left.

    The previous row gives the partner.  Each Euclid step negates
    t_j*r_(j-1) - t_(j-1)*r_j, which starts at (z-1)^(2p); scaled like f
    and g, (beta', gamma') = +-lead(t_j)*(t_(j-1), r_(j-1)) satisfy
    f*gamma' + g*beta' = (z-1)^(2p), and r_(j-1) = t_(j-1)*B makes
    z^p*gamma' - A*beta' divisible by (z-1)^(2p).  deg gamma' = 2p - deg f
    and deg beta' < deg f.  When deg g > deg f, gamma' is reduced mod g
    (beta' gains the quotient times f), which keeps both relations and
    brings both degrees to <= 2p - c.

    Returns (f, g, h, l, beta', gamma').  l is the smaller of the orders
    of f and g at z = 1 (f's alone when g = 0).  The Bezout identity,
    proved again by :func:`check_certificate`, makes gcd(f, g) a divisor
    of (z-1)^(2p), hence exactly (z-1)^l.
    """
    p = ctx.p
    if A.degree > 2 * p - 1:
        raise DegreeTooLarge("step 1 requires deg A <= 2p-1")
    d2 = z_minus_one_pow(ctx, 2 * p)
    if A.is_zero():
        return Poly.one(ctx), Poly.zero(ctx), Poly.zero(ctx), 0, Poly.zero(ctx), d2

    zp = Poly.monomial(ctx, p)
    _, B = divrem_z_minus_one_2p(A * (Poly.from_ints(ctx, [2]) - zp))
    r0, r1 = d2, B
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    sign = 1  # t1*r0 - t0*r1 = sign * (z-1)^(2p)
    while r1.degree >= p:
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
        sign = -sign

    lead = t1.lead()
    inv = lead.inverse()
    f, g = t1.scale(inv), -r1.scale(inv)
    h, rem = divrem_z_minus_one_2p(f * A + g * zp)
    if not rem.is_zero():
        _fail("step-1 sum f*A + g*z^p is not divisible by (z-1)^(2p)")

    s = lead if sign == 1 else -lead
    beta, gamma = t0.scale(s), r0.scale(s)
    if _deg(g) > f.degree:
        q, gamma = poly_divrem(gamma, g)
        beta = beta + q * f

    l = f.order_at_one() if g.is_zero() else min(f.order_at_one(), g.order_at_one())
    return f, g, h, l, beta, gamma


def birkhoff_step2(ctx: ReductionContext, cocycle: CocyclePolynomial,
                   f: Poly, g: Poly, h: Poly, l: int,
                   beta_prime: Poly, gamma_prime: Poly) -> FactorizationCertificate:
    """Degree checks, alpha, frame assembly, then the exact certificate check.

    Raises CertificateCheckFailed when c = max(deg f, deg g) is outside
    0..p or deg beta', deg gamma' exceed 2p - c, or, naming the identity,
    when the assembled certificate fails :func:`check_certificate`; a
    returned certificate has passed it.
    """
    p = ctx.p
    c = max(_deg(f), _deg(g))
    if not 0 <= c <= p:
        _fail("combined degree outside 0..p")
    if _deg(beta_prime) > 2 * p - c or _deg(gamma_prime) > 2 * p - c:
        _fail("degree bounds on (beta', gamma') violated")

    zp = Poly.monomial(ctx, p)
    # the quotient is exact when the alpha identity of check_certificate holds
    alpha_num, _ = divrem_z_minus_one_2p(zp * gamma_prime - cocycle.A * beta_prime)
    alpha = PoleFraction(alpha_num, p, 0)

    # P and Q hold g, h and beta' against A/u, the numerator that M carries
    u = cocycle.unit
    uinv = u.inverse()
    gp, hp, beta_p = g.scale(uinv), h.scale(uinv), beta_prime.scale(u)
    pf = PoleFraction
    P = ((alpha, pf(beta_p)),
         (pf(-hp, p, 0), pf(f)))
    Q = ((pf(f, 0, c), pf(-beta_p, 0, 2 * p - c)),
         (pf(gp, 0, c), pf(gamma_prime, 0, 2 * p - c)))

    cert = FactorizationCertificate(
        f=f, g=g, h=h, l=l, c=c, n=p - c,
        beta_prime=beta_prime, gamma_prime=gamma_prime,
        alpha=alpha, P=P, Q=Q)
    # verify_certificate is the check perfbench traces as factorization.verify;
    # only when it fails does check_certificate run again to name the identity
    m = build_transition(cocycle)
    if not verify_certificate(m, cert):
        check_certificate(m, cert)
    return cert


def factorization_certificate(cocycle: CocyclePolynomial) -> FactorizationCertificate:
    """Full pipeline on the cocycle: step 1, step 2."""
    return birkhoff_step2(cocycle.ctx, cocycle, *birkhoff_step1(cocycle.ctx, cocycle.A))


def splitting_from_birkhoff(cocycle: CocyclePolynomial) -> SplittingType:
    """Splitting integer n = p - c read off a verified certificate."""
    return SplittingType.of(factorization_certificate(cocycle).n, "birkhoff")


def _matmul(x, y):
    """Product of two 2x2 matrices of pole fractions."""
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2))
                 for i in range(2))


def check_certificate(m: TransitionMatrix, cert: FactorizationCertificate) -> None:
    """Prove every certificate identity exactly, or name the first that fails.

    In order: step-1 (f*A + g*z^p = h*(z-1)^(2p)), Bezout
    (f*gamma' + g*beta' = (z-1)^(2p)), alpha
    (alpha*z^p*(z-1)^(2p) = z^p*gamma' - A*beta'), det P = 1, det Q = 1, and
    P*M*Q = diag((z-1)^(p-c), (z-1)^(c-p)), all in pole-fraction arithmetic.
    The last is proved after det P = 1 as M*Q = adj(P)*diag, entry by entry:
    the same statement, since P^(-1) = adj(P) when det P = 1.
    Raises CertificateCheckFailed naming the identity.
    """
    ctx = m.cocycle.ctx
    p = ctx.p
    A = m.cocycle.A
    d2 = z_minus_one_pow(ctx, 2 * p)
    zp = Poly.monomial(ctx, p)
    one = PoleFraction(Poly.one(ctx))

    def require(holds: bool, name: str):
        if not holds:
            _fail(f"certificate identity {name} does not hold")

    require(cert.f * A + cert.g * zp == cert.h * d2, "step-1")
    require(cert.f * cert.gamma_prime + cert.g * cert.beta_prime == d2, "Bezout")
    require(cert.alpha * PoleFraction(zp * d2)
            == PoleFraction(zp * cert.gamma_prime - A * cert.beta_prime), "alpha")
    (p00, p01), (p10, p11) = cert.P
    (q00, q01), (q10, q11) = cert.Q
    require(p00 * p11 - p01 * p10 == one, "det P")
    require(q00 * q11 - q01 * q10 == one, "det Q")
    # x*(z-1)^k: multiplying by the diagonal only moves pole orders at 1
    def times_z_minus_one_pow(x: PoleFraction, k: int) -> PoleFraction:
        return PoleFraction(x.num, x.a, x.b - k)

    k = p - cert.c
    adj_diag = ((times_z_minus_one_pow(p11, k), times_z_minus_one_pow(-p01, -k)),
                (times_z_minus_one_pow(-p10, k), times_z_minus_one_pow(p00, -k)))
    require(_matmul(m.entries, cert.Q) == adj_diag, "P*M*Q")


def verify_certificate(m: TransitionMatrix, cert: FactorizationCertificate) -> bool:
    """True when every identity of :func:`check_certificate` holds exactly."""
    try:
        check_certificate(m, cert)
    except CertificateCheckFailed:
        return False
    return True
