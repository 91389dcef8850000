"""Constructive diagonalization of the transition matrix.

Step 1 finds the minimal pair (f, g) with f*A + g*z^p divisible by
(z-1)^(2p) by extended Euclid, as a rational reconstruction of A*z^(-p)
(see :func:`birkhoff_step1`); n = p - max(deg f, deg g).  It shares no
linear algebra with the t method's rank scan.

Step 2 solves the Bezout equation f*gamma' + g*beta' = (z-1)^(2p) with
controlled degrees, corrects (beta, gamma) by a local congruence at z = 1
so that the off-frame entry alpha is Laurent, and assembles unimodular
frames P, Q with P * M * Q = diag((z-1)^(p-c), (z-1)^(c-p)).

Everything is certified: the returned object carries (f, g, h, l, c,
beta', gamma', alpha, P, Q), and step 2 hands it back only after
:func:`check_certificate` has proved every identity exactly, in the ring
of rational functions with poles in {0, 1, infinity}: the step-1
congruence, the Bezout relation, the alpha relation, det P = det Q = 1 and
the diagonalization itself.  Each is a polynomial identity or an identity
of pole fractions, which compare by cross-multiplying, so the check is
deterministic and draws no sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycle import CocyclePolynomial, TransitionMatrix, build_A_primitive, build_transition
from .criterion import SplittingType
from .errors import CertificateCheckFailed, DegreeTooLarge
from .fields import ReductionContext, WittRingElement
from .polys import (LaurentPoly, Poly, PoleFraction, poly_divexact,
                    poly_divrem, poly_ext_gcd, series_div_at_one,
                    z_minus_one_pow)
# unused here; kept because perfbench/hooks.py patches them by name in this module
from .criterion import remainder_system  # noqa: F401
from .linalg import _rank_mod_p, left_nullspace_vecs  # noqa: F401


@dataclass(frozen=True)
class FactorizationCertificate:
    """Machine-checkable witness of the splitting computation.

    f, g, h and beta', gamma' are stored against the cocycle normalisation
    of A, so that f*A + g*z^p = h*(z-1)^(2p) and
    f*gamma' + g*beta' = (z-1)^(2p) hold verbatim.  P and Q absorb the
    scalar unit internally; their entries are exact pole fractions.
    """

    f: Poly
    g: Poly
    h: Poly
    l: int
    c: int
    n: int
    beta_prime: Poly
    gamma_prime: Poly
    alpha: LaurentPoly
    P: tuple
    Q: tuple
    branch: str | None
    sigma: Poly


def _fail(msg: str):
    raise CertificateCheckFailed(msg)


def birkhoff_step1(ctx: ReductionContext, A: Poly) -> tuple[Poly, Poly, Poly, int]:
    """Minimal (f, g) with f*A + g*z^p = h*(z-1)^(2p) and gcd (z-1)^l.

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

    l is the smaller of the orders of f and g at z = 1 (f's alone when
    g = 0).  That gcd(f, g) is exactly (z-1)^l is checked once, by the
    extended gcd of step 2; the check covers g = 0, since gcd(f, 0) is the
    monic f.
    """
    p = ctx.p
    if A.degree > 2 * p - 1:
        raise DegreeTooLarge("step 1 requires deg A <= 2p-1")
    d2 = z_minus_one_pow(ctx, 2 * p)
    if A.is_zero():
        return Poly.one(ctx), Poly.zero(ctx), Poly.zero(ctx), 0

    zp = Poly.monomial(ctx, p)
    _, B = poly_divrem(A * (Poly.from_ints(ctx, [2]) - zp), d2)
    r0, r1 = d2, B
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    while r1.degree >= p:
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1

    inv = t1.lead().inverse()
    f, g = t1.scale(inv), -r1.scale(inv)
    h, rem = poly_divrem(f * A + g * zp, d2)
    if not rem.is_zero():
        _fail("step-1 sum f*A + g*z^p is not divisible by (z-1)^(2p)")

    l = f.order_at_one() if g.is_zero() else min(f.order_at_one(), g.order_at_one())
    return f, g, h, l


def _deg(f: Poly) -> int:
    return f.degree if not f.is_zero() else -1


def birkhoff_step2(ctx: ReductionContext, cocycle: CocyclePolynomial,
                   f: Poly, g: Poly, h: Poly, l: int) -> FactorizationCertificate:
    """Bezout solve, degree reduction, local correction, frame assembly.

    Raises CertificateCheckFailed the moment a construction invariant
    breaks, or, naming the identity, when the assembled certificate fails
    :func:`check_certificate`; a returned certificate has passed it.
    """
    p = ctx.p
    A = cocycle.A
    d2 = z_minus_one_pow(ctx, 2 * p)
    zp = Poly.monomial(ctx, p)

    # guards the exact divisions below
    if f * A + g * zp != h * d2:
        _fail("step-1 identity f*A + g*z^p = h*(z-1)^(2p) does not hold")

    uinv = cocycle.unit.inverse()
    apap = A.scale(uinv)
    gp = g.scale(uinv)
    hp = h.scale(uinv)
    c = max(_deg(f), _deg(gp))
    if not 0 <= c <= p:
        _fail("combined degree outside 0..p")

    fbar = f.divexact_one_pow(l)
    gbar = gp.divexact_one_pow(l) if not gp.is_zero() else gp

    d0, u0, v0 = poly_ext_gcd(f, gp)
    if d0 != z_minus_one_pow(ctx, l):
        _fail("gcd(f, g) is not (z-1)^l")
    tail = z_minus_one_pow(ctx, 2 * p - l)
    gamma0 = u0 * tail
    beta0 = v0 * tail

    if _deg(f) >= _deg(gp):
        if _deg(fbar) >= 1:
            _, beta = poly_divrem(beta0, fbar)
        else:
            beta = Poly.zero(ctx)
        gamma = poly_divexact(d2 - gp * beta, f)
    else:
        if _deg(gbar) >= 1:
            _, gamma = poly_divrem(gamma0, gbar)
        else:
            gamma = Poly.zero(ctx)
        beta = poly_divexact(d2 - f * gamma, gp)
    if _deg(beta) > 2 * p - c or _deg(gamma) > 2 * p - c:
        _fail("degree bounds on (beta, gamma) violated")

    # correction at z = 1 making alpha Laurent: subtract t * (h (z-1)^(2p-l))
    v_poly = apap * beta - zp * gamma
    e_v = v_poly.order_at_one() if not v_poly.is_zero() else 2 * p
    sigma = Poly.zero(ctx)
    if e_v < 2 * p:
        h_full = hp * z_minus_one_pow(ctx, 2 * p - l)
        if h_full.is_zero():
            _fail("no correction available: h vanishes")
        e_h = h_full.order_at_one()
        if e_h > e_v or e_h >= 2 * p:
            _fail("local congruence at z = 1 is unsolvable")
        sigma = series_div_at_one(v_poly.divexact_one_pow(e_h),
                                  h_full.divexact_one_pow(e_h), 2 * p - e_h)
    beta_p = beta - sigma * fbar
    gamma_p = gamma + sigma * gbar

    w_poly = apap * beta_p - zp * gamma_p
    if not w_poly.is_zero() and w_poly.order_at_one() < 2 * p:
        _fail("A*beta' - z^p*gamma' is not divisible by (z-1)^(2p)")
    if _deg(beta_p) > 2 * p - c or _deg(gamma_p) > 2 * p - c:
        _fail("degree bounds on (beta', gamma') violated")

    alpha_num = poly_divexact(-w_poly, d2) if not w_poly.is_zero() else Poly.zero(ctx)
    alpha = LaurentPoly(alpha_num, -p)

    pf = PoleFraction
    P = ((pf(alpha_num, p, 0), pf(beta_p)),
         (pf(-hp, p, 0), pf(f)))
    Q = ((pf(f, 0, c), pf(-beta_p, 0, 2 * p - c)),
         (pf(gp, 0, c), pf(gamma_p, 0, 2 * p - c)))

    branch = None if l == 0 else ("A" if f.order_at_one() == l else "B")
    cert = FactorizationCertificate(
        f=f, g=g, h=h, l=l, c=c, n=p - c,
        beta_prime=beta_p.scale(uinv), gamma_prime=gamma_p,
        alpha=alpha, P=P, Q=Q, branch=branch, sigma=sigma)
    # verify_certificate is the check perfbench traces as factorization.verify;
    # only when it fails does check_certificate run again to name the identity
    m = build_transition(cocycle)
    if not verify_certificate(m, cert):
        check_certificate(m, cert)
    return cert


def factorization_certificate(ctx: ReductionContext,
                              lam: WittRingElement) -> FactorizationCertificate:
    """Full pipeline: cocycle, step 1, step 2."""
    cocycle = build_A_primitive(ctx, lam)
    f, g, h, l = birkhoff_step1(ctx, cocycle.A)
    return birkhoff_step2(ctx, cocycle, f, g, h, l)


def splitting_from_birkhoff(ctx: ReductionContext, lam: WittRingElement) -> SplittingType:
    """Splitting integer n = p - c read off a verified certificate."""
    cert = factorization_certificate(ctx, lam)
    return SplittingType.of(cert.n, "birkhoff")


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
    require(cert.alpha * LaurentPoly(zp * d2)
            == LaurentPoly(zp * cert.gamma_prime - A * cert.beta_prime), "alpha")
    (p00, p01), (p10, p11) = cert.P
    (q00, q01), (q10, q11) = cert.Q
    require(p00 * p11 - p01 * p10 == one, "det P")
    require(q00 * q11 - q01 * q10 == one, "det Q")
    zero = PoleFraction.zero(ctx)
    diag = ((PoleFraction(one.num, 0, cert.c - p), zero),
            (zero, PoleFraction(one.num, 0, p - cert.c)))
    require(_matmul(cert.P, _matmul(m.entries, cert.Q)) == diag, "P*M*Q")


def verify_certificate(m: TransitionMatrix, cert: FactorizationCertificate) -> bool:
    """True when every identity of :func:`check_certificate` holds exactly."""
    try:
        check_certificate(m, cert)
    except CertificateCheckFailed:
        return False
    return True
