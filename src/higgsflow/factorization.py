"""Constructive diagonalization of the transition matrix.

Step 1 finds the minimal pair (f, g) with f*A + g*z^p divisible by
(z-1)^(2p); the minimal combined degree c is read off the same rank scan
that drives the matrix criterion, and f is a deterministic null vector of
the corresponding block of the remainder system.  Step 2 solves the Bezout
equation f*gamma' + g*beta' = (z-1)^(2p) with controlled degrees, corrects
(beta, gamma) by a local congruence at z = 1 so that the off-frame entry
alpha is Laurent, and assembles unimodular frames P, Q with
P * M * Q = diag((z-1)^(p-c), (z-1)^(c-p)).

Everything is certified: the returned object carries (f, g, h, l, c,
beta', gamma', alpha, P, Q) and every invariant is checked before it is
handed back; random-point verification of the diagonalization is part of
construction, not an afterthought.  That verification is a Schwartz-Zippel
test at 20 random points of an extension with at least 4p+8 elements,
batched over the points in int64 numpy arithmetic (see FieldExtension).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cocycle import CocyclePolynomial, TransitionMatrix, build_A_primitive, build_transition
from .criterion import SplittingType, remainder_system
from .errors import CertificateCheckFailed, DegreeTooLarge
from .fields import ReductionContext, WittRingElement
from .linalg import FqMatrix, _rank_mod_p, left_nullspace_vecs
from .polys import (LaurentPoly, Poly, PoleFraction, poly_divexact,
                    poly_divrem, poly_ext_gcd, series_div_at_one,
                    z_minus_one_pow)

_DEFAULT_VERIFY_POINTS = 20


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

    The minimal combined degree c is p - n0, where n0 is the first
    full-rank index of the rank scan over the remainder-system blocks
    shaped like the criterion submatrices; f is the first reduced null
    vector of the deficient block, normalised monic.  l is the smaller of
    the orders of f and g at z = 1 (f's alone when g = 0).  That gcd(f, g)
    is exactly (z-1)^l is checked once, by the extended gcd of step 2;
    the check covers g = 0, since gcd(f, 0) is the monic f.
    """
    p = ctx.p
    if A.degree > 2 * p - 1:
        raise DegreeTooLarge("step 1 requires deg A <= 2p-1")
    d2 = z_minus_one_pow(ctx, 2 * p)
    if A.is_zero():
        return Poly.one(ctx), Poly.zero(ctx), Poly.zero(ctx), 0

    rs = remainder_system(ctx, A)
    arr = rs.R.arr

    def block(m: int) -> np.ndarray:
        if m < 0:
            return arr[: p + 1, :p]
        low = arr[: p - m, :p]
        if m == 0:
            return low
        high = arr[: p - m, 2 * p - m: 2 * p][:, ::-1]
        return np.concatenate([low, high], axis=1)

    n0 = None
    for m in range(p):
        b = FqMatrix(ctx, block(m))
        if _rank_mod_p(b.blowup(), ctx.p) == (p - m) * ctx.d:
            n0 = m
            break
    if n0 is None:
        # no block has full rank: the only consistent combined degree is 0
        n0 = p

    c = p - n0
    basis = left_nullspace_vecs(FqMatrix(ctx, block(n0 - 1)))
    if not len(basis):
        _fail("deficient block has no null vector")
    f = Poly(ctx, basis[0]).monic()

    h, rem = poly_divrem(f * A, d2)
    if rem.v[:p].any() or rem.v[p + c + 1:].any():
        _fail("step-1 remainder has support outside z^p..z^(p+c)")
    g = -(rem.shift(-p))

    if max(_deg(f), _deg(g)) != c:
        _fail("null vector does not achieve the minimal combined degree")
    if _deg(g) > p - 1:
        _fail("step-1 g exceeds degree p-1")

    l = f.order_at_one() if g.is_zero() else min(f.order_at_one(), g.order_at_one())
    return f, g, h, l


def _deg(f: Poly) -> int:
    return f.degree if not f.is_zero() else -1


def birkhoff_step2(ctx: ReductionContext, cocycle: CocyclePolynomial,
                   f: Poly, g: Poly, h: Poly, l: int,
                   rng: random.Random | None = None) -> FactorizationCertificate:
    """Bezout solve, degree reduction, local correction, frame assembly.

    Raises CertificateCheckFailed the moment any invariant breaks; a
    returned certificate has already passed random-point verification of
    the diagonalization identity.
    """
    p = ctx.p
    A = cocycle.A
    d2 = z_minus_one_pow(ctx, 2 * p)
    zp = Poly.monomial(ctx, p)

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
    if f * gamma + gp * beta != d2:
        _fail("Bezout identity failed after degree reduction")
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
    if f * gamma_p + gp * beta_p != d2:
        _fail("Bezout identity lost after the local correction")

    alpha_num = poly_divexact(-w_poly, d2) if not w_poly.is_zero() else Poly.zero(ctx)
    alpha = LaurentPoly(alpha_num, -p)

    pf = PoleFraction
    P = ((pf(alpha_num, p, 0), pf(beta_p)),
         (pf(-hp, p, 0), pf(f)))
    Q = ((pf(f, 0, c), pf(-beta_p, 0, 2 * p - c)),
         (pf(gp, 0, c), pf(gamma_p, 0, 2 * p - c)))
    one = pf(Poly.one(ctx))
    if P[0][0] * P[1][1] - P[0][1] * P[1][0] != one:
        _fail("P is not unimodular")
    if Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0] != one:
        _fail("Q is not unimodular")

    branch = None if l == 0 else ("A" if f.order_at_one() == l else "B")
    cert = FactorizationCertificate(
        f=f, g=g, h=h, l=l, c=c, n=p - c,
        beta_prime=beta_p.scale(uinv), gamma_prime=gamma_p,
        alpha=alpha, P=P, Q=Q, branch=branch, sigma=sigma)

    if not verify_certificate(build_transition(cocycle), cert, rng=rng):
        _fail("random-point verification of P*M*Q rejected the certificate")
    return cert


def factorization_certificate(ctx: ReductionContext, lam: WittRingElement,
                              rng: random.Random | None = None) -> FactorizationCertificate:
    """Full pipeline: cocycle, step 1, step 2."""
    cocycle = build_A_primitive(ctx, lam)
    f, g, h, l = birkhoff_step1(ctx, cocycle.A)
    return birkhoff_step2(ctx, cocycle, f, g, h, l, rng=rng)


def splitting_from_birkhoff(ctx: ReductionContext, lam: WittRingElement,
                            rng: random.Random | None = None) -> SplittingType:
    """Splitting integer n = p - c read off a verified certificate."""
    cert = factorization_certificate(ctx, lam, rng=rng)
    return SplittingType.of(cert.n, "birkhoff")


def eval_pole_fractions(ext, fracs: list[PoleFraction], z: np.ndarray) -> np.ndarray:
    """Values (K, N, m) of K pole fractions at N extension points, in one pass.

    Every numerator is evaluated at every point by one contraction of its
    F_p coefficients against the table of z^0..z^D; num / (z^a (z-1)^b)
    then multiplies by entries a and b of the power tables of 1/z and
    1/(z-1).  Raises ZeroDivisionError when a point is 0 or 1.
    """
    zinv, zm1inv = ext.inv(z), ext.inv((z - ext.one) % ext.ctx.p)
    d = ext.ctx.d
    coeffs = np.zeros((len(fracs), max(len(fr.num.v) for fr in fracs), d), np.int64)
    for k, fr in enumerate(fracs):
        coeffs[k, : len(fr.num.v)] = fr.num.v
    a = np.array([fr.a for fr in fracs])
    b = np.array([fr.b for fr in fracs])
    return ext.mul(ext.mul(ext.evaluate(coeffs, z), ext.powers(zinv, a.max())[a]),
                   ext.powers(zm1inv, b.max())[b])


def _matmul2(ext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2x2 products of (2, 2, N, m) matrices of extension elements, pointwise."""
    return ext.mul(x[:, :, None], y[None]).sum(axis=1) % ext.ctx.p


def _det2(ext, x: np.ndarray) -> np.ndarray:
    return (ext.mul(x[0, 0], x[1, 1]) - ext.mul(x[0, 1], x[1, 0])) % ext.ctx.p


def verify_certificate(m: TransitionMatrix, cert: FactorizationCertificate,
                       rng: random.Random | None = None,
                       points: int = _DEFAULT_VERIFY_POINTS) -> bool:
    """Evaluate every certificate identity at random points.

    Checks, at `points` distinct random points of the least extension
    F_{q^e} with q^e >= 4p+8 elements, avoiding {0, 1, lam0}: the step-1
    congruence f*A + g*z^p = h*(z-1)^(2p), the Bezout relation
    f*gamma' + g*beta' = (z-1)^(2p), the alpha relation
    alpha*z^p*(z-1)^(2p) = z^p*gamma' - A*beta', unimodularity of P and Q,
    and P*M*Q = diag((z-1)^(p-c), (z-1)^(c-p)).  Any arithmetic failure
    counts as rejection.

    The points are drawn by rng.randrange over the canonical indices of the
    extension, skipping repeats and {0, 1, lam0}; all of them are then
    checked at once, every quantity being a pole fraction evaluated by
    :func:`eval_pole_fractions`.
    """
    ctx = m.cocycle.ctx
    rng = rng if rng is not None else random.Random(0)
    degree = 1
    while ctx.q ** degree < 4 * ctx.p + 8:
        degree += 1
    ext = ctx.extension(degree)
    # canonical indices of 0, 1 and lam0 in the extension
    seen = {0, 1, m.cocycle.witt.lam0.index()}
    sample: list[int] = []
    while len(sample) < points:
        n = rng.randrange(ext.size)
        if n not in seen:
            seen.add(n)
            sample.append(n)
    try:
        return _identities_hold(ext, m, cert, ext.from_indices(sample))
    except ZeroDivisionError:
        return False


def _identities_hold(ext, m: TransitionMatrix, cert: FactorizationCertificate,
                     z: np.ndarray) -> bool:
    ctx = ext.ctx
    p, mul, one = ctx.p, ext.mul, Poly.one(ctx)
    fracs = [PoleFraction(f) for f in (m.cocycle.A, cert.f, cert.g, cert.h,
                                       cert.beta_prime, cert.gamma_prime,
                                       Poly.monomial(ctx, p), z_minus_one_pow(ctx, 2 * p))]
    fracs += [PoleFraction(cert.alpha.poly, -cert.alpha.val),
              PoleFraction(one, 0, cert.c - p), PoleFraction(one, 0, p - cert.c)]
    fracs += [e for frame in (cert.P, m.entries, cert.Q) for row in frame for e in row]
    vals = eval_pole_fractions(ext, fracs, z)
    av, fv, gv, hv, bv, cv, zp, d2, alpha, diag0, diag1 = vals[:11]
    pm, mm, qm = vals[11:].reshape((3, 2, 2) + z.shape)
    diag = np.zeros_like(pm)
    diag[0, 0], diag[1, 1] = diag0, diag1
    checks = (
        ((mul(fv, av) + mul(gv, zp)) % p, mul(hv, d2)),
        ((mul(fv, cv) + mul(gv, bv)) % p, d2),
        (mul(mul(alpha, zp), d2), (mul(zp, cv) - mul(av, bv)) % p),
        (_det2(ext, pm), ext.one),
        (_det2(ext, qm), ext.one),
        (_matmul2(ext, pm, _matmul2(ext, mm, qm)), diag),
    )
    return all((lhs == rhs).all() for lhs, rhs in checks)
