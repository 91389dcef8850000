"""Constructive diagonalization of the transition matrix.

Step 1 finds the minimal pair (f, g) with f*A + g*z^p divisible by the
modulus G = g(z^p) = (z-1)^(2p), whose quadratic g every step reads from
:func:`~higgsflow.polys.euclid_modulus`, by extended Euclid, as a
rational reconstruction of A*z^(-p) mod G (see
:func:`birkhoff_step1`); n = p - max(deg f, deg g).  It shares no linear
algebra with the t method's rank scan.  The Euclid rows (r, t) live in
two preallocated arrays that each step updates in place
(:func:`euclid_rows`), so a step builds no polynomial object.  The Euclid
row before the stopping row is a Bezout partner: it gives (beta', gamma')
with f*gamma' + g*beta' = G and z^p*gamma' = A*beta' mod G, reduced so
that both have degree <= 2p - c.

Step 2 divides the off-frame entry alpha out of z^p*gamma' - A*beta' and
assembles unimodular frames P, Q with
P * M * Q = diag((z-1)^(p-c), (z-1)^(c-p)).  It runs no second gcd: the
Bezout partner from step 1 already gives f*gamma' + g*beta' = G.

The two divisions by G (h in step 1, alpha in step 2) use
:func:`~higgsflow.polys.divrem_modulus`, which moves a block of p
coefficients at a time; B = A*z^(-p) mod G needs none.  The one school
division left is the reduction of gamma' mod g in step 1, by a divisor of
degree < p, when deg g > deg f.

Everything is certified: the returned object carries (f, g, h, c,
beta', gamma', alpha~, P~, Q~), and step 2 hands it back only after
:func:`check_certificate` has proved every identity exactly: the step-1
congruence, the Bezout relation, the alpha relation, det P = det Q = 1,
the diagonalization itself and the degree bounds that make Q regular at
infinity.  P, Q and the gluing matrix M are kept as polynomial matrices
over fixed denominators (P~ = P diag(z^p, 1),
Q~ = Q diag((z-1)^c, (z-1)^(2p-c)), M~ = z^p (z-1)^p M), so every
identity is a polynomial identity: a signed sum of products, shifts by z^s
and multiples of G (g's three coefficients at z^0, z^p and z^(2p)),
accumulated in unreduced int64 rows that are reduced mod p once.  The
check builds no polynomial object and draws no sample points.  Once
det P~ = z^p is proved, P^(-1) = adj(P), so the diagonalization is proved
as M~ Q~ = G diag(z^p, 1) adj(P~), which needs no product with P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import CocyclePolynomial, TransitionMatrix, build_transition
from .criterion import SplittingType
from .errors import CertificateCheckFailed, DegreeTooLarge
from .fields import ReductionContext
from .polys import Poly, convolve_into, divrem_modulus, euclid_modulus, poly_divrem
# unused here; kept because perfbench/hooks.py patches them by name in this module
from .cocycle import build_A_primitive  # noqa: F401
from .criterion import remainder_system  # noqa: F401
from .linalg import _rank_mod_p, left_nullspace_vecs  # noqa: F401
from .polys import poly_divexact, poly_ext_gcd  # noqa: F401


@dataclass(frozen=True)
class FactorizationCertificate:
    """Machine-checkable witness of the splitting computation.

    f, g, h and beta', gamma' are stored against the cocycle normalisation
    of A, so that f*A + g*z^p = h*G, f*gamma' + g*beta' = G and
    z^p*gamma' - A*beta' = G*alpha~ hold verbatim, with G = g(z^p) of
    :func:`~higgsflow.polys.euclid_modulus`, which is (z-1)^(2p).  alpha
    is the numerator alpha~ of the off-frame entry alpha~/z^p.  The frames
    P and Q, with P*M*Q = diag((z-1)^(p-c), (z-1)^(c-p)), are stored as
    polynomial matrices over fixed column denominators, which are never
    stored:

    * P holds P~ = P diag(z^p, 1) = [[alpha~, u beta'], [-h/u, f]];
    * Q holds Q~ = Q diag((z-1)^c, (z-1)^(2p-c)) = [[f, -u beta'], [g/u, gamma']].

    u is the cocycle's unit, which the lower-left entry A/u of the gluing
    matrix carries.  Only P's first column has a pole at 0, so scaling the
    columns, not P itself, stores no run of zero coefficients.
    """

    f: Poly
    g: Poly
    h: Poly
    c: int
    n: int
    beta_prime: Poly
    gamma_prime: Poly
    alpha: Poly
    P: tuple
    Q: tuple


def _fail(msg: str):
    raise CertificateCheckFailed(msg)


def _deg(f: Poly) -> int:
    return f.degree if not f.is_zero() else -1


def euclid_rows(G: Poly, B: Poly, stop: int) -> tuple[Poly, Poly, Poly, Poly, int]:
    """Extended Euclid on (G, B), deg B < deg G, to the first remainder of degree < stop.

    Rows (r_j, t_j) start at (G, 0) and (B, 1) and keep r_j = t_j*B mod G.
    The last two come back as r0, t0, r1, t1, with the sign of
    t1*r0 - t0*r1 = sign * G.  A zero remainder ends the loop too.

    A row is one int64 array of shape (2, deg G + 1, d), r stacked on t
    (deg t_j = deg G - deg r_(j-1) never passes deg G).  A step works out
    the quotient from the top k+1 coefficients of r0 and r1 with the
    context's scalar field ops, subtracts each quotient coefficient's
    multiple of row 1 from row 0 in place (coordinate by coordinate,
    against row 1 times 1, x, .., x^(d-1)), reduces mod p once (entries
    stay above -(k+1)*d*p^2 before it) and walks r's degree down from
    deg r1 - 1.  The two rows then swap roles.
    """
    ctx = G.ctx
    p = ctx.p
    top = len(G.v) - 1                      # deg G
    rows = np.zeros((2, 2, top + 1, ctx.d), np.int64)
    e0, e1 = rows
    e0[0] = G.v
    e1[0, :len(B.v)] = B.v
    e1[1, 0] = ctx.one.vec
    n0, n1 = top, len(B.v) - 1              # deg r0, deg r1 (-1 for zero)
    sign = 1
    while n1 >= stop:
        k = n0 - n1
        inv = ctx.finv(tuple(e1[0, n1].tolist()))
        head = [tuple(x) for x in e0[0, n0 - k:n0 + 1][::-1].tolist()]
        div = [tuple(x) for x in e1[0, max(n1 - k, 0):n1 + 1][::-1].tolist()]
        q = [None] * (k + 1)                # q[i]: coefficient of z^i
        for i in range(k + 1):
            c = head[i]
            for j in range(max(i - n1, 0), i):
                c = ctx.fsub(c, ctx.fmul(q[k - j], div[i - j]))
            q[k - i] = ctx.fmul(c, inv)
        width = max(n0, top - n1) + 1       # r0 and the new t fit below it
        row1 = e1[:, :width]
        multiples = [row1] + [row1 @ ctx.basis_products[col] % p for col in range(1, ctx.d)]
        for i, qi in enumerate(q):
            for coord, m in zip(qi, multiples):
                if coord:
                    e0[:, i:width] -= coord * m[:, :width - i]
        np.remainder(e0[:, :width], p, out=e0[:, :width])
        n = n1 - 1
        while n >= 0 and not any(e0[0, n].tolist()):
            n -= 1
        e0, e1 = e1, e0
        n0, n1 = n1, n
        sign = -sign
    return (Poly(ctx, e0[0, :n0 + 1]), Poly(ctx, e0[1]),
            Poly(ctx, e1[0, :n1 + 1]), Poly(ctx, e1[1]), sign)


def birkhoff_step1(ctx: ReductionContext,
                   A: Poly) -> tuple[Poly, Poly, Poly, Poly, Poly]:
    """Minimal (f, g) with f*A + g*z^p = h*G, and a Bezout partner.

    G = g(z^p) = z^(2p) + g1*z^p + g0, with g0, g1 read from
    :func:`~higgsflow.polys.euclid_modulus`.  Rational reconstruction of
    B = A*z^(-p) mod G: a pair solves step 1 exactly when f*B = -g mod G.
    Since z^p*(z^p + g1) = G - g0, z^(-p) = -(z^p + g1)/g0 mod G, so with
    A = lo + hi*z^p (deg lo, deg hi < p), B = hi - (g1/g0)*lo - (lo/g0)*z^p
    needs no division.  Extended Euclid on (G, B) (:func:`euclid_rows`, in
    place, with no polynomial objects per step) keeps r_j = t_j*B, with
    deg r_j falling and deg t_j = 2p - deg r_(j-1) rising.  The first row
    with deg r_j <= p-1 is the answer: every earlier row has
    max(deg t, deg r) >= p, every later one deg t >= p+1.  f = t_j and
    g = -r_j, scaled so that f is monic; c = max(deg f, deg g) <= p.  A
    remainder that reaches zero ends the loop too, and then g = 0; so does
    A = 0, where B = 0 leaves f = 1.

    f is unique up to a scalar.  For c < p, two solutions of degree <= c
    satisfy f1*g2 = f2*g1 mod G in degree < 2p, hence exactly, so both are
    multiples of one primitive pair by polynomials in one ideal, and only
    its monic generator keeps the degree minimal.  For c = p the pairs of
    degree <= p form a 2-dimensional space.  The rule deg g <= p-1 says
    that f*A mod G has no terms below z^p: p conditions on the p+1
    coefficients of f whose leading p x p block is T_0, which has full rank
    exactly when c = p.  So one line is left.

    The previous row gives the partner.  Each Euclid step negates
    t_j*r_(j-1) - t_(j-1)*r_j, which starts at G; scaled like f and g,
    (beta', gamma') = +-lead(t_j)*(t_(j-1), r_(j-1)) satisfy
    f*gamma' + g*beta' = G, and r_(j-1) = t_(j-1)*B makes
    z^p*gamma' - A*beta' divisible by G.  deg gamma' = 2p - deg f and
    deg beta' < deg f.  When deg g > deg f, gamma' is reduced mod g (beta'
    gains the quotient times f), which keeps both relations and brings
    both degrees to <= 2p - c.  That reduction, by a divisor of degree
    < p, is step 1's one school division; h comes from
    :func:`~higgsflow.polys.divrem_modulus`.

    Returns (f, g, h, beta', gamma').
    """
    p, d = ctx.p, ctx.d
    if A.degree > 2 * p - 1:
        raise DegreeTooLarge("step 1 requires deg A <= 2p-1")
    rows = euclid_modulus(ctx)
    g0, g1 = (tuple(x) for x in rows[:2].tolist())
    minus_inv_g0 = ctx.fneg(ctx.finv(g0))
    times_low, times_high = ctx.mul_matrix([ctx.fmul(minus_inv_g0, g1), minus_inv_g0])
    a = np.zeros((2 * p, d), np.int64)
    a[:len(A.v)] = A.v
    B = Poly(ctx, np.concatenate([a[p:] + a[:p] @ times_low, a[:p] @ times_high]) % p)
    G = np.zeros((2 * p + 1, d), np.int64)
    G[::p] = rows
    r0, t0, r1, t1, sign = euclid_rows(Poly(ctx, G), B, p)

    lead = t1.lead()
    inv = lead.inverse()
    f, g = t1.scale(inv), -r1.scale(inv)
    h, rem = divrem_modulus(f * A + g.shift(p))
    if not rem.is_zero():
        _fail("step-1 sum f*A + g*z^p is not divisible by G")

    s = lead if sign == 1 else -lead
    beta, gamma = t0.scale(s), r0.scale(s)
    if _deg(g) > f.degree:
        q, gamma = poly_divrem(gamma, g)
        beta = beta + q * f
    return f, g, h, beta, gamma


def assemble_certificate(cocycle: CocyclePolynomial, f: Poly, g: Poly, h: Poly,
                         beta_prime: Poly, gamma_prime: Poly,
                         alpha: Poly) -> FactorizationCertificate:
    """The certificate of (f, g, h, beta', gamma', alpha~), its frames built, unchecked.

    c = max(deg f, deg g), and P~, Q~ are laid out as
    :class:`FactorizationCertificate` says, g, h and beta' scaled by the
    cocycle's unit u: the scalars u, -u, -1/u and 1/u share one blow-up.
    """
    ctx, u = cocycle.ctx, cocycle.unit.vec
    c = max(_deg(f), _deg(g))
    uinv = ctx.finv(u)
    times = ctx.mul_matrix([u, ctx.fneg(u), ctx.fneg(uinv), uinv])
    beta_u, minus_beta_u, minus_h_u, g_u = (
        Poly(ctx, x.v @ m % ctx.p) for x, m in zip((beta_prime, beta_prime, h, g), times))
    P = ((alpha, beta_u), (minus_h_u, f))
    Q = ((f, minus_beta_u), (g_u, gamma_prime))
    return FactorizationCertificate(
        f=f, g=g, h=h, c=c, n=ctx.p - c,
        beta_prime=beta_prime, gamma_prime=gamma_prime, alpha=alpha, P=P, Q=Q)


def birkhoff_step2(ctx: ReductionContext, cocycle: CocyclePolynomial,
                   f: Poly, g: Poly, h: Poly,
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

    # the quotient is exact when the alpha identity of check_certificate holds
    alpha, _ = divrem_modulus(gamma_prime.shift(p) - cocycle.A * beta_prime)
    cert = assemble_certificate(cocycle, f, g, h, beta_prime, gamma_prime, alpha)
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


def _nonzero_entries(ctx: ReductionContext, entries: list) -> np.ndarray:
    """For each entry (name, products, shifted, over_G): is its sum nonzero?

    An entry stands for the polynomial sum(k*a*b over products) +
    sum(k*z^s*x over shifted) + G*sum(k*z^s*x over over_G), with signs
    k = +-1, coefficient arrays (n, d) and G = z^(2p) + g1*z^p + g0 from
    :func:`~higgsflow.polys.euclid_modulus`.  Each entry is one row of an
    int64 stack in :func:`~higgsflow.polys.convolve_into`'s unreduced
    layout (the shifted arrays in its first d columns).  The multiples of G
    are gathered in a stack of their own and added as three shifted copies,
    times g0, g1 and 1 coordinate by coordinate in that layout, and the
    stack is reduced mod p once.  A product adds entries below n*d*p^2, the
    multiples of G below 6*d*p^2 and the shifted terms less than 4p, so an
    entry with two products stays inside int64 for every supported p.
    """
    p, d = ctx.p, ctx.d
    g_rows = max(s + len(x) for e in entries for _, s, x in e[3])
    rows = max([len(a) + len(b) - 1 for e in entries for _, a, b in e[1]]
               + [s + len(x) for e in entries for _, s, x in e[2]] + [2 * p + g_rows])
    buf = np.zeros((len(entries), rows, 2 * d - 1), np.int64)
    over = np.zeros((len(entries), g_rows, d), np.int64)
    for out, g_out, (_, products, shifted, over_g) in zip(buf, over, entries):
        for k, a, b in products:
            convolve_into(out, a, b, k)
        for dst, terms in ((out[:, :d], shifted), (g_out, over_g)):
            for k, s, x in terms:
                if k > 0:
                    dst[s:s + len(x)] += x
                else:
                    dst[s:s + len(x)] -= x
    for k, gk in enumerate(euclid_modulus(ctx).tolist()):
        for i in range(d):
            for j, x in enumerate(gk):
                if x:
                    buf[:, k * p:k * p + g_rows, i + j] += x * over[..., i]
    del over                    # freed before the reduction allocates its result
    return ctx.fold(buf).any(axis=(1, 2))


def check_certificate(m: TransitionMatrix, cert: FactorizationCertificate) -> None:
    """Prove every certificate identity exactly, or name the first that fails.

    With G = g(z^p) = (z-1)^(2p), P~ = P diag(z^p, 1),
    Q~ = Q diag((z-1)^c, (z-1)^(2p-c)) and M~ = z^p (z-1)^p M =
    [[z^p G, 0], [A/u, z^p]] (see :class:`FactorizationCertificate` and
    :class:`TransitionMatrix`), in order:

    * step-1: f*A + z^p*g = h*G;
    * Bezout: f*gamma' + g*beta' = G;
    * alpha: z^p*gamma' - A*beta' = G*alpha~;
    * det P: det P~ = z^p, that is det P = 1;
    * det Q: det Q~ = G, that is det Q = 1;
    * P*M*Q: M~ Q~ = G diag(z^p, 1) adj(P~).  Once det P = 1 holds,
      P^(-1) = adj(P), and this is P*M*Q = diag((z-1)^(p-c), (z-1)^(c-p));
    * degree bounds: 0 <= c <= p, deg f, deg g and Q~'s first column at
      most c, deg beta', deg gamma' and Q~'s second column at most 2p - c,
      so that Q is regular at infinity.

    Step-1 and alpha read A from the cocycle, P*M*Q reads A/u from m.  Each
    polynomial identity (each entry of P*M*Q) is one signed sum of its own
    products, shifts and multiples of G; the sums are accumulated side by
    side and reduced once (:func:`_nonzero_entries`).  Ten general products
    in all, and no polynomial object is built.  Raises
    CertificateCheckFailed naming the identity.
    """
    ctx = m.cocycle.ctx
    p = ctx.p
    A, L = m.cocycle.A.v, m.lower_left.v
    f, g, h = cert.f.v, cert.g.v, cert.h.v
    beta, gamma, alpha = cert.beta_prime.v, cert.gamma_prime.v, cert.alpha.v
    (p00, p01), (p10, p11) = ((x.v for x in row) for row in cert.P)
    (q00, q01), (q10, q11) = ((x.v for x in row) for row in cert.Q)
    one = np.array([ctx.one.vec], np.int64)
    # (name, products, shifted, multiples of G); P*M*Q is
    # M~ Q~ - G diag(z^p, 1) adj(P~) entry by entry, adj(P~) = [[p11, -p01], [-p10, p00]]
    entries = [
        ("step-1", [(1, f, A)], [(1, p, g)], [(-1, 0, h)]),
        ("Bezout", [(1, f, gamma), (1, g, beta)], [], [(-1, 0, one)]),
        ("alpha", [(-1, A, beta)], [(1, p, gamma)], [(-1, 0, alpha)]),
        ("det P", [(1, p00, p11), (-1, p01, p10)], [(-1, p, one)], []),
        ("det Q", [(1, q00, q11), (-1, q01, q10)], [], [(-1, 0, one)]),
        ("P*M*Q", [], [], [(1, p, q00), (-1, p, p11)]),
        ("P*M*Q", [], [], [(1, p, q01), (1, p, p01)]),
        ("P*M*Q", [(1, L, q00)], [(1, p, q10)], [(1, 0, p10)]),
        ("P*M*Q", [(1, L, q01)], [(1, p, q11)], [(-1, 0, p00)]),
    ]
    for (name, *_), nonzero in zip(entries, _nonzero_entries(ctx, entries)):
        if nonzero:
            _fail(f"certificate identity {name} does not hold")
    c = cert.c
    bounds = ((f, c), (g, c), (q00, c), (q10, c),
              (beta, 2 * p - c), (gamma, 2 * p - c), (q01, 2 * p - c), (q11, 2 * p - c))
    if not (0 <= c <= p and all(len(x) <= bound + 1 for x, bound in bounds)):
        _fail("certificate identity degree bounds does not hold")


def verify_certificate(m: TransitionMatrix, cert: FactorizationCertificate) -> bool:
    """True when every identity of :func:`check_certificate` holds exactly."""
    try:
        check_certificate(m, cert)
    except CertificateCheckFailed:
        return False
    return True
