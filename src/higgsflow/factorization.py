"""Constructive diagonalization of the transition matrix.

Step 1 finds the minimal pair (f, g) with f*A + g*z^p divisible by the
modulus G = g(z^p) = (z-1)^(2p), whose quadratic g every step reads from
:func:`~higgsflow.polys.euclid_modulus`, by extended Euclid, as a
rational reconstruction of A*z^(-p) mod G (see
:func:`birkhoff_step1`); n = p - max(deg f, deg g).  It shares no linear
algebra with the t method's rank scan.  Step 1 takes a field's stack of
rows: the stack's extended Euclids run in lockstep, one quotient step on
every unfinished row per iteration (:func:`_euclid`), and their Euclid
rows (r, t) live in two preallocated arrays that each step updates in
place, so a step builds no polynomial object.  The Euclid row before the
stopping row is a Bezout partner: it gives (beta', gamma') with
f*gamma' + g*beta' = G and z^p*gamma' = A*beta' mod G, reduced so that
both have degree <= 2p - c.  Step 1 returns the stack's zero-padded
(n, L, d) coefficient arrays of f, g, h, beta' and gamma'.

Step 2 divides the off-frame entry alpha out of z^p*gamma' - A*beta' and
assembles unimodular frames P, Q with
P * M * Q = diag((z-1)^(p-c), (z-1)^(c-p)).  It runs no second gcd: the
Bezout partner from step 1 already gives f*gamma' + g*beta' = G.  Step 2
takes step 1's arrays as they are and returns the checked
:class:`CertificateStack` of the same arrays: one product and one
division by G give every row's alpha, each unit is inverted once, and the
check proves every identity of every row in one buffer.  A sweep reads
each row's n = p - c from the stack; only a single row, a stack of one,
becomes a :class:`FactorizationCertificate` of polynomials
(:func:`factorization_certificate`).

The two divisions by G (h in step 1, alpha in step 2) use
:func:`~higgsflow.polys.divrem_modulus`, which moves a block of p
coefficients at a time; B = A*z^(-p) mod G needs none.  The one school
division left is the reduction of gamma' mod g in step 1, by a divisor of
degree < p, when deg g > deg f.

Everything is certified: the returned stack carries (f, g, h, c,
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
check builds no polynomial object and draws no sample points, and it
names the first failing row of the stack along with the identity.  Once
det P~ = z^p is proved, P^(-1) = adj(P), so the diagonalization is proved
as M~ Q~ = G diag(z^p, 1) adj(P~), which needs no product with P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import CocyclePolynomial, build_transition
from .criterion import SplittingType
from .errors import CertificateCheckFailed, DegreeTooLarge
from .fields import ReductionContext
from .linalg import stack_slices
from .polys import (Poly, _coefficients, convolve_into, divrem_modulus, euclid_modulus,
                    poly_divrem)
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


def _fail_rows(bad, msg: str) -> None:
    """Fail naming the first row of the stack where bad holds, if any does."""
    if any(bad):
        rows = tuple(i for i, x in enumerate(bad) if x)
        raise CertificateCheckFailed(f"{msg} at row {rows[0]}", rows)


def _degrees(r: np.ndarray) -> np.ndarray:
    """Degree of every polynomial of a stack (n, L, d), -1 for zero."""
    if not r.shape[1]:
        return np.full(len(r), -1)
    nz = np.logical_or.reduce(r, axis=2)
    return r.shape[1] - 1 - np.where(nz.any(axis=1), nz[:, ::-1].argmax(axis=1), r.shape[1])


def _degree_below(r: np.ndarray, m: int) -> int:
    """Degree of r's part below z^m, -1 for zero: one coefficient at a time."""
    m -= 1
    while m >= 0 and not any(r[m].tolist()):
        m -= 1
    return m


def _quotient_one(ctx: ReductionContext, e0: np.ndarray, e1: np.ndarray,
                  n0: int, n1: int) -> list:
    """The quotient of one row's r0 by r1, from their top k+1 coefficients
    with the context's scalar field ops, as (shift, coordinate, multiplier)
    terms: coordinate c of the coefficient of z^s, where it is nonzero.
    e0 and e1 are the row's two (2, L, d) Euclid rows, r on t."""
    k = n0 - n1
    inv = ctx.finv(e1[0, n1].tolist())
    head = e0[0, n0 - k:n0 + 1][::-1].tolist()
    div = e1[0, max(n1 - k, 0):n1 + 1][::-1].tolist()
    q = [None] * (k + 1)                # q[i]: coefficient of z^i
    for i in range(k + 1):
        c = head[i]
        for j in range(max(i - n1, 0), i):
            c = ctx.fsub(c, ctx.fmul(q[k - j], div[i - j]))
        q[k - i] = ctx.fmul(c, inv)
    return [(s, col, x) for s, qs in enumerate(q) for col, x in enumerate(qs) if x]


def _quotient_stack(ctx: ReductionContext, e0: np.ndarray, e1: np.ndarray,
                    n0: np.ndarray, n1: np.ndarray, live: np.ndarray,
                    table: np.ndarray) -> list:
    """``_quotient_one`` for every row of a stack at once, as (shift,
    coordinate, multiplier) terms whose multipliers are (n, 1, 1, 1)
    columns, zero on the rows that are not live.

    Row i's quotient has degree k_i = n0_i - n1_i.  Its coefficients are
    found from the top down, every row in step: the j-th from the top is
    r0's j-th from the top, less the products of the ones above it with
    r1's coefficients, times the inverse of r1's lead; a row with k_i < j
    has none.  Each is then filed under its power of z, k_i - j, so that
    one shift serves every row.
    """
    p, d = ctx.p, ctx.d
    every = np.arange(len(n0))
    k = np.where(live, n0 - n1, -1)
    kmax = int(k.max())
    inv = ctx.mul_matrix(ctx.finv_stack(e1[every, 0, np.maximum(n1, 0)], table))
    q = np.zeros((len(n0), kmax + 1, d), np.int64)     # q[:, j]: z^(k - j)
    for j in range(kmax + 1):
        c = e0[every, 0, np.maximum(n0 - j, 0)]
        for i in range(j):
            at = n1 - (j - i)                          # r1's coefficient of z^at
            prod = (q[:, i, None] @ ctx.mul_matrix(e1[every, 0, np.maximum(at, 0)]))[:, 0]
            c = c - prod * (at >= 0)[:, None]
        q[:, j] = (c[:, None] % p @ inv)[:, 0] % p * (j <= k)[:, None]
    terms = []
    for s in range(kmax + 1):
        qs = q[every, np.maximum(k - s, 0)] * (s <= k)[:, None]
        terms += [(s, col, qs[:, col, None, None, None]) for col in range(d)]
    return terms


def _euclid(ctx: ReductionContext, G: np.ndarray, B: np.ndarray, stop: int,
            table: np.ndarray | None):
    """Extended Euclid on (G, B_i) for every row B_i of the stack B (n, L, d),
    L <= deg G, in lockstep, each row to its first remainder of degree < stop.

    Rows (r_j, t_j) start at (G, 0) and (B_i, 1) and keep r_j = t_j*B_i
    mod G, r stacked on t in one (2, deg G + 1, d) array per row.  A step
    takes each row's quotient from the top k+1 coefficients of r0 and r1:
    ``table`` is ``ctx.finv_table()`` for a stack of more than one row,
    whose quotients come from ``_quotient_stack``, and None for a stack of
    one, which steps its own rows with int degrees and ``_quotient_one``'s
    quotient.  It subtracts each quotient coefficient's multiple of row 1
    from row 0 in place (against row 1 times 1, x, .., x^(d-1)), reduces
    mod p once (entries stay above -(k+1)*d*p^2 before it), and the two
    arrays swap roles for all rows.  A row that has stopped (deg r1 < stop,
    or a zero remainder) takes zero quotients, and its last two Euclid rows
    are read off at the end by the parity of the swaps it sat out.
    Returns (r0, t0, r1, t1) stacks (n, deg G + 1, d), with
    t1*r0 - t0*r1 = (-1)^steps * G, and each row's deg r0 and steps.
    """
    p, d = ctx.p, ctx.d
    n, top = len(B), len(G) - 1         # top: deg G
    pair = np.zeros((2, n, 2, top + 1, d), np.int64)
    e0, e1 = pair
    e0[:, 0] = G
    e1[:, 0, :B.shape[1]] = B
    e1[:, 1, 0] = ctx.one.vec
    if n == 1:
        e0, e1 = e0[0], e1[0]
        n0, n1, steps = top, _degree_below(e1[0], B.shape[1]), 0
    else:
        n0, n1, steps = np.full(n, top), _degrees(e1[:, 0]), np.zeros(n, np.int64)
    rounds = 0
    while True:
        if n == 1:
            if n1 < stop:
                break
            terms = _quotient_one(ctx, e0, e1, n0, n1)
            width = max(n0, top - n1) + 1   # r0 and the new t fit below it
        else:
            live = n1 >= stop
            if not live.any():
                break
            terms = _quotient_stack(ctx, e0, e1, n0, n1, live, table)
            width = top + 1
        row1 = e1[..., :width, :]
        multiples = [row1] + [row1 @ ctx.basis_products[col] % p for col in range(1, d)]
        for s, col, x in terms:
            e0[..., s:width, :] -= x * multiples[col][..., :width - s, :]
        np.remainder(e0[..., :width, :], p, out=e0[..., :width, :])
        if n == 1:
            n0, n1 = n1, _degree_below(e0[0], n1)
            steps += 1
        else:
            n0, n1 = np.where(live, n1, n0), np.where(live, _degrees(e0[:, 0]), n1)
            steps += live
        e0, e1 = e1, e0
        rounds += 1
    if n == 1:
        return e0[None, 0], e0[None, 1], e1[None, 0], e1[None, 1], np.array([n0]), np.array([steps])
    # a row that stopped early has swapped roles (rounds - steps) times since
    back = ((rounds - steps) % 2 == 1)[:, None, None, None]
    last0, last1 = np.where(back, e1, e0), np.where(back, e0, e1)
    return last0[:, 0], last0[:, 1], last1[:, 0], last1[:, 1], n0, steps


def birkhoff_step1(ctx: ReductionContext, A: list) -> tuple:
    """Minimal (f, g) with f*A + g*z^p = h*G, and a Bezout partner, for
    every cocycle polynomial of the list A, one field's stack, whose
    Euclids run in lockstep (:func:`_euclid`).

    G = g(z^p) = z^(2p) + g1*z^p + g0, with g0, g1 read from
    :func:`~higgsflow.polys.euclid_modulus`.  Rational reconstruction of
    B = A*z^(-p) mod G: a pair solves step 1 exactly when f*B = -g mod G.
    Since z^p*(z^p + g1) = G - g0, z^(-p) = -(z^p + g1)/g0 mod G, so with
    A = lo + hi*z^p (deg lo, deg hi < p), B = hi - (g1/g0)*lo - (lo/g0)*z^p
    needs no division.  Extended Euclid on (G, B) (in place, with no
    polynomial objects per step) keeps r_j = t_j*B, with
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

    B, the Euclid, the scalings by the leads, and h with the check that G
    divides f*A + g*z^p, are done for the whole stack at once; only the
    reduction of gamma', on the rows with deg g > deg f, runs row by row,
    and writes its result back into the stacks.

    Returns (f, g, h, beta', gamma'), each the stack's zero-padded
    coefficient array (n, L, d), row i belonging to A[i]; beta' is wide
    enough for degree 2p - c on the rows whose gamma' was reduced.
    """
    p, d = ctx.p, ctx.d
    if any(x.degree > 2 * p - 1 for x in A):
        raise DegreeTooLarge("step 1 requires deg A <= 2p-1")
    rows = euclid_modulus(ctx)
    g0, g1 = rows[:2].tolist()
    minus_inv_g0 = ctx.fneg(ctx.finv(g0))
    times_low, times_high = ctx.mul_matrix([ctx.fmul(minus_inv_g0, g1), minus_inv_g0])
    a = _coefficients(A, 2 * p)
    B = np.concatenate([a[:, p:] + a[:, :p] @ times_low, a[:, :p] @ times_high], axis=1) % p
    G = np.zeros((2 * p + 1, d), np.int64)
    G[::p] = rows
    table = ctx.finv_table() if len(A) > 1 else None
    r0, t0, r1, t1, n0, steps = _euclid(ctx, G, B, p, table)

    # f, g by 1/lead(t_j) and -1/lead(t_j), the partner by +-lead(t_j): one
    # blow-up.  Each is cut at its degree bound: deg f = deg t_j =
    # 2p - deg r_(j-1) = 2p - deg gamma', deg g < p, and deg beta' < deg f,
    # or 2p - c once gamma' is reduced mod g on a row with c = deg g > deg f
    deg_f = 2 * p - n0
    deg_g = _degrees(r1)
    reduced = np.flatnonzero(deg_g > deg_f).tolist()
    if table is None:
        lead = t1[0, deg_f[0]].tolist()
        inv = ctx.finv(lead)
        times = ctx.mul_matrix([[inv, ctx.fneg(inv), ctx.fneg(lead) if steps[0] % 2 else lead]])
    else:
        lead = t1[np.arange(len(A)), deg_f]
        inv = ctx.finv_stack(lead, table)
        times = ctx.mul_matrix(np.stack([inv, -inv, lead * (1 - 2 * (steps[:, None] % 2))], 1))
    most, least = int(deg_f.max()), int(deg_f.min())
    wide = max([most] + [2 * p + 1 - int(deg_g[i]) for i in reduced])
    f, g, beta, gamma = (x[:, :cut] @ times[:, k] % p for x, k, cut in (
        (t1, 0, most + 1), (r1, 1, p), (t0, 2, wide), (r0, 2, 2 * p + 1 - least)))
    # h = (f*A + g*z^p)/G for every row, from one product and one division
    t = np.zeros((len(A), most + 2 * p, 2 * d - 1), np.int64)
    convolve_into(t, f, a)
    t[:, p:2 * p, :d] += g
    h, rem = divrem_modulus(ctx.fold(t), ctx)
    _fail_rows(rem.any(axis=(1, 2)), "step-1 sum f*A + g*z^p is not divisible by G")
    for i in reduced:
        fx, gx, bx, cx = (Poly(ctx, x[i]) for x in (f, g, beta, gamma))
        q, cx = poly_divrem(cx, gx)
        bx = bx + q * fx
        beta[i, :len(bx.v)] = bx.v          # deg beta' only grows
        gamma[i, len(cx.v):] = 0
        gamma[i, :len(cx.v)] = cx.v
    return f, g, h, beta, gamma


def _frames(ctx: ReductionContext, units: np.ndarray, beta: np.ndarray, h: np.ndarray,
            g: np.ndarray):
    """1/u for every row of a stack, and u*beta', -u*beta', -h/u and g/u.

    units is (n, d), the others (n, L, d).  Each u is inverted once,
    through ``finv_stack`` for a stack of more than one row; the scalars
    u, -u, -1/u and 1/u then come from one blow-up.
    """
    if len(units) > 1:
        inv = ctx.finv_stack(units, ctx.finv_table())
    else:
        inv = np.array([ctx.finv(units[0].tolist())], np.int64)
    times = ctx.mul_matrix(np.stack([units, -units, -inv, inv], 1))
    return inv, [x @ times[:, k] % ctx.p for k, x in enumerate((beta, beta, h, g))]


def _certificate(f: Poly, g: Poly, h: Poly, beta_prime: Poly, gamma_prime: Poly, alpha: Poly,
                 beta_u: Poly, minus_beta_u: Poly, minus_h_u: Poly,
                 g_u: Poly) -> FactorizationCertificate:
    """The certificate with its frames laid out as :class:`FactorizationCertificate` says."""
    c = max(len(f.v), len(g.v)) - 1
    return FactorizationCertificate(
        f=f, g=g, h=h, c=c, n=f.ctx.p - c, beta_prime=beta_prime, gamma_prime=gamma_prime,
        alpha=alpha, P=((alpha, beta_u), (minus_h_u, f)), Q=((f, minus_beta_u), (g_u, gamma_prime)))


def assemble_certificate(cocycle: CocyclePolynomial, f: Poly, g: Poly, h: Poly,
                         beta_prime: Poly, gamma_prime: Poly,
                         alpha: Poly) -> FactorizationCertificate:
    """The certificate of (f, g, h, beta', gamma', alpha~), its frames built, unchecked.

    c = max(deg f, deg g), and P~, Q~ are laid out as
    :class:`FactorizationCertificate` says, g, h and beta' scaled by the
    cocycle's unit u (:func:`_frames`, on a stack of one).
    """
    ctx = cocycle.ctx
    _, frames = _frames(ctx, np.array([cocycle.unit.vec], np.int64),
                        *(x.v[None] for x in (beta_prime, h, g)))
    return _certificate(f, g, h, beta_prime, gamma_prime, alpha,
                        *(Poly(ctx, x[0]) for x in frames))


def birkhoff_step2(ctx: ReductionContext, cocycles: list, f: np.ndarray, g: np.ndarray,
                   h: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> CertificateStack:
    """Degree checks, alpha, frame assembly, then the exact certificate check.

    cocycles is a list of cocycles, one field's stack, and f, g, h, beta,
    gamma the zero-padded coefficient arrays (n, L, d) of its step-1
    output (f, g, h, beta', gamma'), row i belonging to cocycles[i], as
    :func:`birkhoff_step1` returns them.  The whole stack is worked on as
    these arrays: alpha~ = (z^p*gamma' - A*beta')/G for every row from one
    product and one :func:`~higgsflow.polys.divrem_modulus`; every unit u
    inverted once (:func:`_frames`), and that inverse also gives the
    gluing matrix's lower-left entry A/u (``build_transition``); the
    certificates of the stack proved together (``verify_certificate``).
    Returns the :class:`CertificateStack`, whose c gives each row's
    n = p - c; it has passed :func:`check_certificate`.

    Raises CertificateCheckFailed, naming the first failing row, when
    c = max(deg f, deg g) is outside 0..p or deg beta', deg gamma' exceed
    2p - c, or, naming the identity too, when the assembled certificates
    fail :func:`check_certificate`.
    """
    p = ctx.p
    c = np.maximum(_degrees(f), _degrees(g))
    _fail_rows((c < 0) | (c > p), "combined degree outside 0..p")
    _fail_rows(np.maximum(_degrees(beta), _degrees(gamma)) > 2 * p - c,
               "degree bounds on (beta', gamma') violated")
    A = _coefficients([x.A for x in cocycles])

    # the quotient is exact when the alpha identity of check_certificate holds
    t = np.zeros((len(cocycles), max(p + gamma.shape[1], A.shape[1] + beta.shape[1] - 1),
                  2 * ctx.d - 1), np.int64)
    t[:, p:p + gamma.shape[1], :ctx.d] = gamma
    convolve_into(t, A, beta, -1)
    alpha, _ = divrem_modulus(ctx.fold(t), ctx)
    inv, (beta_u, minus_beta_u, minus_h_u, g_u) = _frames(
        ctx, np.array([x.unit.vec for x in cocycles], np.int64), beta, h, g)
    stack = CertificateStack(f=f, g=g, h=h, c=c, beta_prime=beta, gamma_prime=gamma,
                             alpha=alpha, P=((alpha, beta_u), (minus_h_u, f)),
                             Q=((f, minus_beta_u), (g_u, gamma)))
    # verify_certificate is the check perfbench traces as factorization.verify;
    # only when it fails does check_certificate run again to name the identity
    ms = [build_transition(x, tuple(v)) for x, v in zip(cocycles, inv.tolist())]
    if not verify_certificate(ms, stack):
        check_certificate(ms, stack)
    return stack


def factorization_certificate(cocycle: CocyclePolynomial) -> FactorizationCertificate:
    """Full pipeline on one cocycle, a stack of one: step 1, step 2, and the
    checked stack's one row as a certificate of polynomials."""
    ctx = cocycle.ctx
    s = birkhoff_step2(ctx, [cocycle], *birkhoff_step1(ctx, [cocycle.A]))
    (alpha, beta_u), (minus_h_u, _) = s.P
    (_, minus_beta_u), (g_u, _) = s.Q
    return _certificate(*(Poly(ctx, x[0]) for x in (
        s.f, s.g, s.h, s.beta_prime, s.gamma_prime, alpha, beta_u, minus_beta_u, minus_h_u, g_u)))


def splitting_from_birkhoff(cocycle: CocyclePolynomial) -> SplittingType:
    """Splitting integer n = p - c read off a verified certificate."""
    return SplittingType.of(factorization_certificate(cocycle).n, "birkhoff")


@dataclass(frozen=True)
class CertificateStack:
    """n certificates at one (p, d) as step 2 returns them and the check reads them.

    Each polynomial field of :class:`FactorizationCertificate`, and each
    entry of P~ and Q~, is one zero-padded coefficient stack (n, L, d),
    row i belonging to certificate i; c is an (n,) array.
    """

    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    c: np.ndarray
    beta_prime: np.ndarray
    gamma_prime: np.ndarray
    alpha: np.ndarray
    P: tuple
    Q: tuple

    @classmethod
    def of(cls, certs: list) -> "CertificateStack":
        """The stack of a list of certificates."""
        def stack(name):
            return _coefficients([getattr(x, name) for x in certs])

        def frame(name):
            return tuple(tuple(_coefficients([getattr(x, name)[i][j] for x in certs])
                               for j in range(2)) for i in range(2))

        return cls(f=stack("f"), g=stack("g"), h=stack("h"),
                   c=np.array([x.c for x in certs]), beta_prime=stack("beta_prime"),
                   gamma_prime=stack("gamma_prime"), alpha=stack("alpha"),
                   P=frame("P"), Q=frame("Q"))


def _nonzero_entries(ctx: ReductionContext, n: int, entries: list) -> np.ndarray:
    """For each row of a stack of n and each entry (name, products,
    shifted, over_G): is its sum nonzero?  An (n, entries) array.

    An entry stands for the polynomial sum(k*a*b over products) +
    sum(k*z^s*x over shifted) + G*sum(k*z^s*x over over_G), with signs
    k = +-1, coefficient stacks (n, L, d) and G = z^(2p) + g1*z^p + g0
    from :func:`~higgsflow.polys.euclid_modulus`.  Entry e of row i is one
    row of an int64 buffer (entries, rows of the stack, L, 2d - 1) in
    :func:`~higgsflow.polys.convolve_into`'s unreduced layout (the shifted
    terms in its first d columns), and each product is one call for all
    its rows; the buffers take as many rows of the stack at a time as
    ``linalg.stack_slices`` allows.  The multiples of G are gathered in a
    buffer of their own and added as three shifted copies, times g0, g1
    and 1 coordinate by coordinate in that layout, and the buffer is
    reduced mod p by one fold.  A product adds entries below L*d*p^2, the
    multiples of G below 6*d*p^2 and the shifted terms less than 4p, so an
    entry with two products stays inside int64 for every supported p.
    """
    p, d = ctx.p, ctx.d
    g_rows = max(s + x.shape[1] for e in entries for _, s, x in e[3])
    length = max([a.shape[1] + b.shape[1] - 1 for e in entries for _, a, b in e[1]]
                 + [s + x.shape[1] for e in entries for _, s, x in e[2]] + [2 * p + g_rows])
    g = euclid_modulus(ctx).tolist()
    nonzero = np.empty((len(entries), n), bool)
    # per row of the stack: the buffer, the multiples of G and the folded buffer
    parts = stack_slices(n, len(entries) * (length * 3 * d + g_rows * d))
    for part in parts:
        rows = entries if len(parts) == 1 else [
            (name, [(k, a[part], b[part]) for k, a, b in products],
             [(k, s, x[part]) for k, s, x in shifted], [(k, s, x[part]) for k, s, x in over_g])
            for name, products, shifted, over_g in entries]
        buf = np.zeros((len(entries), len(range(n)[part]), length, 2 * d - 1), np.int64)
        over = np.zeros(buf.shape[:2] + (g_rows, d), np.int64)
        for out, g_out, (_, products, shifted, over_g) in zip(buf, over, rows):
            for k, a, b in products:
                convolve_into(out, a, b, k)
            for dst, terms in ((out[..., :d], shifted), (g_out, over_g)):
                for k, s, x in terms:
                    if k > 0:
                        dst[:, s:s + x.shape[1]] += x
                    else:
                        dst[:, s:s + x.shape[1]] -= x
        for k, gk in enumerate(g):
            for i in range(d):
                for j, x in enumerate(gk):
                    if x:
                        buf[..., k * p:k * p + g_rows, i + j] += x * over[..., i]
        del over                # freed before the reduction allocates its result
        nonzero[:, part] = ctx.fold(buf).any(axis=(2, 3))
    return nonzero.T


def check_certificate(ms: list, cert) -> None:
    """Prove every certificate identity exactly, or name the first that fails.

    ms is a list of :class:`~higgsflow.cocycle.TransitionMatrix`, one
    field's stack, and cert a list of as many certificates or their
    :class:`CertificateStack`.  With G = g(z^p) = (z-1)^(2p),
    P~ = P diag(z^p, 1), Q~ = Q diag((z-1)^c, (z-1)^(2p-c)) and
    M~ = z^p (z-1)^p M = [[z^p G, 0], [A/u, z^p]] (see
    :class:`FactorizationCertificate` and :class:`TransitionMatrix`), in
    order, for every row:

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
    products, shifts and multiples of G; the sums of every row of the
    stack are accumulated side by side and reduced once
    (:func:`_nonzero_entries`).  Ten general products in all, each one
    call for the whole stack, and no polynomial object is built.  Raises
    CertificateCheckFailed naming the identity and the first failing row;
    its ``rows`` holds every failing row.
    """
    if not isinstance(cert, CertificateStack):
        cert = CertificateStack.of(cert)
    ctx = ms[0].cocycle.ctx
    p = ctx.p
    A, L = _coefficients([x.cocycle.A for x in ms]), _coefficients([x.lower_left for x in ms])
    f, g, h = cert.f, cert.g, cert.h
    beta, gamma, alpha = cert.beta_prime, cert.gamma_prime, cert.alpha
    (p00, p01), (p10, p11) = cert.P
    (q00, q01), (q10, q11) = cert.Q
    one = np.full((len(ms), 1, ctx.d), ctx.one.vec, np.int64)
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
    c = cert.c
    in_bounds = (0 <= c) & (c <= p)
    for bound, xs in ((c, (f, g, q00, q10)), (2 * p - c, (beta, gamma, q01, q11))):
        least = bound.min() + 1
        for x in xs:
            if x.shape[1] > least:          # else every row is inside its bound
                in_bounds &= _degrees(x) <= bound
    nonzero = _nonzero_entries(ctx, len(ms), entries)
    failing = ~in_bounds | nonzero.any(axis=1)
    if failing.any():
        name = ([e[0] for e in entries] + ["degree bounds"])[
            np.append(nonzero[failing.argmax()], True).argmax()]
        _fail_rows(failing.tolist(), f"certificate identity {name} does not hold")


def verify_certificate(ms: list, cert) -> bool:
    """True when every identity of :func:`check_certificate` holds exactly,
    for every row of the stack."""
    try:
        check_certificate(ms, cert)
    except CertificateCheckFailed:
        return False
    return True
