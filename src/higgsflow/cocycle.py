"""Transition data for the Frobenius-twisted gluing of the rank-2 bundle.

The lifted parameter determines a 1-cocycle on the two-chart cover of the
projective line minus the four marked points.  Its numerator A is computed
two independent ways: from the characteristic-p² primitive (expand, check
divisibility by p, divide), and from the expanded closed form in
(lam0, lam1), kept as the reference the self-test and the tests compare it
with.  A sweep builds the primitive once per residue lam0 of a field, on
the first of its rows, and the cocycle of every other lift of that lam0
from it by :func:`shift_lam1`.  That is exact: two lifts differ by p*y,
which moves the bracket by -p*F(y)*(z^p - 1) mod p², so A moves only by
the closed form's one lam1 term, -lam1*(z^p - 1).  A is kept
unnormalised (the displayed numerator itself); the scalar unit
u = 1 - lam0^p is carried separately, since rescaling A touches no rank,
null space, or splitting integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalDivisibilityFailure
from .fields import (FieldElement, ReductionContext, WittRingElement, check_residue,
                     frobenius_w2)
from .polys import Poly


def binomial_over_p(p: int, i: int) -> int:
    """The integer C(p, i)/p reduced mod p, for 1 <= i <= p-1.

    C(p, i)/p = C(p-1, i-1)/i, and C(p-1, i-1) = (-1)^(i-1) mod p, so the
    value is (-1)^(i-1)/i mod p, with no big binomial.
    """
    if not 1 <= i <= p - 1:
        raise ValueError("binomial scalar defined for 1 <= i <= p-1")
    return (-1) ** (i - 1) * pow(i, -1, p) % p


def binomials_mod_p2(p: int) -> np.ndarray:
    """C(p, k) mod p² for k = 0..p, from C(p, k) = p * (C(p, k)/p) in O(p)."""
    return np.array([1] + [p * binomial_over_p(p, k) for k in range(1, p)] + [1], np.int64)


@dataclass(frozen=True)
class CocyclePolynomial:
    """The cocycle numerator A (degree <= 2p-1) and its scalar unit."""

    ctx: ReductionContext
    A: Poly
    unit: FieldElement


@dataclass(frozen=True)
class TransitionMatrix:
    """The 2x2 gluing matrix M = [[(z-1)^p, 0], [a (z-1)^-p, (z-1)^-p]], a = A/(u z^p).

    Kept as M~ = z^p (z-1)^p M = [[z^p G, 0], [A/u, z^p]] over the fixed
    denominator z^p (z-1)^p, where G = (z-1)^(2p).  Only the lower-left
    numerator A/u is stored: the diagonal is structure, the same for every
    cocycle, and never a product.  M is lower triangular with reciprocal
    diagonal, so det M = 1 for every A; its poles lie in {0, 1, infinity}.
    """

    cocycle: CocyclePolynomial
    lower_left: Poly


def build_A_primitive(ctx: ReductionContext, lam: WittRingElement) -> CocyclePolynomial:
    """A from the characteristic-p² bracket.

    Expands (z^p - F(lam))(z-1)^p - (z-lam)^p(z^p - 1) exactly over the
    Witt ring, verifies every coefficient is divisible by p, and divides.
    The z^(2p) terms cancel, leaving degree <= 2p-1.
    """
    p, p2 = ctx.p, ctx.p2
    lam0 = lam.residue()
    check_residue(lam0)
    flam = np.array(frobenius_w2(lam).vec, np.int64)
    one = np.array(ctx.w_from_int(1).vec, np.int64)

    # index k = coefficient of z^k: C(p,k), (z-1)^p and (z-lam)^p
    binom = binomials_mod_p2(p)
    zm1 = binom * np.where((p - np.arange(p + 1)) % 2 == 0, 1, -1)
    neg_lam = ctx.wneg(lam.vec)
    pw = [one.tolist()]
    for _ in range(p):
        pw.append(ctx.wmul(pw[-1], neg_lam))
    zml = binom[:, None] * np.array(pw[::-1], np.int64) % p2  # C(p,k) (-lam)^(p-k)

    # (z^p - F(lam)) * (z-1)^p - (z - lam)^p * (z^p - 1), over the Witt ring
    n = np.zeros((2 * p + 1, ctx.d), np.int64)
    n[p:] += zm1[:, None] * one - zml
    n[:p + 1] += zml - zm1[:, None] * flam % p2
    n %= p2
    bad = np.flatnonzero((n % p).any(axis=1))
    if bad.size:
        raise InternalDivisibilityFailure(
            f"numerator coefficient of z^{bad[0]} not divisible by p")
    a_poly = Poly(ctx, n // p)
    if a_poly.degree > 2 * p - 1:
        raise InternalDivisibilityFailure("z^(2p) term failed to cancel")

    unit = ctx.one - lam0 ** p
    return CocyclePolynomial(ctx=ctx, A=a_poly, unit=unit)


def build_A_closed(ctx: ReductionContext, lam0: FieldElement,
                   lam1: FieldElement) -> CocyclePolynomial:
    """A from the expanded closed form.

    A = sum_i (-1)^i (C(p,i)/p) (1 - lam0^i) z^(2p-i)
      + sum_i (-1)^i (C(p,i)/p) (lam0^i - lam0^p) z^(p-i)
      - lam1 (z^p - 1),   i running over 1..p-1.

    The z^(2p-1) coefficient is lam0 - 1, never zero, so A.v holds all 2p
    rows of the table.
    """
    check_residue(lam0)
    p = ctx.p
    pw = [ctx.one]
    for _ in range(p):
        pw.append(pw[-1] * lam0)
    pwv = np.array([e.vec for e in pw], np.int64)  # lam0^i, shape (p+1, d)
    # (-1)^i C(p,i)/p for i = 1..p-1, as a column against the coordinates
    c = np.array([(-1) ** i * binomial_over_p(p, i) for i in range(1, p)], np.int64)[:, None]
    coeffs = np.zeros((2 * p, ctx.d), np.int64)
    coeffs[2 * p - 1:p:-1] = c * (np.array(ctx.one.vec, np.int64) - pwv[1:p])
    coeffs[p - 1:0:-1] = c * (pwv[1:p] - pwv[p])
    coeffs[0] = lam1.vec
    coeffs[p] = -coeffs[0]
    a_poly = Poly(ctx, coeffs % p)
    unit = ctx.one - pw[p]
    return CocyclePolynomial(ctx=ctx, A=a_poly, unit=unit)


def shift_lam1(cocycle: CocyclePolynomial, delta: FieldElement) -> CocyclePolynomial:
    """The cocycle of the lift of the same lam0 whose lam1 is delta more:
    A + delta*(1 - z^p), so coefficients 0 and p move by +delta and -delta
    mod p, with the same unit.

    Two lifts of lam0 differ by p*y.  In the bracket of
    :func:`build_A_primitive`, (z - lam - p*y)^p = (z - lam)^p mod p², as
    every term with a power of p*y carries p², and
    F(lam + p*y) = F(lam) + p*F(y), so the bracket moves by
    -p*F(y)*(z-1)^p = -p*F(y)*(z^p - 1) mod p².  Divided by p, A moves by
    -F(y)*(z^p - 1), and F(y) mod p is the change of lam1
    (``fields.witt_decompose``): the one lam1 term of :func:`build_A_closed`.
    """
    ctx = cocycle.ctx
    v = cocycle.A.v.copy()
    step = np.array(delta.vec, np.int64)
    v[0] += step
    v[ctx.p] -= step
    return CocyclePolynomial(ctx=ctx, A=Poly(ctx, v % ctx.p), unit=cocycle.unit)


def build_transition(cocycle: CocyclePolynomial, unit_inverse=None) -> TransitionMatrix:
    """The gluing matrix for the inverse-Cartier bundle, as its numerator A/u.

    M~ = [[z^p (z-1)^(2p), 0], [A/u, z^p]] over z^p (z-1)^p (see
    :class:`TransitionMatrix`); the one entry that depends on the cocycle
    is A scaled by the inverse of the unit u.  A caller that has inverted
    u already passes the vec of 1/u as ``unit_inverse``.
    """
    inv = cocycle.unit.inverse().vec if unit_inverse is None else unit_inverse
    return TransitionMatrix(cocycle=cocycle, lower_left=cocycle.A.scale(inv))
