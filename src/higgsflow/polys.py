"""Dense univariate polynomial arithmetic over F_p or F_{p²} coefficients.

Two shapes of object live here:

* :class:`Poly` -- ordinary polynomials, lowest degree first;
* :class:`PoleFraction` -- num / (z^a (z-1)^b), the one fraction type: every
  entry of the transition matrix and its diagonalising frames, and every
  Laurent polynomial (b = 0), takes this shape.

Everything is exact.  A polynomial's coefficients are one int64 array of
shape (n, d), so products are integer convolutions (each sum has at most
n*d terms below p^2, inside int64 for every supported p) and divisions
update whole coefficient slices; degrees stay below a few thousand, so the
dense quadratic algorithms are the right tool.  The one divisor that every
birkhoff row meets three times, (z-1)^(2p) = z^(2p) - 2z^p + 1 in
characteristic p, has its own division (:func:`divrem_z_minus_one_2p`):
it moves a block of p coefficients per step instead of one.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import (DivisionByZeroPoly, InternalDivisibilityFailure,
                     InternalInvariantFailure)
from .fields import FieldElement, ReductionContext

NEG_INF = float("-inf")


class Poly:
    """Polynomial over F_q: an int64 array v of shape (n, d).

    Row k of v is the coefficient vec of z^k, entries in [0, p); the top
    row is nonzero, so len(v) counts the coefficients (0 for the zero
    polynomial).  Every operation acts on whole coefficient arrays.
    """

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: ReductionContext, coeffs=()):
        v = np.asarray(coeffs, np.int64).reshape(-1, ctx.d)
        if len(v) and not np.count_nonzero(v[-1]):
            nz = v.any(axis=1).nonzero()[0]
            v = v[: nz[-1] + 1] if nz.size else v[:0]
        self.ctx = ctx
        self.v = v

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: ReductionContext) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: ReductionContext) -> "Poly":
        return cls(ctx, ctx.one.vec)

    @classmethod
    def from_ints(cls, ctx: ReductionContext, ints: Iterable[int]) -> "Poly":
        ints = [n % ctx.p for n in ints]
        v = np.zeros((len(ints), ctx.d), np.int64)
        v[:, 0] = ints
        return cls(ctx, v)

    @classmethod
    def from_elements(cls, ctx: ReductionContext, elems: Iterable[FieldElement]) -> "Poly":
        return cls(ctx, [e.vec for e in elems])

    @classmethod
    def monomial(cls, ctx: ReductionContext, k: int, coeff=None) -> "Poly":
        v = np.zeros((k + 1, ctx.d), np.int64)
        v[k] = ctx.one.vec if coeff is None else coeff
        return cls(ctx, v)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.v) - 1 if len(self.v) else NEG_INF

    def is_zero(self) -> bool:
        return not len(self.v)

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < len(self.v):
            return FieldElement(self.ctx, tuple(self.v[i].tolist()))
        return self.ctx.zero

    def coeffs(self) -> list[FieldElement]:
        return [FieldElement(self.ctx, tuple(c)) for c in self.v.tolist()]

    def lead(self) -> FieldElement:
        if self.is_zero():
            raise InternalInvariantFailure("zero polynomial has no leading coefficient")
        return self.coeff(len(self.v) - 1)

    # -- ring operations -------------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        a, b = self.v, other.v
        out = np.zeros((max(len(a), len(b)), self.ctx.d), np.int64)
        out[: len(a)] = a
        out[: len(b)] += sign * b
        return Poly(self.ctx, out % self.ctx.p)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, -self.v % self.ctx.p)

    def __mul__(self, other: "Poly") -> "Poly":
        """d*d integer convolutions of coordinate columns, then one fold."""
        ctx = self.ctx
        a, b = self.v, other.v
        if not len(a) or not len(b):
            return Poly.zero(ctx)
        t = np.zeros((len(a) + len(b) - 1, 2 * ctx.d - 1), np.int64)
        for i in range(ctx.d):
            for j in range(ctx.d):
                t[:, i + j] += np.convolve(a[:, i], b[:, j])
        return Poly(ctx, ctx.fold(t))

    def scale(self, c) -> "Poly":
        """Multiply by a scalar (FieldElement or raw vec)."""
        cv = c.vec if isinstance(c, FieldElement) else c
        return Poly(self.ctx, self.v @ self.ctx.mul_matrix(cv) % self.ctx.p)

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k (k >= 0) or divide exactly by z^k (k < 0)."""
        if self.is_zero():
            return self
        if k >= 0:
            zeros = np.zeros((k, self.ctx.d), np.int64)
            return Poly(self.ctx, np.concatenate([zeros, self.v]))
        if self.v[:-k].any():
            raise InternalDivisibilityFailure(f"not divisible by z^{-k}")
        return Poly(self.ctx, self.v[-k:])

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx == other.ctx
                and np.array_equal(self.v, other.v))

    def __hash__(self):
        return hash((self.ctx, self.v.tobytes()))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in reversed(list(enumerate(self.coeffs()))):
            if c.is_zero():
                continue
            cs = c.to_string()
            if k == 0:
                terms.append(cs)
            else:
                zs = "z" if k == 1 else f"z^{k}"
                terms.append(zs if cs == "1" else f"({cs})*{zs}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- structure around z = 1 --------------------------------------------------

    def divide_out_one(self, limit: int) -> tuple["Poly", int]:
        """(self / (z-1)^k, k) for the largest k <= limit that divides exactly."""
        v, k = self.v, 0
        while k < limit and len(v):
            # synthetic division at 1: row i of the suffix sums is the sum of
            # coefficients i.., so row 0 is the value at 1 and the rest the quotient
            sums = np.add.accumulate(v[::-1], axis=0)[::-1] % self.ctx.p
            if np.count_nonzero(sums[0]):
                break
            v, k = sums[1:], k + 1
        return (self if k == 0 else Poly(self.ctx, v)), k

    def order_at_one(self) -> int:
        """Multiplicity of z = 1 as a root; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return self.divide_out_one(len(self.v))[1]

    def taylor_at_one(self) -> "Poly":
        """Coefficients of self(s+1) in s: the Taylor expansion at z = 1.

        Coefficient k is the value at 1 of the k-th quotient by (z - 1).
        On reversed coefficients a cumulative sum is that division: it
        leaves the value at 1 in the last row and the reversed quotient
        before it, so dividing in place on ever shorter prefixes leaves
        the coefficients behind in reverse order.
        """
        rev = self.v[::-1].copy()
        for k in range(len(rev), 0, -1):
            head = rev[:k]
            np.add.accumulate(head, axis=0, out=head)
            np.remainder(head, self.ctx.p, out=head)
        return Poly(self.ctx, rev[::-1])


# ---------------------------------------------------------------------------


def poly_divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """School division: f = q*g + r with deg r < deg g.

    Each step subtracts c * g from the top of the remainder, where c * g
    is c's coordinates against the precomputed multiples x^i * g.  The
    remainder (kept flat) is reduced mod p only at the end: its entries
    stay below p + m*d*p^2, and a quotient coefficient sums d of them
    times entries below p, far inside int64.
    """
    if g.is_zero():
        raise DivisionByZeroPoly("division by the zero polynomial")
    ctx = f.ctx
    p, d = ctx.p, ctx.d
    n, m = len(f.v), len(g.v)
    if n < m:
        return Poly.zero(ctx), f
    inv_lead = ctx.mul_matrix(ctx.finv(tuple(g.v[-1].tolist())))
    gx = (g.v @ ctx.basis_products % p).reshape(d, m * d)  # row i: x^i * g
    rem = f.v.ravel().copy()
    q = np.zeros((n - m + 1, d), np.int64)
    for base in range(n - m, -1, -1):
        c = rem[(base + m - 1) * d:(base + m) * d] @ inv_lead % p
        q[base] = c
        rem[base * d:(base + m) * d] -= c @ gx
    return Poly(ctx, q), Poly(ctx, rem[: (m - 1) * d] % p)


def divrem_z_minus_one_2p(f: Poly) -> tuple[Poly, Poly]:
    """f = q*(z-1)^(2p) + r with deg r < 2p, a block of p coefficients at a time.

    In characteristic p, (z-1)^(2p) = z^(2p) - 2z^p + 1, so the top p
    coefficients of what is left to divide are their own quotient block:
    subtracting the block times the divisor cancels it, adds twice the
    block p places lower (the next block down) and subtracts it 2p places
    lower.  Each block is reduced mod p before use, so every entry receives
    at most one addition (below 2p) and one subtraction (below p) and stays
    inside (-p, 3p).
    """
    ctx = f.ctx
    p = ctx.p
    hi = len(f.v)
    if hi <= 2 * p:
        return Poly.zero(ctx), f
    rem = f.v.copy()
    q = np.zeros((hi - 2 * p, ctx.d), np.int64)
    while hi > 2 * p:
        lo = max(hi - p, 2 * p)
        block = rem[lo:hi] % p
        q[lo - 2 * p:hi - 2 * p] = block
        rem[lo - p:hi - p] += 2 * block
        rem[lo - 2 * p:hi - 2 * p] -= block
        hi = lo
    return Poly(ctx, q), Poly(ctx, rem[:2 * p] % p)


def poly_divexact(f: Poly, g: Poly) -> Poly:
    q, r = poly_divrem(f, g)
    if not r.is_zero():
        raise InternalDivisibilityFailure("inexact polynomial division")
    return q


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (gcd monic, u, v) with u*f + v*g = gcd."""
    ctx = f.ctx
    if f.is_zero() and g.is_zero():
        raise InternalInvariantFailure("gcd of two zero polynomials")
    r0, r1 = f, g
    u0, u1 = Poly.one(ctx), Poly.zero(ctx)
    while not r1.is_zero():
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    lead_inv = r0.lead().inverse()
    gcd, u = r0.scale(lead_inv), u0.scale(lead_inv)
    # the Bezout partner of u follows from one exact division
    v = poly_divexact(gcd - u * f, g) if not g.is_zero() else Poly.zero(ctx)
    return gcd, u, v


def _minus_one_binomials(n: int, p: int) -> list[int]:
    """Coefficients of (x-1)^n mod p, lowest first, for 0 <= n < p.

    C(n, j+1) = C(n, j)*(n-j)/(j+1), with 1/j = -(p // j)/(p mod j) mod p.
    """
    inv = [0, 1]
    for j in range(2, n + 1):
        inv.append(-(p // j) * inv[p % j] % p)
    c = [(-1) ** n % p]
    for j in range(n):
        c.append(-c[j] * (n - j) * inv[j + 1] % p)
    return c


def z_minus_one_pow(ctx: ReductionContext, k: int) -> Poly:
    """(z-1)^k over F_q, digit by digit in base p.

    In characteristic p, (z-1)^(a + b*p) = (z-1)^a * (z^p - 1)^b, so (z-1)^k
    is the product over the base-p digits k_i of k of (z^(p^i) - 1)^(k_i).
    The factors' terms never overlap, so each product is an outer product.
    """
    p = ctx.p
    k, n = divmod(k, p)
    coeffs = np.array(_minus_one_binomials(n, p), np.int64)
    step = p                          # p^i; coeffs has at most step terms
    while k:
        k, n = divmod(k, p)
        if n:
            spread = np.zeros((n + 1, step), np.int64)
            spread[:, :len(coeffs)] = np.outer(_minus_one_binomials(n, p), coeffs) % p
            coeffs = spread.ravel()[: n * step + len(coeffs)]
        step *= p
    v = np.zeros((len(coeffs), ctx.d), np.int64)
    v[:, 0] = coeffs
    return Poly(ctx, v)


# ---------------------------------------------------------------------------


class PoleFraction:
    """num / (z^a (z-1)^b): rational functions with poles in {0, 1, infinity}.

    Kept as built, never reduced, so no operation pays for dividing out
    the factors of z and z - 1 that cancel.  Equality cross-multiplies;
    instances are unhashable.
    """

    __slots__ = ("num", "a", "b")

    def __init__(self, num: Poly, a: int = 0, b: int = 0):
        ctx = num.ctx
        if a < 0:
            num = num.shift(-a)
            a = 0
        if b < 0:
            num = num * z_minus_one_pow(ctx, -b)
            b = 0
        self.num, self.a, self.b = num, a, b

    @property
    def ctx(self):
        return self.num.ctx

    @classmethod
    def zero(cls, ctx) -> "PoleFraction":
        return cls(Poly.zero(ctx))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _over(self, a: int, b: int) -> Poly:
        """The numerator over the larger denominator z^a (z-1)^b."""
        num = self.num.shift(a - self.a)
        return num if b == self.b else num * z_minus_one_pow(self.ctx, b - self.b)

    def __add__(self, other: "PoleFraction") -> "PoleFraction":
        a, b = max(self.a, other.a), max(self.b, other.b)
        return PoleFraction(self._over(a, b) + other._over(a, b), a, b)

    def __sub__(self, other: "PoleFraction") -> "PoleFraction":
        return self + (-other)

    def __neg__(self) -> "PoleFraction":
        return PoleFraction(-self.num, self.a, self.b)

    def __mul__(self, other: "PoleFraction") -> "PoleFraction":
        return PoleFraction(self.num * other.num, self.a + other.a, self.b + other.b)

    def __eq__(self, other):
        if not isinstance(other, PoleFraction):
            return False
        a, b = max(self.a, other.a), max(self.b, other.b)
        return self._over(a, b) == other._over(a, b)

    def __repr__(self):
        return f"PoleFraction({self.num!r} / z^{self.a}(z-1)^{self.b})"
