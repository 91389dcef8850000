"""Dense univariate polynomial arithmetic over F_p or F_{p²} coefficients.

A :class:`Poly` holds its coefficients, lowest degree first, as one int64
array of shape (n, d).  There is no fraction type.  Everything is exact.
Products are integer convolutions of coordinate columns
(:func:`convolve_into`), left unreduced in 2d - 1 columns (column k holds
the x^k part) until one fold by the context; each sum has at most n*d
terms below p^2, inside int64 for every supported p.  A signed sum of
several products can share one such buffer and one fold, which is how the
birkhoff certificate check proves its identities without building a
polynomial.  Divisions update whole coefficient slices; degrees stay below
a few thousand, so the dense quadratic algorithms are the right tool.
The modulus that birkhoff's Euclid and the t method's remainder system
reduce by is G = g(z^p) for a monic quadratic g (:func:`euclid_modulus`,
its one definition), so G has three terms, and division by it
(:func:`divrem_modulus`) moves a block of p coefficients per step.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (DivisionByZeroPoly, InternalDivisibilityFailure,
                     InternalInvariantFailure)
from .fields import FieldElement, ReductionContext
from .linalg import stack_slices

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
        """The unreduced convolution of :func:`convolve_into`, then one fold."""
        ctx = self.ctx
        a, b = self.v, other.v
        if not len(a) or not len(b):
            return Poly.zero(ctx)
        t = np.zeros((len(a) + len(b) - 1, 2 * ctx.d - 1), np.int64)
        convolve_into(t, a, b)
        return Poly(ctx, ctx.fold(t))

    def scale(self, c) -> "Poly":
        """Multiply by a scalar (FieldElement or raw vec)."""
        cv = c.vec if isinstance(c, FieldElement) else c
        return Poly(self.ctx, self.v @ self.ctx.mul_matrix(cv) % self.ctx.p)

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k (k >= 0) or divide exactly by z^k (k < 0)."""
        if self.is_zero() or k == 0:
            return self
        if k > 0:
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


def convolve_into(out: np.ndarray, a: np.ndarray, b: np.ndarray, sign: int = 1) -> None:
    """Add sign * a*b, unreduced, to the leading rows of out.

    a and b are coefficient arrays (n, d) and (m, d); out has 2d - 1
    columns and at least n + m - 1 rows.  Column k of the product is the
    sum over i + j = k of the integer convolutions of a's coordinate i
    with b's coordinate j: the x^k part before the context's fold.  An
    empty operand adds nothing.

    a, b and out may also be stacks (s, n, d), (s, m, d) and (s, rows,
    2d - 1), row i of out taking a[i]*b[i].  A stack of one is
    ``np.convolve`` like a single product.  A larger stack takes one
    windowed product per slice of ``linalg.stack_slices``: b, zero-padded
    by n - 1 on each side, seen through a sliding window of n
    coefficients, times a reversed, which puts every coordinate pair of
    every row's product in one (s, n + m - 1, d, d) result.
    """
    la, lb = a.shape[-2], b.shape[-2]
    if not la or not lb:
        return
    n = la + lb - 1
    d = a.shape[-1]
    if a.ndim == 2 or len(a) == 1:
        if a.ndim == 3:
            a, b, out = a[0], b[0], out[0]
        for i in range(d):
            for j in range(d):
                out[:n, i + j] += sign * np.convolve(a[:, i], b[:, j])
        return
    for part in stack_slices(len(a), n * la * d):
        pad = np.zeros((len(a[part]), lb + 2 * (la - 1), d), np.int64)
        pad[:, la - 1:la - 1 + lb] = b[part]
        # window k, coordinate j, place t holds b's coefficient k - (la - 1) + t
        rows, step, col = pad.strides
        windows = as_strided(pad, (len(pad), n, d, la), (rows, step, col, step), writeable=False)
        prod = windows @ a[part, None, ::-1]
        if sign < 0:
            np.negative(prod, out=prod)
        for i in range(d):
            for j in range(d):
                out[part, :n, i + j] += prod[..., j, i]


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
    inv_lead = ctx.mul_matrix(ctx.finv(g.v[-1].tolist()))
    gx = (g.v @ ctx.basis_products % p).reshape(d, m * d)  # row i: x^i * g
    rem = f.v.ravel().copy()
    q = np.zeros((n - m + 1, d), np.int64)
    for base in range(n - m, -1, -1):
        c = rem[(base + m - 1) * d:(base + m) * d] @ inv_lead % p
        q[base] = c
        rem[base * d:(base + m) * d] -= c @ gx
    return Poly(ctx, q), Poly(ctx, rem[: (m - 1) * d] % p)


def euclid_modulus(ctx: ReductionContext) -> np.ndarray:
    """The rows (g0, g1, 1) of g(X) = X^2 + g1*X + g0, as a (3, d) int64 array.

    The one definition of the modulus G = g(z^p) that birkhoff's Euclid and
    the t method's remainder system reduce by: g = (X - 1)^2, so
    G = (z^p - 1)^2 = (z-1)^(2p) in characteristic p.
    """
    g = np.zeros((3, ctx.d), np.int64)
    g[:, 0] = (1, -2 % ctx.p, 1)
    return g


def divrem_modulus(f: np.ndarray, ctx: ReductionContext):
    """f = q*G + r with deg r < 2p, G = g(z^p), for every row of the stack
    f (n, L, d) of coefficient arrays over ctx, entries in [0, p), a block
    of p coefficients at a time.

    G = z^(2p) + g1*z^p + g0 (:func:`euclid_modulus`), so the top p
    coefficients of what is left to divide are their own quotient block:
    subtracting the block times G cancels it, subtracts g1 times the block
    p places lower (the next block down) and g0 times it 2p places lower.
    Those field products are coordinate by coordinate, against the block
    times 1, x, .., x^(d-1) (reduced mod p, like the block itself), so
    every entry receives at most two subtractions, each below d*p^2.
    Every row is divided at once: q (n, max(L - 2p, 0), d) and
    r (n, min(L, 2p), d) come back as arrays.
    """
    p = ctx.p
    hi = f.shape[1]
    g0, g1 = euclid_modulus(ctx)[:2].tolist()
    rem = f.copy()
    q = np.zeros((len(f), max(hi - 2 * p, 0), ctx.d), np.int64)
    while hi > 2 * p:
        lo = max(hi - p, 2 * p)
        block = rem[:, lo:hi] % p
        q[:, lo - 2 * p:hi - 2 * p] = block
        multiples = [block] + [block @ ctx.basis_products[col] % p for col in range(1, ctx.d)]
        for c0, c1, m in zip(g0, g1, multiples):
            if c1:
                rem[:, lo - p:hi - p] -= c1 * m
            if c0:
                rem[:, lo - 2 * p:hi - 2 * p] -= c0 * m
        hi = lo
    return q, rem[:, :2 * p] % p


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
