"""Dense univariate polynomial arithmetic over F_{p^d} coefficients.

Three shapes of object live here:

* :class:`Poly` -- ordinary polynomials, lowest degree first;
* :class:`LaurentPoly` -- polynomials times a power of z (poles at 0 only);
* :class:`PoleFraction` -- num / (z^a (z-1)^b), the shape every entry of
  the transition matrix and its diagonalising frames takes.

Everything is exact; degrees stay below a few thousand, so the dense
quadratic algorithms are the right tool.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Iterable

from .errors import DivisionByZeroPoly
from .fields import FieldElement, ReductionContext

NEG_INF = float("-inf")


class Poly:
    """Polynomial with FieldElement coefficients, stored as a vec tuple."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: ReductionContext, vecs: Iterable = ()):
        v = list(vecs)
        while v and ctx.f_is_zero(v[-1]):
            v.pop()
        self.ctx = ctx
        self.v = tuple(v)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: ReductionContext) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: ReductionContext) -> "Poly":
        return cls(ctx, (ctx.one.vec,))

    @classmethod
    def from_ints(cls, ctx: ReductionContext, ints: Iterable[int]) -> "Poly":
        return cls(ctx, (ctx.f_from_int(n).vec for n in ints))

    @classmethod
    def from_elements(cls, ctx: ReductionContext, elems: Iterable[FieldElement]) -> "Poly":
        return cls(ctx, (e.vec for e in elems))

    @classmethod
    def monomial(cls, ctx: ReductionContext, k: int, coeff=None) -> "Poly":
        c = ctx.one.vec if coeff is None else coeff
        return cls(ctx, (ctx.zero.vec,) * k + (c,))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.v) - 1 if self.v else NEG_INF

    def is_zero(self) -> bool:
        return not self.v

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < len(self.v):
            return FieldElement(self.ctx, self.v[i])
        return self.ctx.zero

    def coeff_vec(self, i: int):
        if 0 <= i < len(self.v):
            return self.v[i]
        return self.ctx.zero.vec

    def coeffs(self) -> list[FieldElement]:
        return [FieldElement(self.ctx, c) for c in self.v]

    def lead(self) -> FieldElement:
        if not self.v:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self.v[-1])

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        a, b = self.v, other.v
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, bv in enumerate(b):
            out[i] = ctx.fadd(out[i], bv)
        return Poly(ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        n = max(len(self.v), len(other.v))
        z = ctx.zero.vec
        out = [ctx.fsub(self.v[i] if i < len(self.v) else z,
                        other.v[i] if i < len(other.v) else z)
               for i in range(n)]
        return Poly(ctx, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, (ctx.fneg(c) for c in self.v))

    def __mul__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        a, b = self.v, other.v
        if not a or not b:
            return Poly.zero(ctx)
        if ctx.d == 1:
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            p = ctx.p
            return Poly(ctx, (c % p for c in out))
        out = [ctx.zero.vec] * (len(a) + len(b) - 1)
        fz, fm, fa = ctx.f_is_zero, ctx.fmul, ctx.fadd
        for i, ai in enumerate(a):
            if not fz(ai):
                for j, bj in enumerate(b):
                    out[i + j] = fa(out[i + j], fm(ai, bj))
        return Poly(ctx, out)

    def scale(self, c) -> "Poly":
        """Multiply by a scalar (FieldElement or raw vec)."""
        ctx = self.ctx
        cv = c.vec if isinstance(c, FieldElement) else c
        if ctx.f_is_zero(cv):
            return Poly.zero(ctx)
        return Poly(ctx, (ctx.fmul(cv, a) for a in self.v))

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k (k >= 0) or divide exactly by z^k (k < 0)."""
        ctx = self.ctx
        if self.is_zero():
            return self
        if k >= 0:
            return Poly(ctx, (ctx.zero.vec,) * k + self.v)
        if any(not ctx.f_is_zero(c) for c in self.v[:-k]):
            raise ValueError("not divisible by z^k")
        return Poly(ctx, self.v[-k:])

    def __pow__(self, e: int) -> "Poly":
        result = Poly.one(self.ctx)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.lead().inverse())

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx is other.ctx
                and self.v == other.v)

    def __hash__(self):
        return hash((id(self.ctx), self.v))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k in range(len(self.v) - 1, -1, -1):
            c = FieldElement(self.ctx, self.v[k])
            if c.is_zero():
                continue
            cs = c.to_string()
            if k == 0:
                terms.append(cs)
            else:
                zs = "z" if k == 1 else f"z^{k}"
                terms.append(zs if cs == "1" else f"({cs})*{zs}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- evaluation ------------------------------------------------------------

    def eval(self, x: FieldElement) -> FieldElement:
        ctx = self.ctx
        acc = ctx.zero.vec
        for c in reversed(self.v):
            acc = ctx.fadd(ctx.fmul(acc, x.vec), c)
        return FieldElement(ctx, acc)

    def eval_ext(self, ext, point):
        """Horner evaluation at one point of a FieldExtension of the context."""
        acc = ext.embed(self.ctx.zero.vec)
        for c in reversed(self.v):
            acc = (ext.mul(acc, point) + ext.embed(c)) % self.ctx.p
        return acc

    # -- structure around z = a --------------------------------------------------

    def synthetic_div(self, a: FieldElement) -> tuple["Poly", FieldElement]:
        """Divide by (z - a): returns (quotient, remainder value)."""
        ctx = self.ctx
        if self.is_zero():
            return self, ctx.zero
        acc = ctx.zero.vec
        out = [None] * (len(self.v) - 1)
        for i in range(len(self.v) - 1, 0, -1):
            acc = ctx.fadd(ctx.fmul(acc, a.vec), self.v[i])
            out[i - 1] = acc
        rem = ctx.fadd(ctx.fmul(acc, a.vec), self.v[0])
        return Poly(ctx, out), FieldElement(ctx, rem)

    def order_at_one(self) -> int:
        """Multiplicity of z = 1 as a root; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        one = self.ctx.one
        k, cur = 0, self
        while True:
            q, r = cur.synthetic_div(one)
            if not r.is_zero():
                return k
            k += 1
            cur = q

    def divexact_one_pow(self, k: int) -> "Poly":
        """Exact division by (z-1)^k."""
        cur = self
        one = self.ctx.one
        for _ in range(k):
            q, r = cur.synthetic_div(one)
            if not r.is_zero():
                raise ValueError("not divisible by the requested power of (z-1)")
            cur = q
        return cur

    def taylor_at_one(self) -> "Poly":
        """Coefficients of self(s+1) in s: the Taylor expansion at z = 1."""
        ctx = self.ctx
        if self.is_zero():
            return self
        out = []
        cur = self
        one = ctx.one
        while not cur.is_zero():
            cur, r = cur.synthetic_div(one)
            out.append(r.vec)
        return Poly(ctx, out)


# ---------------------------------------------------------------------------


def poly_divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """School division: f = q*g + r with deg r < deg g."""
    if g.is_zero():
        raise DivisionByZeroPoly("division by the zero polynomial")
    ctx = f.ctx
    if f.degree < g.degree:
        return Poly.zero(ctx), f
    inv_lead = ctx.finv(g.v[-1])
    rem = list(f.v)
    dg = len(g.v) - 1
    qcoeffs = [ctx.zero.vec] * (len(rem) - dg)
    fz, fm, fs = ctx.f_is_zero, ctx.fmul, ctx.fsub
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        if fz(c):
            continue
        c = fm(c, inv_lead)
        qcoeffs[top - dg] = c
        base = top - dg
        for j, gv in enumerate(g.v):
            if not fz(gv):
                rem[base + j] = fs(rem[base + j], fm(c, gv))
    return Poly(ctx, qcoeffs), Poly(ctx, rem[:dg])


def poly_divexact(f: Poly, g: Poly) -> Poly:
    q, r = poly_divrem(f, g)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (gcd monic, u, v) with u*f + v*g = gcd."""
    ctx = f.ctx
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = f, g
    u0, u1 = Poly.one(ctx), Poly.zero(ctx)
    v0, v1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero():
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead_inv = r0.lead().inverse()
    return r0.scale(lead_inv), u0.scale(lead_inv), v0.scale(lead_inv)


@functools.lru_cache(maxsize=None)
def z_minus_one_pow(ctx: ReductionContext, k: int) -> Poly:
    """(z-1)^k over F_q, via binomial coefficients reduced mod p."""
    p = ctx.p
    return Poly.from_ints(ctx, (comb(k, j) * (-1) ** (k - j) % p for j in range(k + 1)))


def series_div_at_one(V: Poly, H: Poly, k: int) -> Poly:
    """The unique t with t = V/H mod (z-1)^k and deg t < k.

    Requires H(1) != 0.  Computed by inverting H as a power series in
    s = z - 1 to order k.
    """
    ctx = V.ctx
    if k <= 0:
        return Poly.zero(ctx)
    vs = V.taylor_at_one()
    hs = H.taylor_at_one()
    h0 = hs.coeff(0)
    if h0.is_zero():
        raise ZeroDivisionError("series division by a function vanishing at z = 1")
    inv0 = h0.inverse()
    inv = [inv0.vec]
    for n in range(1, k):
        acc = ctx.zero.vec
        for i in range(1, n + 1):
            acc = ctx.fadd(acc, ctx.fmul(hs.coeff_vec(i), inv[n - i]))
        inv.append(ctx.fneg(ctx.fmul(inv0.vec, acc)))
    ts = [ctx.zero.vec] * k
    for n in range(k):
        acc = ctx.zero.vec
        for i in range(n + 1):
            acc = ctx.fadd(acc, ctx.fmul(vs.coeff_vec(i), inv[n - i]))
        ts[n] = acc
    # shift back: t(z) = sum ts[n] (z-1)^n
    t = Poly.zero(ctx)
    for n in range(k - 1, -1, -1):
        t = t * z_minus_one_pow(ctx, 1) + Poly(ctx, (ts[n],))
    return t


# ---------------------------------------------------------------------------


class LaurentPoly:
    """A polynomial times z^val: elements of F_q[z, 1/z].

    Canonical form keeps the lowest stored coefficient nonzero (unless zero).
    """

    __slots__ = ("poly", "val")

    def __init__(self, poly: Poly, val: int = 0):
        if poly.is_zero():
            self.poly, self.val = poly, 0
            return
        k = 0
        while poly.ctx.f_is_zero(poly.v[k]):
            k += 1
        self.poly = poly.shift(-k) if k else poly
        self.val = val + k

    @property
    def ctx(self):
        return self.poly.ctx

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def valuation(self):
        return NEG_INF if self.is_zero() else self.val

    def coeff(self, k: int) -> FieldElement:
        return self.poly.coeff(k - self.val)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        v = min(self.val, other.val)
        return LaurentPoly(self.poly.shift(self.val - v) + other.poly.shift(other.val - v), v)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(-self.poly, self.val)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.poly * other.poly, self.val + other.val)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.poly == other.poly
                and self.val == other.val)

    def __hash__(self):
        return hash((self.poly, self.val))

    def __repr__(self):
        return f"LaurentPoly({self.poly!r}, z^{self.val})"


class PoleFraction:
    """num / (z^a (z-1)^b): rational functions with poles in {0, 1, infinity}.

    Fully reduced on construction, so equality is structural.
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
        if num.is_zero():
            self.num, self.a, self.b = num, 0, 0
            return
        while a > 0 and ctx.f_is_zero(num.v[0]):
            num = num.shift(-1)
            a -= 1
        one = ctx.one
        while b > 0:
            q, r = num.synthetic_div(one)
            if not r.is_zero():
                break
            num, b = q, b - 1
        self.num, self.a, self.b = num, a, b

    @property
    def ctx(self):
        return self.num.ctx

    @classmethod
    def zero(cls, ctx) -> "PoleFraction":
        return cls(Poly.zero(ctx))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "PoleFraction") -> "PoleFraction":
        a, b = max(self.a, other.a), max(self.b, other.b)
        ctx = self.ctx
        left = self.num.shift(a - self.a) * z_minus_one_pow(ctx, b - self.b)
        right = other.num.shift(a - other.a) * z_minus_one_pow(ctx, b - other.b)
        return PoleFraction(left + right, a, b)

    def __sub__(self, other: "PoleFraction") -> "PoleFraction":
        return self + (-other)

    def __neg__(self) -> "PoleFraction":
        return PoleFraction(-self.num, self.a, self.b)

    def __mul__(self, other: "PoleFraction") -> "PoleFraction":
        return PoleFraction(self.num * other.num, self.a + other.a, self.b + other.b)

    def __eq__(self, other):
        return (isinstance(other, PoleFraction) and self.num == other.num
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.num, self.a, self.b))

    def __repr__(self):
        return f"PoleFraction({self.num!r} / z^{self.a}(z-1)^{self.b})"

    def eval_ext(self, ext, point):
        """Exact value at a point with point not in {0, 1}."""
        val = self.num.eval_ext(ext, point)
        if self.a:
            val = ext.mul(val, ext.pow(point, -self.a))
        if self.b:
            shifted = (point - ext.one) % self.ctx.p
            val = ext.mul(val, ext.pow(shifted, -self.b))
        return val
