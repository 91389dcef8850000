"""Exact arithmetic in F_{p^d} and in the characteristic-p² ring lifting it.

The length-2 Witt ring of F_{p^d} is realised as a Galois ring: integers
mod p² reduced by a fixed monic modulus whose image mod p is irreducible.
Ring operations are then ordinary polynomial arithmetic; Witt coordinates
(Teichmueller part, p-part) are recovered on demand.

An element is stored as its coefficient "vec", a length-d tuple of ints
at every d, d = 1 included; a sequence of elements (polynomial
coefficients, matrix entries) is an int64 array whose trailing axis has
length d.  One reduction table per modulus multiplies both.  The wrapper
classes :class:`FieldElement` and :class:`WittRingElement` expose
operators on top of the vec layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .errors import DegreeOutOfRange, EvenPrime, ForbiddenResidue, NotPrime

WittConvention = Literal["standard", "twisted"]

MAX_EXTENSION_DEGREE = 4

_TEICHMULLER_ITERATION_CAP = 8


def is_prime(n: int) -> bool:
    """Trial-division primality test; ample for the supported prime range."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_convention(convention: str) -> str:
    if convention not in ("standard", "twisted"):
        raise ValueError(f"unknown Witt convention {convention!r}")
    return convention


# ---------------------------------------------------------------------------
# int-list polynomial helpers over F_p (lowest degree first), used only for
# modulus selection.


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - c * mj) % p
        _ptrim(a)
    return a


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(list(base), m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), m, p)
        acc = _pmod(_pmul(acc, acc, p), m, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Irreducibility over F_p via the distinct-degree criterion."""
    d = len(coeffs) - 1
    if d == 1:
        return True
    x = [0, 1]
    # x^(p^d) == x mod f
    t = x
    for _ in range(d):
        t = _ppowmod(t, p, coeffs, p)
    if _ptrim([(ti - xi) % p for ti, xi in
               zip(t + [0] * len(x), x + [0] * len(t))]):
        return False
    for r in {f for f in (2, 3) if d % f == 0}:
        t = x
        for _ in range(d // r):
            t = _ppowmod(t, p, coeffs, p)
        diff = _ptrim([(a - b) % p for a, b in
                       zip(t + [0] * len(x), x + [0] * len(t))])
        g = _pgcd(list(coeffs), diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def _digits(n: int, base: int, d: int) -> tuple[int, ...]:
    """The d lowest base-`base` digits of n, least significant first."""
    out = []
    for _ in range(d):
        n, r = divmod(n, base)
        out.append(r)
    return tuple(out)


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree d over F_p.

    Candidates x^d + c_{d-1} x^{d-1} + ... + c_0 are ordered by the integer
    sum(c_i p^i), so the choice is reproducible bit for bit.
    """
    for n in range(p ** d):
        m = list(_digits(n, p, d)) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible modulus found")  # unreachable


def _reduction_table(modulus: tuple[int, ...], mod: int) -> np.ndarray:
    """x^d .. x^(2d-2) reduced by the monic modulus, mod `mod`: shape (d-1, d)."""
    d = len(modulus) - 1
    cur = [(-c) % mod for c in modulus[:d]]  # x^d
    rows = []
    for _ in range(d - 1):
        rows.append(cur)
        top = cur[-1]
        cur = [(low + top * r) % mod for low, r in zip([0] + cur[:-1], rows[0])]
    return np.array(rows, np.int64).reshape(d - 1, d)


def _vec_ops(mod: int, red: list[list[int]]):
    """add, sub, neg, mul on length-d int tuples mod `mod`, reducing by `red`."""
    d = len(red) + 1

    def add(a, b):
        return tuple([(x + y) % mod for x, y in zip(a, b)])

    def sub(a, b):
        return tuple([(x - y) % mod for x, y in zip(a, b)])

    def neg(a):
        return tuple([-x % mod for x in a])

    def mul(a, b):
        t = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    t[i + j] += ai * bj
        for k, row in enumerate(red, d):
            if t[k]:
                for j, r in enumerate(row):
                    t[j] += t[k] * r
        return tuple([x % mod for x in t[:d]])

    return add, sub, neg, mul


# ---------------------------------------------------------------------------


class ReductionContext:
    """A prime p >= 3, extension degree d, and the rings they induce.

    Holds the fixed modulus (lifted to mod p²) and the one multiplication
    rule it induces, the reduction table of x^d .. x^(2d-2) mod p and mod
    p².  The tuple closures for F_q and the Galois ring, the array fold of
    polynomial products and the basis products behind matrix blow-ups all
    read that table.
    """

    def __init__(self, p: int, d: int):
        if not isinstance(p, int) or not isinstance(d, int):
            raise TypeError("p and d must be integers")
        if p == 2:
            raise EvenPrime("p = 2 is not supported")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if not 1 <= d <= MAX_EXTENSION_DEGREE:
            raise DegreeOutOfRange(f"extension degree {d} outside 1..{MAX_EXTENSION_DEGREE}")
        self.p = p
        self.d = d
        self.q = p ** d
        self.p2 = p * p
        self.modulus = _find_modulus(p, d)  # monic, length d+1, entries mod p
        red_p = _reduction_table(self.modulus, p)
        self.fadd, self.fsub, self.fneg, self.fmul = _vec_ops(p, red_p.tolist())
        self.wadd, self.wsub, self.wneg, self.wmul = _vec_ops(
            self.p2, _reduction_table(self.modulus, self.p2).tolist())
        # row k of the fold matrix is x^k reduced, k < 2d-1
        self.fold_matrix = np.concatenate([np.eye(d, dtype=np.int64), red_p])
        # basis_products[i, k] holds x^(i+k) reduced: the regular representation
        self.basis_products = self.fold_matrix[np.add.outer(np.arange(d), np.arange(d))]
        self.zero = self.f_from_int(0)
        self.one = self.f_from_int(1)

    # -- vec arithmetic ----------------------------------------------------

    def fold(self, t: np.ndarray) -> np.ndarray:
        """Reduce unreduced products (..., 2d-1) to field coordinates (..., d)."""
        return t % self.p @ self.fold_matrix % self.p

    def mul_matrix(self, c) -> np.ndarray:
        """(d, d) matrix M with v @ M = v * c for every vec v."""
        d = self.d
        return (np.asarray(c, np.int64) @ self.basis_products.reshape(d, d * d)
                ).reshape(d, d) % self.p

    def fpow(self, a, e: int):
        result = self.one.vec
        acc = a
        while e:
            if e & 1:
                result = self.fmul(result, acc)
            acc = self.fmul(acc, acc)
            e >>= 1
        return result

    def wpow(self, a, e: int):
        result = self.w_from_int(1).vec
        acc = a
        while e:
            if e & 1:
                result = self.wmul(result, acc)
            acc = self.wmul(acc, acc)
            e >>= 1
        return result

    def finv(self, a):
        """a^-1 = a^(r-1) / N(a): the norm N(a) = a^r, r = (q-1)/(p-1), lies in F_p."""
        if self.f_is_zero(a):
            raise ZeroDivisionError("inverse of zero field element")
        b = self.fpow(a, (self.q - 1) // (self.p - 1) - 1)
        s = pow(self.fmul(a, b)[0], -1, self.p)
        return tuple([x * s % self.p for x in b])

    def winv(self, a):
        res = self.w_residue(a)
        if self.f_is_zero(res):
            raise ZeroDivisionError("element not invertible in the Witt ring")
        y = self.f_lift(self.finv(res))
        two = self.w_from_int(2).vec
        # one Newton step lifts an inverse mod p to an inverse mod p²
        return self.wmul(y, self.wsub(two, self.wmul(a, y)))

    # -- conversions ---------------------------------------------------------

    @staticmethod
    def f_is_zero(a) -> bool:
        return not any(a)

    w_is_zero = f_is_zero

    def f_lift(self, a):
        """Coefficientwise lift of a field vec to a Witt vec."""
        return a

    def w_residue(self, a):
        return tuple([x % self.p for x in a])

    def w_times_p(self, a):
        return tuple([x * self.p % self.p2 for x in a])

    def w_divexact_p(self, a):
        """Divide a Witt vec by p; the result is a field vec.

        Requires every coordinate divisible by p.
        """
        if any(x % self.p for x in a):
            raise ValueError("vec not divisible by p")
        return tuple([x // self.p for x in a])

    def f_from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (n % self.p,) + (0,) * (self.d - 1))

    def w_from_int(self, n: int) -> "WittRingElement":
        return WittRingElement(self, (n % self.p2,) + (0,) * (self.d - 1))

    def f_from_coeffs(self, coeffs) -> "FieldElement":
        c = [x % self.p for x in coeffs] + [0] * self.d
        return FieldElement(self, tuple(c[: self.d]))

    def w_from_coeffs(self, coeffs) -> "WittRingElement":
        c = [x % self.p2 for x in coeffs] + [0] * self.d
        return WittRingElement(self, tuple(c[: self.d]))

    def f_from_index(self, n: int) -> "FieldElement":
        """n-th field element in the canonical enumeration (base-p digits)."""
        return FieldElement(self, _digits(n, self.p, self.d))

    def f_index(self, a) -> int:
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def field_elements(self) -> Iterator["FieldElement"]:
        for n in range(self.q):
            yield self.f_from_index(n)

    def witt_elements(self) -> Iterator["WittRingElement"]:
        for n in range(self.q * self.q):
            yield WittRingElement(self, _digits(n, self.p2, self.d))

    # -- square roots in F_q -------------------------------------------------

    def f_is_square(self, a) -> bool:
        if self.f_is_zero(a):
            return True
        one = self.one.vec
        return self.fpow(a, (self.q - 1) // 2) == one

    def f_nonsquare(self):
        for n in range(1, self.q):
            v = self.f_from_index(n).vec
            if not self.f_is_square(v):
                return v
        raise AssertionError("no non-square found")  # unreachable for q odd

    def f_sqrt(self, a):
        """Tonelli-Shanks square root in F_q; None when a is a non-square."""
        if self.f_is_zero(a):
            return a
        if not self.f_is_square(a):
            return None
        q = self.q
        s, m = q - 1, 0
        while s % 2 == 0:
            s //= 2
            m += 1
        if m == 1:
            return self.fpow(a, (q + 1) // 4)
        c = self.fpow(self.f_nonsquare(), s)
        t = self.fpow(a, s)
        r = self.fpow(a, (s + 1) // 2)
        one = self.one.vec
        while t != one:
            t2, i = t, 0
            while t2 != one:
                t2 = self.fmul(t2, t2)
                i += 1
            b = c
            for _ in range(m - i - 1):
                b = self.fmul(b, b)
            m = i
            c = self.fmul(b, b)
            t = self.fmul(t, c)
            r = self.fmul(r, b)
        return r

    def extension(self, degree: int):
        """Retired: certificates are checked exactly, in no extension field.

        ``perfbench/hooks.py`` still wraps this method by name when it traces
        a pass, so the name stays until that hook entry is dropped.
        """
        raise NotImplementedError("no evaluation extension: certificates are checked exactly")

    def __repr__(self):
        return f"ReductionContext(p={self.p}, d={self.d})"


@functools.lru_cache(maxsize=None)
def make_context(p: int, d: int = 1) -> ReductionContext:
    """Context for F_{p^d} with a deterministically chosen modulus."""
    return ReductionContext(p, d)


# ---------------------------------------------------------------------------


def _vec_string(coeffs: list[int], sym: str) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}{sym}" if k == 1 else f"{head}{sym}^{k}")
    return "+".join(terms) if terms else "0"


class FieldElement:
    """An element of F_{p^d}, stored as a coefficient vec."""

    __slots__ = ("ctx", "vec")

    def __init__(self, ctx: ReductionContext, vec):
        self.ctx = ctx
        self.vec = vec

    def __add__(self, other):
        return FieldElement(self.ctx, self.ctx.fadd(self.vec, other.vec))

    def __sub__(self, other):
        return FieldElement(self.ctx, self.ctx.fsub(self.vec, other.vec))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.fneg(self.vec))

    def __mul__(self, other):
        return FieldElement(self.ctx, self.ctx.fmul(self.vec, other.vec))

    def __truediv__(self, other):
        return FieldElement(self.ctx, self.ctx.fmul(self.vec, self.ctx.finv(other.vec)))

    def __pow__(self, e: int):
        if e < 0:
            return FieldElement(self.ctx, self.ctx.fpow(self.ctx.finv(self.vec), -e))
        return FieldElement(self.ctx, self.ctx.fpow(self.vec, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.finv(self.vec))

    def is_zero(self) -> bool:
        return self.ctx.f_is_zero(self.vec)

    def frobenius(self) -> "FieldElement":
        if self.ctx.d == 1:
            return self
        return self ** self.ctx.p

    def frobenius_inverse(self) -> "FieldElement":
        if self.ctx.d == 1:
            return self
        return self ** (self.ctx.p ** (self.ctx.d - 1))

    def coeffs(self) -> list[int]:
        return list(self.vec)

    def index(self) -> int:
        return self.ctx.f_index(self.vec)

    def lift(self) -> "WittRingElement":
        return WittRingElement(self.ctx, self.ctx.f_lift(self.vec))

    def to_string(self, sym: str = "u") -> str:
        return _vec_string(self.coeffs(), sym)

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.ctx is other.ctx
                and self.vec == other.vec)

    def __hash__(self):
        return hash((id(self.ctx), self.vec))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"F({self.to_string()})"


class WittRingElement:
    """An element of the characteristic-p² Galois ring over the context."""

    __slots__ = ("ctx", "vec")

    def __init__(self, ctx: ReductionContext, vec):
        self.ctx = ctx
        self.vec = vec

    def __add__(self, other):
        return WittRingElement(self.ctx, self.ctx.wadd(self.vec, other.vec))

    def __sub__(self, other):
        return WittRingElement(self.ctx, self.ctx.wsub(self.vec, other.vec))

    def __neg__(self):
        return WittRingElement(self.ctx, self.ctx.wneg(self.vec))

    def __mul__(self, other):
        return WittRingElement(self.ctx, self.ctx.wmul(self.vec, other.vec))

    def __pow__(self, e: int):
        return WittRingElement(self.ctx, self.ctx.wpow(self.vec, e))

    def inverse(self) -> "WittRingElement":
        return WittRingElement(self.ctx, self.ctx.winv(self.vec))

    def is_zero(self) -> bool:
        return self.ctx.w_is_zero(self.vec)

    def residue(self) -> FieldElement:
        return FieldElement(self.ctx, self.ctx.w_residue(self.vec))

    def coeffs(self) -> list[int]:
        return list(self.vec)

    def to_string(self, sym: str = "u") -> str:
        return _vec_string(self.coeffs(), sym)

    def __eq__(self, other):
        return (isinstance(other, WittRingElement) and self.ctx is other.ctx
                and self.vec == other.vec)

    def __hash__(self):
        return hash((id(self.ctx), "w", self.vec))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"W({self.to_string()})"


@dataclass(frozen=True)
class WittParameter:
    """A lifted parameter with its Witt coordinates under a fixed convention."""

    witt: WittRingElement
    lam0: FieldElement
    lam1: FieldElement
    convention: str


# ---------------------------------------------------------------------------
# Witt-layer operations


def teichmuller(x0: FieldElement) -> WittRingElement:
    """Multiplicative lift of x0: the fixed point of q-th powering mod p²."""
    ctx = x0.ctx
    w = ctx.f_lift(x0.vec)
    for _ in range(_TEICHMULLER_ITERATION_CAP):
        nxt = ctx.wpow(w, ctx.q)
        if nxt == w:
            return WittRingElement(ctx, w)
        w = nxt
    raise AssertionError("Teichmueller iteration did not stabilise")


def frobenius_w2(x: WittRingElement) -> WittRingElement:
    """Ring endomorphism lifting the p-power map.

    On tau(a) + p*b it gives tau(a^p) + p*(b^p); the identity when d = 1.
    """
    ctx = x.ctx
    if ctx.d == 1:
        return x
    a = x.residue()
    t = teichmuller(a)
    b = FieldElement(ctx, ctx.w_divexact_p(ctx.wsub(x.vec, t.vec)))
    head = teichmuller(a.frobenius())
    tail = ctx.w_times_p(ctx.f_lift(b.frobenius().vec))
    return WittRingElement(ctx, ctx.wadd(head.vec, tail))


def _check_residue(lam0: FieldElement):
    if lam0.is_zero() or lam0 == lam0.ctx.one:
        raise ForbiddenResidue("reduction of the parameter lies in {0, 1}")


def witt_decompose(lam: WittRingElement, convention: WittConvention = "standard") -> WittParameter:
    """Split a lifted parameter into coordinates (lam0, lam1).

    standard: lam1 is the residue of (lam - tau(lam0)) / p.
    twisted:  additionally applies the inverse residue-field Frobenius,
              recovering the Verschiebung-normalised Witt coordinate.
    The two conventions coincide when d = 1.
    """
    check_convention(convention)
    ctx = lam.ctx
    lam0 = lam.residue()
    _check_residue(lam0)
    t = teichmuller(lam0)
    mu = FieldElement(ctx, ctx.w_divexact_p(ctx.wsub(lam.vec, t.vec)))
    lam1 = mu if convention == "standard" else mu.frobenius_inverse()
    return WittParameter(witt=lam, lam0=lam0, lam1=lam1, convention=convention)


def witt_compose(lam0: FieldElement, lam1: FieldElement,
                 convention: WittConvention = "standard") -> WittRingElement:
    """Inverse of :func:`witt_decompose`; exact round-trip both ways."""
    check_convention(convention)
    _check_residue(lam0)
    ctx = lam0.ctx
    mu = lam1 if convention == "standard" else lam1.frobenius()
    t = teichmuller(lam0)
    return WittRingElement(ctx, ctx.wadd(t.vec, ctx.w_times_p(ctx.f_lift(mu.vec))))

