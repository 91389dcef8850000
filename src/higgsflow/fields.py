"""Exact arithmetic in F_p, F_{p²} and the characteristic-p² rings lifting them.

Beauville's parameters are rational or quadratic irrationals, so a
reduction lives in F_p (d = 1) or F_{p²} (d = 2) and no other degree is
built.  The length-2 Witt ring of F_q is realised as a Galois ring:
integers mod p² reduced by a fixed monic modulus whose image mod p is
irreducible, x at d = 1 and x² + c0 at d = 2.  Ring operations are then
ordinary polynomial arithmetic; Witt coordinates (Teichmueller part,
p-part) are recovered on demand, in the one Verschiebung-normalised
convention of :func:`witt_decompose`.

The modulus settles the rest in closed form.  The Frobenius of F_q and its
lift to the Galois ring both send x to -x (:func:`_frobenius`), so each
is an involution; the inverse is the conjugate over the norm; the
Teichmueller lift of a is the q-th power of any lift of a.

An element is stored as its coefficient "vec", a length-d tuple of ints
at every d, d = 1 included; a sequence of elements (polynomial
coefficients, matrix entries) is an int64 array whose trailing axis has
length d.  One reduction table per modulus multiplies both.  The wrapper
classes :class:`FieldElement` and :class:`WittRingElement` share one set
of operators on top of the vec layer.  A context is rebuilt on every
:func:`make_context` call, no cache holds it, and contexts compare by
(p, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (DegreeOutOfRange, EvenPrime, ForbiddenResidue,
                     InternalInvariantFailure, NotPrime)

MAX_EXTENSION_DEGREE = 2


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


def _digits(n: int, base: int, d: int) -> tuple[int, ...]:
    """The d lowest base-`base` digits of n, least significant first."""
    out = []
    for _ in range(d):
        n, r = divmod(n, base)
        out.append(r)
    return tuple(out)


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    """The monic modulus of F_{p^d}: x at d = 1, x^2 + c0 at d = 2.

    The modulus at d = 2 is the first irreducible x^2 + c1 x + c0 in the
    order c0 + c1 p, so the choice is reproducible bit for bit.  For odd p
    a monic quadratic is irreducible exactly when its discriminant
    c1^2 - 4 c0 is a non-square; with c1 = 0 that reads "-c0 is a
    non-square", which some c0 < p satisfies, so the first candidate has
    c1 = 0.
    """
    if d == 1:
        return (0, 1)
    c0 = next(c for c in range(1, p) if pow(-c, (p - 1) // 2, p) == p - 1)
    return (c0, 0, 1)


def _frobenius(a: tuple, mod: int) -> tuple:
    """The Frobenius of F_q (mod p) or of the Galois ring (mod p²): x -> -x.

    In F_q, x^p = x (x^2)^((p-1)/2) = x (-c0)^((p-1)/2) = -x, since -c0
    is a non-square.  The ring Frobenius sigma fixes Z/p², so sigma(x) is
    a root of y^2 + c0; its roots are +-x (Hensel: 2x is a unit), and
    sigma(x) = x^p = -x mod p.  So both negate coordinates 1..d-1, and at
    d = 1, where there are none, both are the identity.
    """
    return a[:1] + tuple([-x % mod for x in a[1:]])


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


def _power(mul, one, a, e: int):
    """a^e for e >= 0 by square-and-multiply under `mul`."""
    result, acc = one, a
    while e:
        if e & 1:
            result = mul(result, acc)
        acc = mul(acc, acc)
        e >>= 1
    return result


# ---------------------------------------------------------------------------


class ReductionContext:
    """A prime p >= 3, extension degree d in {1, 2}, and the rings they induce.

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
        """Reduce unreduced products (..., 2d-1) to field coordinates (..., d).

        t is reduced mod p in place, so it holds no copy beside the result.
        """
        np.remainder(t, self.p, out=t)
        out = t @ self.fold_matrix
        np.remainder(out, self.p, out=out)
        return out

    def mul_matrix(self, c) -> np.ndarray:
        """(d, d) matrix M with v @ M = v * c for every vec v.

        Row k of M is x^k * c.  A stack of vecs (..., d) gives a stack of
        matrices (..., d, d), all from one integer product.
        """
        d = self.d
        c = np.asarray(c, np.int64)
        return (c @ self.basis_products.reshape(d, d * d)
                ).reshape(c.shape[:-1] + (d, d)) % self.p

    def fpow(self, a, e: int):
        return _power(self.fmul, self.one.vec, a, e)

    def wpow(self, a, e: int):
        return _power(self.wmul, self.w_from_int(1).vec, a, e)

    def finv(self, a):
        """a^-1 = ā / N(a): the conjugate ā = a^p over the norm N(a) = a ā.

        N(a) is fixed by the Frobenius, an involution, so it lies in F_p; at
        d = 1, ā = a and N(a) = a^2.
        """
        if self.f_is_zero(a):
            raise ZeroDivisionError("inverse of zero field element")
        b = _frobenius(a, self.p)
        s = pow(self.fmul(a, b)[0], -1, self.p)
        return tuple([x * s % self.p for x in b])

    def finv_table(self) -> np.ndarray:
        """x^-1 mod p for x in 0..p-1, 0 for 0; built on every call."""
        return np.array([0] + [pow(x, -1, self.p) for x in range(1, self.p)], np.int64)

    def finv_stack(self, a: np.ndarray, table: np.ndarray) -> np.ndarray:
        """:meth:`finv` of every vec of a stack (n, d), 0 for 0, the norms
        inverted through ``table`` (:meth:`finv_table`)."""
        conj = a.copy()
        conj[:, 1:] = -conj[:, 1:] % self.p     # the Frobenius of _frobenius
        norm = (a[:, None] @ self.mul_matrix(conj))[:, 0, 0] % self.p
        return conj * table[norm][:, None] % self.p

    def winv(self, a):
        res = self.w_residue(a)
        if self.f_is_zero(res):
            raise ZeroDivisionError("element not invertible in the Witt ring")
        y = self.finv(res)
        two = self.w_from_int(2).vec
        # one Newton step lifts an inverse mod p to an inverse mod p²
        return self.wmul(y, self.wsub(two, self.wmul(a, y)))

    # -- conversions ---------------------------------------------------------

    @staticmethod
    def f_is_zero(a) -> bool:
        return not any(a)

    def w_residue(self, a):
        return tuple([x % self.p for x in a])

    def w_times_p(self, a):
        return tuple([x * self.p % self.p2 for x in a])

    def w_divexact_p(self, a):
        """Divide a Witt vec by p; the result is a field vec.

        Requires every coordinate divisible by p; callers guarantee it, so a
        remainder is an internal fault.
        """
        if any(x % self.p for x in a):
            raise InternalInvariantFailure("Witt vec not divisible by p")
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

    def extension(self, degree: int):
        """Retired: certificates are checked exactly, in no extension field.

        ``perfbench/hooks.py`` still wraps this method by name when it traces
        a pass, so the name stays until that hook entry is dropped.
        """
        raise NotImplementedError("no evaluation extension: certificates are checked exactly")

    # the modulus, and with it every table, is a function of (p, d)
    def __eq__(self, other):
        return (isinstance(other, ReductionContext)
                and (self.p, self.d) == (other.p, other.d))

    def __hash__(self):
        return hash((self.p, self.d))

    def __repr__(self):
        return f"ReductionContext(p={self.p}, d={self.d})"


def make_context(p: int, d: int = 1) -> ReductionContext:
    """A fresh context for F_{p^d}; contexts with equal (p, d) compare equal."""
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


class _Element:
    """A coefficient vec over a context, with the operators both rings share.

    A subclass names its ring by `_ring`, the prefix of the context's vec
    ops ("f" for F_q, "w" for the Galois ring), and its repr by `_tag`.
    """

    __slots__ = ("ctx", "vec")
    _ring = _tag = ""

    def __init__(self, ctx: ReductionContext, vec):
        self.ctx = ctx
        self.vec = vec

    def __add__(self, other):
        return type(self)(self.ctx, getattr(self.ctx, self._ring + "add")(self.vec, other.vec))

    def __sub__(self, other):
        return type(self)(self.ctx, getattr(self.ctx, self._ring + "sub")(self.vec, other.vec))

    def __neg__(self):
        return type(self)(self.ctx, getattr(self.ctx, self._ring + "neg")(self.vec))

    def __mul__(self, other):
        return type(self)(self.ctx, getattr(self.ctx, self._ring + "mul")(self.vec, other.vec))

    def __pow__(self, e: int):
        vec = self.inverse().vec if e < 0 else self.vec
        return type(self)(self.ctx, getattr(self.ctx, self._ring + "pow")(vec, abs(e)))

    def inverse(self):
        return type(self)(self.ctx, getattr(self.ctx, self._ring + "inv")(self.vec))

    def is_zero(self) -> bool:
        return not any(self.vec)

    def coeffs(self) -> list[int]:
        return list(self.vec)

    def to_string(self, sym: str = "u") -> str:
        return _vec_string(self.coeffs(), sym)

    def __eq__(self, other):
        return (type(other) is type(self) and self.ctx == other.ctx
                and self.vec == other.vec)

    def __hash__(self):
        return hash((self.ctx, self._ring, self.vec))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"{self._tag}({self.to_string()})"


class FieldElement(_Element):
    """An element of F_{p^d}, stored as a coefficient vec."""

    __slots__ = ()
    _ring, _tag = "f", "F"

    def __truediv__(self, other):
        return FieldElement(self.ctx, self.ctx.fmul(self.vec, self.ctx.finv(other.vec)))

    def frobenius(self) -> "FieldElement":
        """a^p; an involution, since it has order d <= 2."""
        return FieldElement(self.ctx, _frobenius(self.vec, self.ctx.p))

    def index(self) -> int:
        return self.ctx.f_index(self.vec)

    def lift(self) -> "WittRingElement":
        """The coefficientwise lift to the Galois ring."""
        return WittRingElement(self.ctx, self.vec)


class WittRingElement(_Element):
    """An element of the characteristic-p² Galois ring over the context."""

    __slots__ = ()
    _ring, _tag = "w", "W"

    def residue(self) -> FieldElement:
        return FieldElement(self.ctx, self.ctx.w_residue(self.vec))


@dataclass(frozen=True)
class WittParameter:
    """A lifted parameter with its Witt coordinates."""

    witt: WittRingElement
    lam0: FieldElement
    lam1: FieldElement


# ---------------------------------------------------------------------------
# Witt-layer operations


def teichmuller(x0: FieldElement) -> WittRingElement:
    """Multiplicative lift of x0: y^q for any lift y of x0.

    (y + p b)^q = y^q mod p² because p divides q, so y^q does not depend
    on the lift; it is itself a lift of x0^q = x0, so the q-th power fixes
    it.
    """
    return WittRingElement(x0.ctx, x0.ctx.wpow(x0.vec, x0.ctx.q))


def frobenius_w2(x: WittRingElement) -> WittRingElement:
    """Ring automorphism lifting the p-power map: x -> -x (see :func:`_frobenius`).

    On tau(a) + p*b it gives tau(a^p) + p*(b^p).
    """
    return WittRingElement(x.ctx, _frobenius(x.vec, x.ctx.p2))


def check_residue(lam0: FieldElement) -> None:
    """The one rule on a residue: it must avoid {0, 1}, where marked points collide."""
    if lam0.is_zero() or lam0 == lam0.ctx.one:
        raise ForbiddenResidue("reduction of the parameter lies in {0, 1}")


def witt_decompose(lam: WittRingElement) -> WittParameter:
    """Split a lifted parameter into Witt coordinates (lam0, lam1).

    lam1 is the inverse residue-field Frobenius of the residue of
    (lam - tau(lam0)) / p: the Verschiebung-normalised coordinate, in
    which the cocycle numerator A is written.  The Frobenius is an
    involution at d <= 2, so that inverse is the Frobenius itself.
    """
    ctx = lam.ctx
    lam0 = lam.residue()
    check_residue(lam0)
    t = teichmuller(lam0)
    mu = FieldElement(ctx, ctx.w_divexact_p(ctx.wsub(lam.vec, t.vec)))
    return WittParameter(witt=lam, lam0=lam0, lam1=mu.frobenius())


def witt_compose(lam0: FieldElement, lam1: FieldElement) -> WittRingElement:
    """Inverse of :func:`witt_decompose`; exact round-trip both ways."""
    check_residue(lam0)
    ctx = lam0.ctx
    mu = lam1.frobenius()
    t = teichmuller(lam0)
    return WittRingElement(ctx, ctx.wadd(t.vec, ctx.w_times_p(mu.vec)))
