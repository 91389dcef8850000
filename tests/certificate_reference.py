"""Rational-function reference for the birkhoff certificate check.

The package proves each certificate identity as a polynomial identity over
fixed denominators.  This module keeps the independent form the tests
compare it against: the certificate and the gluing matrix turned back into
pole fractions num / (z^a (z-1)^b), and every identity checked in
rational-function arithmetic, with P*M*Q proved as M*Q = adj(P)*diag.

It also keeps the order of a zero at z = 1, read off the Taylor
coefficients, and the test-side forms of the modulus G = g(z^p): (z-1)^k from
the binomials, G from g's rows, the second modulus g = (X - 1)(X - c), and
a patch that puts other rows in place of ``polys.euclid_modulus``, and
the rows of birkhoff's coefficient stacks read back as polynomials.
"""

import sys
from math import comb

import numpy as np

from higgsflow import polys
from higgsflow.errors import CertificateCheckFailed
from higgsflow.polys import Poly


def z_minus_one_pow(ctx, k: int) -> Poly:
    """(z-1)^k over F_q, from its binomial coefficients C(k, j)*(-1)^(k-j)."""
    return Poly.from_ints(ctx, (comb(k, j) * (-1) ** (k - j) for j in range(k + 1)))


def order_at_one(*polys: Poly) -> int:
    """Order at z = 1 of the gcd of the nonzero polys.

    A poly's order is the index of its first nonzero Taylor coefficient at
    z = 1; the gcd's is the least of them.
    """
    return min(int(np.flatnonzero(f.taylor_at_one().v.any(axis=1))[0])
               for f in polys if not f.is_zero())


def modulus_poly(ctx, rows) -> Poly:
    """G = g(z^p) from g's coefficient rows (g0, g1, 1)."""
    p = ctx.p
    v = np.zeros((2 * p + 1, ctx.d), np.int64)
    v[::p] = rows
    return Poly(ctx, v)


def second_modulus(ctx, c) -> np.ndarray:
    """The rows (c, -(1 + c), 1) of g = (X - 1)(X - c), c a field vec."""
    one = ctx.one.vec
    return np.array([c, ctx.fneg(ctx.fadd(one, c)), one], np.int64)


def patch_modulus(monkeypatch, rows_of) -> None:
    """Make rows_of(ctx) the modulus rows wherever the package reads them.

    Every loaded higgsflow module that holds the one definition,
    ``polys.euclid_modulus``, gets rows_of in its place.
    """
    original = polys.euclid_modulus
    for name, module in list(sys.modules.items()):
        if name.startswith("higgsflow") and getattr(module, "euclid_modulus", None) is original:
            monkeypatch.setattr(module, "euclid_modulus", rows_of)


def times_z_minus_one_pow(f: Poly, k: int) -> Poly:
    """f * (z-1)^k for k >= 0, digit by digit in base p.

    In characteristic p, (z-1)^(k0 + k1*p + k2*p^2 + ...) is
    (z-1)^k0 * (z^p - 1)^k1 * (z^(p^2) - 1)^k2 * ...: the low digit is
    one convolution with the k0 + 1 coefficients of (z-1)^k0, and each
    unit of a higher digit i one shifted subtraction v*z^(p^i) - v.
    """
    ctx = f.ctx
    p = ctx.p
    k, k0 = divmod(k, p)
    v = f.v
    if k0 and len(v):
        c = z_minus_one_pow(ctx, k0).v[:, 0]
        v = np.stack([np.convolve(col, c) for col in v.T], axis=1) % p
    step = p                          # p^i
    while k and len(v):
        k, digit = divmod(k, p)
        for _ in range(digit):
            out = np.zeros((len(v) + step, ctx.d), np.int64)
            out[step:] = v
            out[:len(v)] -= v
            v = out % p
        step *= p
    return f if v is f.v else Poly(ctx, v)


class PoleFraction:
    """num / (z^a (z-1)^b): rational functions with poles in {0, 1, infinity}.

    a >= 0, and the order b at z = 1 is signed: b < 0 stands for the zero
    (z-1)^(-b), so multiplying by (z-1)^(+-k) only moves b
    (:meth:`times_z_minus_one_pow`).  Kept as built, never reduced.  Sums
    and equality bring both sides over z^max(a) (z-1)^max(b): a shift for
    z, and :func:`times_z_minus_one_pow` for z - 1.  A zero operand needs
    neither.  Equality cross-multiplies; instances are unhashable.
    """

    __slots__ = ("num", "a", "b")

    def __init__(self, num: Poly, a: int = 0, b: int = 0):
        if a < 0:
            num = num.shift(-a)
            a = 0
        self.num, self.a, self.b = num, a, b

    @classmethod
    def zero(cls, ctx) -> "PoleFraction":
        return cls(Poly.zero(ctx))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def times_z_minus_one_pow(self, k: int) -> "PoleFraction":
        """self * (z-1)^k for any integer k: exponent arithmetic."""
        return PoleFraction(self.num, self.a, self.b - k)

    def _over(self, a: int, b: int) -> Poly:
        """The numerator over the larger denominator z^a (z-1)^b."""
        return times_z_minus_one_pow(self.num.shift(a - self.a), b - self.b)

    def __add__(self, other: "PoleFraction") -> "PoleFraction":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
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
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        a, b = max(self.a, other.a), max(self.b, other.b)
        return self._over(a, b) == other._over(a, b)

    def __repr__(self):
        return f"PoleFraction({self.num!r} / z^{self.a}(z-1)^{self.b})"


def step1_rows(ctx, step1) -> list:
    """birkhoff_step1's stacks (f, g, h, beta', gamma'), one tuple of Polys per row."""
    return [tuple(Poly(ctx, x) for x in row) for row in zip(*step1)]


def certificate_rows(ctx, stack) -> list:
    """Each row of a CertificateStack as a dict of the certificate's fields:
    Polys, c and n = p - c as ints, and P~, Q~ as 2x2 tuples of Polys."""
    rows = []
    for i, c in enumerate(stack.c.tolist()):
        row = {name: Poly(ctx, getattr(stack, name)[i])
               for name in ("f", "g", "h", "beta_prime", "gamma_prime", "alpha")}
        row |= {name: tuple(tuple(Poly(ctx, x[i]) for x in r) for r in getattr(stack, name))
                for name in ("P", "Q")}
        rows.append(row | {"c": c, "n": ctx.p - c})
    return rows


def transition_fractions(m):
    """M = M~ / (z^p (z-1)^p), with M~ = [[z^p (z-1)^(2p), 0], [A/u, z^p]]."""
    ctx = m.cocycle.ctx
    p = ctx.p
    zp = Poly.monomial(ctx, p)
    m_tilde = ((z_minus_one_pow(ctx, 2 * p).shift(p), Poly.zero(ctx)), (m.lower_left, zp))
    return tuple(tuple(PoleFraction(x, p, p) for x in row) for row in m_tilde)


def frame_fractions(cert):
    """(P, Q) from P~ = P diag(z^p, 1) and Q~ = Q diag((z-1)^c, (z-1)^(2p-c))."""
    p = cert.f.ctx.p
    P = tuple((PoleFraction(x0, p, 0), PoleFraction(x1)) for x0, x1 in cert.P)
    Q = tuple((PoleFraction(x0, 0, cert.c), PoleFraction(x1, 0, 2 * p - cert.c))
              for x0, x1 in cert.Q)
    return P, Q


def matmul(x, y):
    """Product of two 2x2 matrices of pole fractions."""
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2))
                 for i in range(2))


def reference_check(m, cert) -> None:
    """Every identity of the certificate, proved in pole-fraction arithmetic.

    In order: step-1 (f*A + g*z^p = h*(z-1)^(2p)), Bezout
    (f*gamma' + g*beta' = (z-1)^(2p)), alpha
    (alpha*z^p*(z-1)^(2p) = z^p*gamma' - A*beta', alpha = alpha~/z^p),
    det P = 1, det Q = 1, P*M*Q = diag((z-1)^(p-c), (z-1)^(c-p)) proved as
    M*Q = adj(P)*diag, and the degree bounds: 0 <= c <= p, deg f, deg g
    <= c, deg beta', deg gamma' <= 2p - c, and every entry of Q regular at
    infinity.  Raises CertificateCheckFailed naming the identity.
    """
    ctx = m.cocycle.ctx
    p = ctx.p
    A = m.cocycle.A
    one = PoleFraction(Poly.one(ctx))

    def require(holds: bool, name: str):
        if not holds:
            raise CertificateCheckFailed(f"certificate identity {name} does not hold")

    require(cert.f * A + cert.g.shift(p) == times_z_minus_one_pow(cert.h, 2 * p), "step-1")
    require(cert.f * cert.gamma_prime + cert.g * cert.beta_prime
            == z_minus_one_pow(ctx, 2 * p), "Bezout")
    # alpha*z^p*(z-1)^(2p) = alpha~*(z-1)^(2p): the factor only moves the order at 1
    require(PoleFraction(cert.alpha, 0, -2 * p)
            == PoleFraction(cert.gamma_prime.shift(p) - A * cert.beta_prime), "alpha")
    P, Q = frame_fractions(cert)
    (p00, p01), (p10, p11) = P
    (q00, q01), (q10, q11) = Q
    require(p00 * p11 - p01 * p10 == one, "det P")
    require(q00 * q11 - q01 * q10 == one, "det Q")
    k = p - cert.c
    adj_diag = ((p11.times_z_minus_one_pow(k), (-p01).times_z_minus_one_pow(-k)),
                ((-p10).times_z_minus_one_pow(k), p00.times_z_minus_one_pow(-k)))
    require(matmul(transition_fractions(m), Q) == adj_diag, "P*M*Q")
    c = cert.c
    fields = ((cert.f, c), (cert.g, c), (cert.beta_prime, 2 * p - c),
              (cert.gamma_prime, 2 * p - c))
    require(0 <= c <= p and all(x.degree <= bound for x, bound in fields)
            and all(x.num.degree <= x.a + x.b for row in Q for x in row), "degree bounds")
