"""The closed-form moment oracle for the splitting integer n.

An independent check of the cocycle layer and of every method downstream
of it.  Let a_0..a_(2p-1) be the coefficients of the cocycle numerator A
(a_i = 0 outside that range) and kappa the differential whose residues the
moments are.  For k = 0..2p-2, mu_k sums the residues of z^k*kappa dz at
the finite poles other than 0.  In characteristic p the residue at a pole
of order p*m is a fixed scalar times a Hasse derivative of z^k*A, and by
Lucas only the coefficients of index = -1 mod p survive, so each moment
is a short sum of a's:

* kappa = A/(z^p (z-1)^(2p)), the modulus G = (z-1)^(2p) of the package:
  mu_k = sum over s = 0..3 of (s-1)*a_((s+1)p-1-k);
* kappa = A/(z^p (z-1)^p (z-c)^p), c = lam0^p, the modulus
  G = (z^p - 1)(z^p - c): with A_k(X) = sum over s = 0..2 of
  a_((s+1)p-1-k)*X^s, mu_k = A_k(1)/(1-c) + A_k(c)/(c(c-1)).

If L is the linear complexity of mu_0..mu_(2p-2) (Berlekamp-Massey, over
F_q with the context's scalar ops), then n = p - min(L, 2p - L).  Neither
sum shares code with the t method's elimination, birkhoff's Euclid or the
cech ansatz.
"""

import pytest

from higgsflow.cocycle import build_A_primitive, build_transition
from higgsflow.criterion import (remainder_system, splitting_from_T, splittings_from_T,
                                 t_r_first_mismatch)
from higgsflow.factorization import (check_certificate, factorization_certificate,
                                     splitting_from_birkhoff)
from higgsflow.fields import make_context, witt_decompose
from higgsflow.polys import Poly, poly_divrem

from certificate_reference import modulus_poly, patch_modulus, second_modulus


def moments_at_one(ctx, a, c):
    """mu_0..mu_(2p-2) for kappa = A/(z^p (z-1)^(2p)); c is not read."""
    p = ctx.p
    weights = [ctx.f_from_int(s - 1).vec for s in range(4)]
    out = []
    for k in range(2 * p - 1):
        mu = ctx.zero.vec
        for s, w in enumerate(weights):
            mu = ctx.fadd(mu, ctx.fmul(w, a[(s + 1) * p - 1 - k]))
        out.append(mu)
    return out


def moments_at_one_and_c(ctx, a, c):
    """mu_0..mu_(2p-2) for kappa = A/(z^p (z-1)^p (z-c)^p)."""
    p, one = ctx.p, ctx.one.vec
    w1 = ctx.finv(ctx.fsub(one, c))                          # 1/(1-c)
    wc = ctx.finv(ctx.fmul(c, ctx.fsub(c, one)))             # 1/(c(c-1))
    out = []
    for k in range(2 * p - 1):
        at_one, at_c = ctx.zero.vec, ctx.zero.vec
        for s in (2, 1, 0):                                  # Horner in X
            coeff = a[(s + 1) * p - 1 - k]
            at_one = ctx.fadd(at_one, coeff)
            at_c = ctx.fadd(ctx.fmul(at_c, c), coeff)
        out.append(ctx.fadd(ctx.fmul(at_one, w1), ctx.fmul(at_c, wc)))
    return out


def linear_complexity(ctx, seq):
    """Berlekamp-Massey over F_q: the length of the shortest linear
    recurrence that generates seq.  C is the connection polynomial, B the
    one before the last length change, m the steps since it and b that
    change's discrepancy; len(C) stays above L."""
    zero, one = ctx.zero.vec, ctx.one.vec
    C, B = [one], [one]
    L, m, b = 0, 1, one
    for n, s in enumerate(seq):
        disc = s
        for i in range(1, L + 1):
            disc = ctx.fadd(disc, ctx.fmul(C[i], seq[n - i]))
        if ctx.f_is_zero(disc):
            m += 1
            continue
        scale = ctx.fmul(disc, ctx.finv(b))
        previous = list(C)
        C = C + [zero] * (len(B) + m - len(C))
        for i, x in enumerate(B):
            C[i + m] = ctx.fsub(C[i + m], ctx.fmul(scale, x))
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, previous, disc, 1
        else:
            m += 1
    return L


def moment_n(ctx, A, c, moments):
    """n = p - min(L, 2p - L) from the moments of A under one kappa."""
    p = ctx.p
    a = [tuple(x) for x in A.v.tolist()]
    a += [ctx.zero.vec] * (4 * p - len(a))
    L = linear_complexity(ctx, moments(ctx, a, c))
    return p - min(L, 2 * p - L)


def _lifts(shapes):
    """(ctx, lifted lambda, Witt coordinates) of every lift at each (p, d)."""
    for p, d in shapes:
        ctx = make_context(p, d)
        for w in ctx.witt_elements():
            r = w.residue()
            if not (r.is_zero() or r == ctx.one):
                yield ctx, w, witt_decompose(w)


SHAPES = ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2))


def test_berlekamp_massey_on_known_recurrences():
    ctx = make_context(7, 1)
    f = ctx.f_from_int
    seq = [f(x).vec for x in (0, 1, 1, 2, 3, 5, 1, 6, 0, 6)]   # Fibonacci mod 7
    assert linear_complexity(ctx, seq) == 2
    assert linear_complexity(ctx, [f(0).vec] * 5) == 0
    assert linear_complexity(ctx, [f(0).vec] * 4 + [f(3).vec]) == 5
    assert linear_complexity(ctx, [f(2 * 3 ** i).vec for i in range(6)]) == 1
    ext = make_context(5, 2)
    x = ext.f_from_coeffs((0, 1))
    geometric = [(x ** i).vec for i in range(8)]
    assert linear_complexity(ext, geometric) == 1


def test_moment_oracle_matches_t_and_birkhoff():
    # every lift at d = 1 for p <= 13 and at d = 2 for p <= 5, under the
    # package's kappa, whose modulus is (z-1)^(2p)
    cases = 0
    for p, d in SHAPES:
        lifts = list(_lifts([(p, d)]))
        ctx = lifts[0][0]
        cos = [build_A_primitive(ctx, w) for _, w, _ in lifts]
        for (_, w, wp), co, st in zip(lifts, cos, splittings_from_T(cos)):
            n = moment_n(ctx, co.A, wp.lam0.frobenius().vec, moments_at_one)
            assert n == st.n == splitting_from_birkhoff(co).n, (p, d, w)
            cases += 1
    assert cases == 295 + 63 + 575


@pytest.mark.parametrize("shapes", [SHAPES[:5], SHAPES[5:]], ids=["d1", "d2"])
def test_birkhoff_follows_the_modulus(monkeypatch, shapes):
    # with the one definition switched to g = (X-1)(X-c), c = lam0^p, every
    # consumer divides by (z^p - 1)(z^p - c): birkhoff's certificates hold,
    # birkhoff's and t's n are the moment n of
    # kappa = A/(z^p (z-1)^p (z-c)^p), the remainder system's rows are the
    # school remainders by that G, and T's left block is those rows
    c_now = {}
    patch_modulus(monkeypatch, lambda ctx: second_modulus(ctx, c_now["c"]))
    cases = 0
    for ctx, w, wp in _lifts(shapes):
        p = ctx.p
        c = c_now["c"] = wp.lam0.frobenius().vec
        G = modulus_poly(ctx, second_modulus(ctx, c))
        co = build_A_primitive(ctx, w)
        cert = factorization_certificate(co)
        check_certificate([build_transition(co)], [cert])
        n = moment_n(ctx, co.A, c, moments_at_one_and_c)
        assert cert.n == n == splitting_from_T(co).n, (p, w)
        assert t_r_first_mismatch(ctx, wp.lam0, wp.lam1) is None, (p, w)
        rows = remainder_system(ctx, co.A).R.arr
        for i in range(p + 1):
            assert Poly(ctx, rows[i]) == poly_divrem(co.A.shift(i), G)[1], (p, w, i)
        cases += 1
    assert cases == (295 if shapes[0][1] == 1 else 63 + 575)
