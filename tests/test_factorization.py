import dataclasses
import random

import numpy as np
import pytest

from higgsflow import factorization
from higgsflow.cocycle import build_A_primitive, build_transition
from higgsflow.criterion import splitting_from_T, t_submatrix, build_T
from higgsflow.errors import CertificateCheckFailed, DegreeTooLarge
from higgsflow.factorization import (birkhoff_step1, birkhoff_step2,
                                     eval_pole_fractions,
                                     factorization_certificate,
                                     splitting_from_birkhoff, verify_certificate)
from higgsflow.fields import make_context, witt_decompose
from higgsflow.linalg import mat_rank
from higgsflow.polys import LaurentPoly, Poly, PoleFraction, z_minus_one_pow


def P(ctx, *ints):
    return Poly.from_ints(ctx, ints)


def _pf_matmul(x, y):
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2))
                 for i in range(2))


def test_step1_micro_case_periodic():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, l = birkhoff_step1(ctx, co.A)
    assert f == P(ctx, 2, 0, 1)       # z^2 + 2
    assert g == P(ctx, 1, 1, 1)       # z^2 + z + 1
    assert l == 1
    assert f * co.A + g * Poly.monomial(ctx, 3) == h * z_minus_one_pow(ctx, 6)


def test_step1_micro_case_nonperiodic():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(2))
    f, g, h, l = birkhoff_step1(ctx, co.A)
    assert f == P(ctx, 2, 0, 1, 1)    # z^3 + z^2 + 2
    assert g == P(ctx, 1, 2)          # 2z + 1
    assert l == 0
    assert f.eval(ctx.one) == ctx.one  # f(1) = 1 != 0


def test_step1_zero_cocycle_degenerate():
    ctx = make_context(3, 1)
    f, g, h, l = birkhoff_step1(ctx, Poly.zero(ctx))
    assert f == Poly.one(ctx) and g.is_zero() and h.is_zero() and l == 0


def test_step1_degree_guard():
    ctx = make_context(3, 1)
    with pytest.raises(DegreeTooLarge):
        birkhoff_step1(ctx, Poly.monomial(ctx, 6))


def test_step2_micro_case_certificates():
    ctx = make_context(3, 1)
    for lam_int, want_c, want_n in ((-1, 2, 1), (2, 3, 0)):
        co = build_A_primitive(ctx, ctx.w_from_int(lam_int))
        cert = birkhoff_step2(ctx, co, *birkhoff_step1(ctx, co.A))
        assert (cert.c, cert.n) == (want_c, want_n)
        d2 = z_minus_one_pow(ctx, 6)
        assert cert.f * co.A + cert.g * Poly.monomial(ctx, 3) == cert.h * d2
        assert cert.f * cert.gamma_prime + cert.g * cert.beta_prime == d2
        assert cert.beta_prime.degree <= 6 - cert.c
        assert cert.gamma_prime.degree <= 6 - cert.c
        assert cert.f.degree <= 3 and cert.g.degree <= 2


def test_step2_exact_diagonalization_micro_case():
    # strongest form of the check: exact rational-function identity P M Q = diag
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    cert = birkhoff_step2(ctx, co, *birkhoff_step1(ctx, co.A))
    prod = _pf_matmul(cert.P, _pf_matmul(build_transition(co).entries, cert.Q))
    assert prod[0][0] == PoleFraction(z_minus_one_pow(ctx, 1))
    assert prod[1][1] == PoleFraction(Poly.one(ctx), 0, 1)
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def test_step2_exact_diagonalization_small_sample():
    rng = random.Random(2)
    for p in (3, 5):
        ctx = make_context(p, 1)
        for _ in range(6):
            while True:
                w = ctx.w_from_int(rng.randrange(p * p))
                r = w.residue()
                if not (r.is_zero() or r == ctx.one):
                    break
            co = build_A_primitive(ctx, w)
            cert = birkhoff_step2(ctx, co, *birkhoff_step1(ctx, co.A))
            prod = _pf_matmul(cert.P, _pf_matmul(build_transition(co).entries, cert.Q))
            assert prod[0][0] == PoleFraction(z_minus_one_pow(ctx, max(p - cert.c, 0)),
                                              0, max(cert.c - p, 0))
            assert prod[1][1] == PoleFraction(z_minus_one_pow(ctx, max(cert.c - p, 0)),
                                              0, max(p - cert.c, 0))
            assert prod[0][1].is_zero() and prod[1][0].is_zero()
            assert cert.alpha.poly.is_zero() or cert.alpha.valuation() >= -2 * p


def test_step1_minimality_rank_characterization():
    # T_{p-c-1} is rank deficient while T_{p-c} has full rank
    rng = random.Random(77)
    for _ in range(30):
        p = rng.choice((3, 5, 7))
        ctx = make_context(p, 1)
        while True:
            w = ctx.w_from_int(rng.randrange(p * p))
            r = w.residue()
            if not (r.is_zero() or r == ctx.one):
                break
        co = build_A_primitive(ctx, w)
        f, g, h, l = birkhoff_step1(ctx, co.A)
        c = max(f.degree, g.degree if not g.is_zero() else -1)
        wp = witt_decompose(w, "twisted")
        tm = build_T(ctx, wp.lam0, wp.lam1)
        if c < p:
            sub = t_submatrix(tm, p - c)
            assert mat_rank(sub) == c  # full rank: rows = p - (p - c)
        if p - c - 1 >= 0:
            sub = t_submatrix(tm, p - c - 1)
            assert mat_rank(sub) < c + 1


def test_splitting_from_birkhoff_micro_cases():
    ctx = make_context(3, 1)
    st = splitting_from_birkhoff(ctx, ctx.w_from_int(-1))
    assert st.n == 1 and st.periodic and st.method == "birkhoff"
    st = splitting_from_birkhoff(ctx, ctx.w_from_int(2))
    assert st.n == 0 and not st.periodic


def test_agreement_with_T_exhaustive_p3():
    ctx = make_context(3, 1)
    for n in range(9):
        w = ctx.w_from_int(n)
        r = w.residue()
        if r.is_zero() or r == ctx.one:
            continue
        wp = witt_decompose(w, "twisted")
        assert splitting_from_birkhoff(ctx, w).n == \
            splitting_from_T(ctx, wp.lam0, wp.lam1).n


def test_agreement_with_T_randomized_larger_p_and_quadratic_field():
    rng = random.Random(271828)
    cases = []
    for _ in range(80):
        cases.append((rng.choice((11, 13)), 1))
    for _ in range(20):
        cases.append((rng.choice((3, 5, 7)), 2))
    for p, d in cases:
        ctx = make_context(p, d)
        while True:
            lam = ctx.w_from_coeffs([rng.randrange(ctx.p2) for _ in range(d)])
            r = lam.residue()
            if not (r.is_zero() or r == ctx.one):
                break
        nb = splitting_from_birkhoff(ctx, lam, rng=rng).n
        wp = witt_decompose(lam, "twisted")
        assert nb == splitting_from_T(ctx, wp.lam0, wp.lam1).n


def _spy_points(monkeypatch):
    """Record (extension, sample points) of every verification."""
    seen = []
    check = factorization._identities_hold

    def spy(ext, m, cert, z):
        seen.append((ext, z))
        return check(ext, m, cert, z)

    monkeypatch.setattr(factorization, "_identities_hold", spy)
    return seen


def _tampered(cert):
    """Certificates that each break one identity the verifier checks."""
    ctx = cert.f.ctx
    one = Poly.one(ctx)
    (p00, p01), (p10, p11) = cert.P
    q0, (q10, q11) = cert.Q
    two = PoleFraction(Poly.from_ints(ctx, [2]))
    half = PoleFraction(Poly.from_ints(ctx, [(ctx.p + 1) // 2]))
    bad = {name: dataclasses.replace(cert, **{name: getattr(cert, name) + one})
           for name in ("f", "g", "h", "beta_prime", "gamma_prime")}
    return bad | {
        "c": dataclasses.replace(cert, c=cert.c - 1, n=cert.n + 1),
        "alpha": dataclasses.replace(cert, alpha=cert.alpha + LaurentPoly(one)),
        "P entry": dataclasses.replace(cert, P=((p00 + PoleFraction(one), p01), (p10, p11))),
        "Q entry": dataclasses.replace(cert, Q=(q0, (q10, q11 + PoleFraction(one, 1, 0)))),
        # adding row 1 to row 0 keeps det P = 1, so only P*M*Q can catch it
        "P row op": dataclasses.replace(cert, P=((p00 + p10, p01 + p11), (p10, p11))),
        # P row 0 times 2, Q column 0 times 1/2: P*M*Q is unchanged, det P is not
        "P, Q rescaled": dataclasses.replace(
            cert, P=((two * p00, two * p01), (p10, p11)),
            Q=((half * q0[0], q0[1]), (half * q10, q11))),
    }


# (p, d) -> least e with q^e >= 4p+8: every shape of evaluation extension
EXTENSION_SHAPES = [(3, 1, 3), (7, 1, 2), (3, 2, 2), (7, 2, 1)]


def _shape_case(p, d):
    ctx = make_context(p, d)
    lam = ctx.w_from_int(2) if d == 1 else ctx.w_from_coeffs([1, 1])
    co = build_A_primitive(ctx, lam)
    return ctx, build_transition(co), factorization_certificate(ctx, lam)


def test_verify_certificate_rejects_perturbations():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    m = build_transition(co)
    cert = factorization_certificate(ctx, ctx.w_from_int(-1))
    assert verify_certificate(m, cert)
    for name, bad in _tampered(cert).items():
        assert not verify_certificate(m, bad), name


@pytest.mark.parametrize("p, d, e", EXTENSION_SHAPES)
def test_verify_certificate_every_extension_shape(monkeypatch, p, d, e):
    ctx, m, cert = _shape_case(p, d)
    seen = _spy_points(monkeypatch)
    assert verify_certificate(m, cert)
    ext, z = seen[-1]
    assert (ext.e, ext.m, ext.size) == (e, e * d, ctx.q ** e)
    assert ext.size >= 4 * p + 8 and ctx.q ** (e - 1) < 4 * p + 8
    assert z.shape == (20, e * d)
    for name, bad in _tampered(cert).items():
        assert not verify_certificate(m, bad), name


@pytest.mark.parametrize("p, d, e", EXTENSION_SHAPES)
def test_batched_values_match_pointwise_evaluation(monkeypatch, p, d, e):
    ctx, m, cert = _shape_case(p, d)
    seen = _spy_points(monkeypatch)
    verify_certificate(m, cert)
    ext, z = seen[-1]
    fracs = [fr for frame in (cert.P, m.entries, cert.Q) for row in frame for fr in row]
    fracs += [PoleFraction(cert.f), PoleFraction(cert.alpha.poly, -cert.alpha.val),
              PoleFraction(Poly.one(ctx), 0, p)]
    batched = eval_pole_fractions(ext, fracs, z)
    pointwise = np.array([[fr.eval_ext(ext, point) for point in z] for fr in fracs])
    assert np.array_equal(batched, pointwise)


def test_same_seed_draws_same_sample_points(monkeypatch):
    ctx, m, cert = _shape_case(7, 1)
    seen = _spy_points(monkeypatch)
    for seed in (11, 11, 12):
        assert verify_certificate(m, cert, rng=random.Random(seed))
    (ext, a), (_, b), (_, c) = seen
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    # the draw is rng.randrange(size), skipping repeats and 0, 1, lam0
    rng, skip, want = random.Random(11), {0, 1, m.cocycle.witt.lam0.index()}, []
    while len(want) < 20:
        n = rng.randrange(ext.size)
        if n not in skip:
            skip.add(n)
            want.append(n)
    assert np.array_equal(a, ext.from_indices(want))
    assert all(sum(int(x) * 7 ** k for k, x in enumerate(point)) == n
               for point, n in zip(a, want))


def test_step2_rejects_inconsistent_input():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, l = birkhoff_step1(ctx, co.A)
    with pytest.raises(CertificateCheckFailed):
        birkhoff_step2(ctx, co, f + Poly.one(ctx), g, h, l)


def test_step2_gcd_check_rejects_factor_coprime_to_z_minus_one():
    # step 1 reads l off the orders at z = 1 only; step 2's extended gcd is
    # the one check that gcd(f, g) has no other factor
    for p, d in ((5, 1), (7, 1), (3, 2)):
        ctx = make_context(p, d)
        cases = 0
        for w in ctx.witt_elements():
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            co = build_A_primitive(ctx, w)
            f, g, h, l = birkhoff_step1(ctx, co.A)
            if max(f.degree, g.degree) >= p:
                continue  # the extra factor would push c past p first
            cases += 1
            extra = P(ctx, -2, 1)
            with pytest.raises(CertificateCheckFailed, match="gcd"):
                birkhoff_step2(ctx, co, f * extra, g * extra, h * extra, l)
        assert cases > 0


def test_certificate_determinism():
    ctx = make_context(5, 1)
    a = factorization_certificate(ctx, ctx.w_from_int(7), rng=random.Random(1))
    b = factorization_certificate(ctx, ctx.w_from_int(7), rng=random.Random(99))
    # sample points differ with the rng, the certificate itself must not
    assert a.f == b.f and a.g == b.g and a.h == b.h
    assert (a.l, a.c, a.n) == (b.l, b.c, b.n)
    assert a.beta_prime == b.beta_prime and a.gamma_prime == b.gamma_prime


def test_branch_recorded_only_when_gcd_nontrivial():
    ctx = make_context(3, 1)
    cert1 = factorization_certificate(ctx, ctx.w_from_int(-1))
    assert cert1.l == 1 and cert1.branch in ("A", "B")
    cert2 = factorization_certificate(ctx, ctx.w_from_int(2))
    assert cert2.l == 0 and cert2.branch is None and cert2.sigma.is_zero()
