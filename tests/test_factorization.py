import dataclasses
import hashlib
import random

import pytest

from higgsflow import factorization
from higgsflow.cocycle import build_A_primitive, build_transition
from higgsflow.criterion import splitting_from_T, t_submatrix, build_T
from higgsflow.errors import CertificateCheckFailed, DegreeTooLarge
from higgsflow.factorization import (birkhoff_step1, birkhoff_step2, check_certificate,
                                     factorization_certificate,
                                     splitting_from_birkhoff, verify_certificate)
from higgsflow.fields import make_context, witt_decompose
from higgsflow.linalg import mat_rank
from higgsflow.polys import Poly, PoleFraction, z_minus_one_pow


def P(ctx, *ints):
    return Poly.from_ints(ctx, ints)


def _pf_matmul(x, y):
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2))
                 for i in range(2))


def test_step1_micro_case_periodic():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, l, beta, gamma = birkhoff_step1(ctx, co.A)
    assert f == P(ctx, 2, 0, 1)       # z^2 + 2
    assert g == P(ctx, 1, 1, 1)       # z^2 + z + 1
    assert l == 1
    assert f * co.A + g * Poly.monomial(ctx, 3) == h * z_minus_one_pow(ctx, 6)
    assert f * gamma + g * beta == z_minus_one_pow(ctx, 6)


def test_step1_micro_case_nonperiodic():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(2))
    f, g, h, l, beta, gamma = birkhoff_step1(ctx, co.A)
    assert f == P(ctx, 2, 0, 1, 1)    # z^3 + z^2 + 2
    assert g == P(ctx, 1, 2)          # 2z + 1
    assert l == 0
    assert f.taylor_at_one().coeff(0) == ctx.one  # f(1) = 1 != 0
    assert f * gamma + g * beta == z_minus_one_pow(ctx, 6)


def test_step1_zero_cocycle_degenerate():
    ctx = make_context(3, 1)
    f, g, h, l, beta, gamma = birkhoff_step1(ctx, Poly.zero(ctx))
    assert f == Poly.one(ctx) and g.is_zero() and h.is_zero() and l == 0
    assert beta.is_zero() and gamma == z_minus_one_pow(ctx, 6)


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
    # every lambda at a few small (p, d): P*M*Q multiplied out in full
    reduced = gcd_at_one = 0
    for p, d in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ctx = make_context(p, d)
        for w in ctx.witt_elements():
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            co = build_A_primitive(ctx, w)
            cert = birkhoff_step2(ctx, co, *birkhoff_step1(ctx, co.A))
            prod = _pf_matmul(cert.P, _pf_matmul(build_transition(co).entries, cert.Q))
            assert prod[0][0] == PoleFraction(Poly.one(ctx), 0, cert.c - p)
            assert prod[1][1] == PoleFraction(Poly.one(ctx), 0, p - cert.c)
            assert prod[0][1].is_zero() and prod[1][0].is_zero()
            # alpha is a Laurent polynomial of valuation >= -2p: poles at z = 0 only
            assert cert.alpha.b == 0 and cert.alpha.a <= 2 * p
            reduced += not cert.g.is_zero() and cert.g.degree > cert.f.degree
            gcd_at_one += cert.l > 0
    # both step-1 paths stay covered: gamma' reduced mod g, and gcd (z-1)^l, l > 0
    assert reduced > 0 and gcd_at_one > 0


@pytest.mark.parametrize("p, d, coeffs", [(7, 1, (2,)), (5, 2, (1, 1))])
def test_no_school_division_by_degree_2p(monkeypatch, p, d, coeffs):
    # the three divisions by (z-1)^(2p) go through the block division; school
    # division is left to the Euclid steps and the reduction of gamma'
    divisor_degrees = []
    divrem = factorization.poly_divrem

    def counted(f, g):
        divisor_degrees.append(g.degree)
        return divrem(f, g)

    monkeypatch.setattr(factorization, "poly_divrem", counted)
    ctx = make_context(p, d)
    factorization_certificate(build_A_primitive(ctx, ctx.w_from_coeffs(coeffs)))
    assert divisor_degrees and 2 * p not in divisor_degrees


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
        f, g, h, l, _, _ = birkhoff_step1(ctx, co.A)
        c = max(f.degree, g.degree if not g.is_zero() else -1)
        wp = witt_decompose(w)
        tm = build_T(ctx, wp.lam0, wp.lam1)
        if c < p:
            sub = t_submatrix(tm, p - c)
            assert mat_rank(sub) == c  # full rank: rows = p - (p - c)
        if p - c - 1 >= 0:
            sub = t_submatrix(tm, p - c - 1)
            assert mat_rank(sub) < c + 1


# sha256 of every step-1 output (f, g, h, l) of the exhaustive test below, as
# computed by the remainder-system rank scan and null space that step 1 was
# before extended Euclid replaced it
STEP1_EXHAUSTIVE_SHA256 = "cbb404c03feef9766dd65f8749fd6c56cae4cbc77b8e8462fb7b41360959a659"


def test_step1_exhaustive_against_criterion_ranks():
    # every lift at d = 1 for p <= 11 and at d = 2 for p <= 5; the t method's
    # rank scan is the independent oracle for the minimal combined degree c
    digest = hashlib.sha256()
    cases = 0
    for p, d in ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2)):
        ctx = make_context(p, d)
        zp, d2 = Poly.monomial(ctx, p), z_minus_one_pow(ctx, 2 * p)
        for w in ctx.witt_elements():
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            A = build_A_primitive(ctx, w).A
            f, g, h, l, beta, gamma = birkhoff_step1(ctx, A)
            assert f * A + g * zp == h * d2
            assert f.lead() == ctx.one and g.degree <= p - 1
            c = max(f.degree, g.degree)
            # the Bezout partner from the previous Euclid row
            assert f * gamma + g * beta == d2
            assert (zp * gamma - A * beta).order_at_one() >= 2 * p
            assert beta.degree <= 2 * p - c and gamma.degree <= 2 * p - c
            wp = witt_decompose(w)
            n = splitting_from_T(ctx, wp.lam0, wp.lam1).n
            assert c == p - n
            tm = build_T(ctx, wp.lam0, wp.lam1)
            if n <= p - 1:
                assert mat_rank(t_submatrix(tm, n)) == p - n      # full rank
            if n >= 1:
                assert mat_rank(t_submatrix(tm, n - 1)) < p - n + 1
            for poly in (f, g, h):
                digest.update(len(poly.v).to_bytes(4, "little"))
                digest.update(poly.v.tobytes())
            digest.update(l.to_bytes(4, "little"))
            cases += 1
    assert cases == 790
    assert digest.hexdigest() == STEP1_EXHAUSTIVE_SHA256


def test_splitting_from_birkhoff_micro_cases():
    ctx = make_context(3, 1)
    st = splitting_from_birkhoff(build_A_primitive(ctx, ctx.w_from_int(-1)))
    assert st.n == 1 and st.periodic and st.method == "birkhoff"
    st = splitting_from_birkhoff(build_A_primitive(ctx, ctx.w_from_int(2)))
    assert st.n == 0 and not st.periodic


def test_agreement_with_T_exhaustive_p3():
    ctx = make_context(3, 1)
    for n in range(9):
        w = ctx.w_from_int(n)
        r = w.residue()
        if r.is_zero() or r == ctx.one:
            continue
        wp = witt_decompose(w)
        assert splitting_from_birkhoff(build_A_primitive(ctx, w)).n == \
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
        nb = splitting_from_birkhoff(build_A_primitive(ctx, lam)).n
        wp = witt_decompose(lam)
        assert nb == splitting_from_T(ctx, wp.lam0, wp.lam1).n


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
        "alpha": dataclasses.replace(cert, alpha=cert.alpha + PoleFraction(one)),
        "P entry": dataclasses.replace(cert, P=((p00 + PoleFraction(one), p01), (p10, p11))),
        "Q entry": dataclasses.replace(cert, Q=(q0, (q10, q11 + PoleFraction(one, 1, 0)))),
        # adding one row of P to the other keeps det P = 1, so only P*M*Q
        # can catch it; each row of P*M*Q is checked on its own
        "P row 1 into row 0": dataclasses.replace(cert, P=((p00 + p10, p01 + p11), (p10, p11))),
        "P row 0 into row 1": dataclasses.replace(cert, P=((p00, p01), (p10 + p00, p11 + p01))),
        # P row 0 times 2, Q column 0 times 1/2: P*M*Q is unchanged, det P is not
        "P, Q rescaled": dataclasses.replace(
            cert, P=((two * p00, two * p01), (p10, p11)),
            Q=((half * q0[0], q0[1]), (half * q10, q11))),
    }


# (p, d, coefficients of lambda); at p = 3, lambda = -1 is periodic (l = 1)
# and lambda = 2 is not (l = 0)
SHAPES = [pytest.param(3, 1, (-1,), id="3-1-lam=-1"),
          pytest.param(3, 1, (2,), id="3-1-lam=2"),
          pytest.param(7, 1, (2,), id="7-1-lam=2"),
          pytest.param(3, 2, (1, 1), id="3-2-lam=u+1"),
          pytest.param(7, 2, (1, 1), id="7-2-lam=u+1")]


def _shape_case(p, d, coeffs):
    ctx = make_context(p, d)
    lam = ctx.w_from_coeffs(coeffs)
    co = build_A_primitive(ctx, lam)
    return build_transition(co), factorization_certificate(co)


@pytest.mark.parametrize("p, d, coeffs", SHAPES)
def test_verify_certificate_rejects_perturbations(p, d, coeffs):
    m, cert = _shape_case(p, d, coeffs)
    assert verify_certificate(m, cert)
    for name, bad in _tampered(cert).items():
        assert not verify_certificate(m, bad), name


@pytest.mark.parametrize("p, d, coeffs", SHAPES)
def test_check_certificate_names_the_broken_identity(p, d, coeffs):
    m, cert = _shape_case(p, d, coeffs)
    # beta' enters the Bezout relation through g, the alpha relation through A
    broken = {"f": "step-1", "g": "step-1", "h": "step-1",
              "beta_prime": "Bezout" if not cert.g.is_zero() else "alpha",
              "gamma_prime": "Bezout", "alpha": "alpha", "c": "P*M*Q",
              "P entry": "det P", "Q entry": "det Q", "P row 1 into row 0": "P*M*Q",
              "P row 0 into row 1": "P*M*Q",
              "P, Q rescaled": "det P"}
    for name, bad in _tampered(cert).items():
        with pytest.raises(CertificateCheckFailed) as err:
            check_certificate(m, bad)
        assert f"identity {broken[name]} does not hold" in str(err.value), name


def test_step2_names_the_identity_its_certificate_breaks(monkeypatch):
    # every construction invariant holds against a wrong M; only the final check sees it
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    m = build_transition(co)
    (top, zero), (low, diag) = m.entries
    low = low + PoleFraction(Poly.one(ctx))
    wrong = dataclasses.replace(m, entries=((top, zero), (low, diag)))
    monkeypatch.setattr(factorization, "build_transition", lambda cocycle: wrong)
    with pytest.raises(CertificateCheckFailed, match=r"identity P\*M\*Q does not hold"):
        birkhoff_step2(ctx, co, *birkhoff_step1(ctx, co.A))


def test_step2_rejects_inconsistent_input():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, l, beta, gamma = birkhoff_step1(ctx, co.A)
    with pytest.raises(CertificateCheckFailed, match="identity step-1"):
        birkhoff_step2(ctx, co, f + Poly.one(ctx), g, h, l, beta, gamma)


def test_step2_rejects_degrees_out_of_bounds():
    ctx = make_context(5, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, l, beta, gamma = birkhoff_step1(ctx, co.A)
    c = max(f.degree, g.degree)
    with pytest.raises(CertificateCheckFailed, match="combined degree"):
        birkhoff_step2(ctx, co, Poly.monomial(ctx, 6), g, h, l, beta, gamma)
    with pytest.raises(CertificateCheckFailed, match="combined degree"):
        birkhoff_step2(ctx, co, Poly.zero(ctx), Poly.zero(ctx), h, l, beta, gamma)
    over = Poly.monomial(ctx, 10 - c + 1)  # degree 2p - c + 1
    with pytest.raises(CertificateCheckFailed, match="degree bounds"):
        birkhoff_step2(ctx, co, f, g, h, l, beta + over, gamma)
    with pytest.raises(CertificateCheckFailed, match="degree bounds"):
        birkhoff_step2(ctx, co, f, g, h, l, beta, gamma + over)


def test_step2_gcd_check_rejects_factor_coprime_to_z_minus_one():
    # step 1 reads l off the orders at z = 1 only; the Bezout identity is the
    # one check that gcd(f, g) has no other factor
    for p, d in ((5, 1), (7, 1), (3, 2)):
        ctx = make_context(p, d)
        cases = 0
        for w in ctx.witt_elements():
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            co = build_A_primitive(ctx, w)
            f, g, h, l, beta, gamma = birkhoff_step1(ctx, co.A)
            if max(f.degree, g.degree) >= p:
                continue  # the extra factor would push c past p first
            cases += 1
            extra = P(ctx, -2, 1)
            # (beta', gamma') fit the old c, or their Bezout sum is extra*(z-1)^(2p)
            with pytest.raises(CertificateCheckFailed,
                               match=r"identity Bezout|degree bounds"):
                birkhoff_step2(ctx, co, f * extra, g * extra, h * extra, l, beta, gamma)
        assert cases > 0


def test_certificate_determinism():
    ctx = make_context(5, 1)
    a = factorization_certificate(build_A_primitive(ctx, ctx.w_from_int(7)))
    b = factorization_certificate(build_A_primitive(ctx, ctx.w_from_int(7)))
    # no state carries over between calls: the certificate is a function of lambda
    assert a.f == b.f and a.g == b.g and a.h == b.h
    assert (a.l, a.c, a.n) == (b.l, b.c, b.n)
    assert a.beta_prime == b.beta_prime and a.gamma_prime == b.gamma_prime


def test_certificate_records_gcd_order_at_one():
    ctx = make_context(3, 1)
    assert factorization_certificate(build_A_primitive(ctx, ctx.w_from_int(-1))).l == 1
    assert factorization_certificate(build_A_primitive(ctx, ctx.w_from_int(2))).l == 0
