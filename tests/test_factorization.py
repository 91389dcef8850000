import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from higgsflow import factorization
from higgsflow.cocycle import build_A_closed, build_A_primitive, build_transition
from higgsflow.criterion import splitting_from_T, t_submatrix, build_T
from higgsflow.errors import CertificateCheckFailed, DegreeTooLarge
from higgsflow.factorization import (assemble_certificate, birkhoff_step1, birkhoff_step2,
                                     check_certificate, euclid_rows,
                                     factorization_certificate, splitting_from_birkhoff,
                                     verify_certificate)
from higgsflow.fields import make_context, witt_compose, witt_decompose
from higgsflow.linalg import mat_rank
from higgsflow.polys import Poly, divrem_modulus, poly_divrem

from certificate_reference import (PoleFraction, frame_fractions, matmul, order_at_one,
                                   reference_check, transition_fractions, z_minus_one_pow)


def P(ctx, *ints):
    return Poly.from_ints(ctx, ints)


def _pmq(m, cert):
    """P*M*Q multiplied out as rational functions."""
    frame_p, frame_q = frame_fractions(cert)
    return matmul(frame_p, matmul(transition_fractions(m), frame_q))


def test_step1_micro_case_periodic():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, beta, gamma = birkhoff_step1(ctx, co.A)
    assert f == P(ctx, 2, 0, 1)       # z^2 + 2
    assert g == P(ctx, 1, 1, 1)       # z^2 + z + 1
    assert order_at_one(f, g) == 1
    assert f * co.A + g * Poly.monomial(ctx, 3) == h * z_minus_one_pow(ctx, 6)
    assert f * gamma + g * beta == z_minus_one_pow(ctx, 6)


def test_step1_micro_case_nonperiodic():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(2))
    f, g, h, beta, gamma = birkhoff_step1(ctx, co.A)
    assert f == P(ctx, 2, 0, 1, 1)    # z^3 + z^2 + 2
    assert g == P(ctx, 1, 2)          # 2z + 1
    assert order_at_one(f, g) == 0
    assert f.taylor_at_one().coeff(0) == ctx.one  # f(1) = 1 != 0
    assert f * gamma + g * beta == z_minus_one_pow(ctx, 6)


def test_step1_zero_cocycle_degenerate():
    ctx = make_context(3, 1)
    f, g, h, beta, gamma = birkhoff_step1(ctx, Poly.zero(ctx))
    assert f == Poly.one(ctx) and g.is_zero() and h.is_zero() and order_at_one(f, g) == 0
    assert beta.is_zero() and gamma == z_minus_one_pow(ctx, 6)


def test_step1_degree_guard():
    ctx = make_context(3, 1)
    with pytest.raises(DegreeTooLarge):
        birkhoff_step1(ctx, Poly.monomial(ctx, 6))
    # one long row rejects its whole stack
    A = build_A_primitive(ctx, ctx.w_from_int(-1)).A
    with pytest.raises(DegreeTooLarge):
        birkhoff_step1(ctx, [A, Poly.monomial(ctx, 6)])


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
    prod = _pmq(build_transition(co), cert)
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
            prod = _pmq(build_transition(co), cert)
            assert prod[0][0] == PoleFraction(Poly.one(ctx), 0, cert.c - p)
            assert prod[1][1] == PoleFraction(Poly.one(ctx), 0, p - cert.c)
            assert prod[0][1].is_zero() and prod[1][0].is_zero()
            # alpha = alpha~/z^p has poles at z = 0 and infinity only, of
            # order at most p at 0 and p - 1 - c at infinity
            assert cert.alpha.degree <= 2 * p - 1 - cert.c
            reduced += not cert.g.is_zero() and cert.g.degree > cert.f.degree
            gcd_at_one += order_at_one(cert.f, cert.g) > 0
    # both step-1 paths stay covered: gamma' reduced mod g, and gcd(f, g) = (z-1)^l, l > 0
    assert reduced > 0 and gcd_at_one > 0


# lambda = 17 at p = 7 has deg g > deg f, so gamma' is reduced mod g
@pytest.mark.parametrize("p, d, coeffs", [(7, 1, (2,)), (5, 2, (1, 1)), (7, 1, (17,))])
def test_no_school_division_by_degree_2p(monkeypatch, p, d, coeffs):
    # step 1's Euclid makes no school division; only the reduction of gamma'
    # may, by g of degree < p, and the two divisions by G = (z-1)^(2p) go
    # through the block division
    divisor_degrees = []
    divrem = factorization.poly_divrem

    def counted(f, g):
        divisor_degrees.append(g.degree)
        return divrem(f, g)

    monkeypatch.setattr(factorization, "poly_divrem", counted)
    ctx = make_context(p, d)
    co = build_A_primitive(ctx, ctx.w_from_coeffs(coeffs))
    _, B = divrem_modulus(co.A * (Poly.from_ints(ctx, [2]) - Poly.monomial(ctx, p)))
    euclid_rows(z_minus_one_pow(ctx, 2 * p), B, p)
    assert divisor_degrees == []
    cert = factorization_certificate(co)
    reduced = not cert.g.is_zero() and cert.g.degree > cert.f.degree
    assert divisor_degrees == ([cert.g.degree] if reduced else [])
    assert all(deg < 2 * p for deg in divisor_degrees)


def test_step1_builds_no_polynomial_per_euclid_step(monkeypatch):
    # the Euclid rows live in two preallocated arrays: the number of Poly
    # objects one step-1 call builds does not grow with p
    built = []
    init = Poly.__init__

    def counted(self, *args, **kwargs):
        built[-1] += 1
        init(self, *args, **kwargs)

    for p in (53, 101):
        ctx = make_context(p, 1)
        A = build_A_primitive(ctx, ctx.w_from_int(-1)).A
        built.append(0)
        monkeypatch.setattr(Poly, "__init__", counted)
        birkhoff_step1(ctx, A)
        monkeypatch.undo()
    assert built[0] == built[1]


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
        f, g, h, _, _ = birkhoff_step1(ctx, co.A)
        c = max(f.degree, g.degree if not g.is_zero() else -1)
        tm = build_T(co)
        if c < p:
            sub = t_submatrix(tm, p - c)
            assert mat_rank(sub) == c  # full rank: rows = p - (p - c)
        if p - c - 1 >= 0:
            sub = t_submatrix(tm, p - c - 1)
            assert mat_rank(sub) < c + 1


def _reference_euclid(G, B, stop, quotient_degrees):
    """Step 1's Euclid loop as written with poly_divrem and Poly rows.

    The reference for euclid_rows; records the degree of every quotient.
    """
    ctx = G.ctx
    r0, r1 = G, B
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    sign = 1
    while r1.degree >= stop:
        q, r = poly_divrem(r0, r1)
        quotient_degrees.add(q.degree)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
        sign = -sign
    return r0, t0, r1, t1, sign


def _reference_step1(ctx, A, quotient_degrees):
    """birkhoff_step1 around the reference loop, products written out."""
    p = ctx.p
    d2, zp = z_minus_one_pow(ctx, 2 * p), Poly.monomial(ctx, p)
    _, B = divrem_modulus(A * (Poly.from_ints(ctx, [2]) - zp))
    r0, t0, r1, t1, sign = _reference_euclid(d2, B, p, quotient_degrees)
    lead = t1.lead()
    f, g = t1.scale(lead.inverse()), -r1.scale(lead.inverse())
    h, _ = divrem_modulus(f * A + g * zp)
    s = lead if sign == 1 else -lead
    beta, gamma = t0.scale(s), r0.scale(s)
    if not g.is_zero() and g.degree > f.degree:
        q, gamma = poly_divrem(gamma, g)
        beta = beta + q * f
    return f, g, h, beta, gamma


# sha256 of every step-1 output (f, g, h) of the exhaustive test below and the
# order l of gcd(f, g) at z = 1, as
# computed by the remainder-system rank scan and null space that step 1 was
# before extended Euclid replaced it
STEP1_EXHAUSTIVE_SHA256 = "cbb404c03feef9766dd65f8749fd6c56cae4cbc77b8e8462fb7b41360959a659"


def test_step1_exhaustive_against_criterion_ranks():
    # every lift at d = 1 for p <= 11 and at d = 2 for p <= 5; the t method's
    # rank scan is the independent oracle for the minimal combined degree c,
    # and the Euclid loop on Poly rows the reference for the in-place one
    digest = hashlib.sha256()
    cases = 0
    quotient_degrees = set()
    for p, d in ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2)):
        ctx = make_context(p, d)
        zp, d2 = Poly.monomial(ctx, p), z_minus_one_pow(ctx, 2 * p)
        for w in ctx.witt_elements():
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            co = build_A_primitive(ctx, w)
            A = co.A
            f, g, h, beta, gamma = out = birkhoff_step1(ctx, A)
            assert out == _reference_step1(ctx, A, quotient_degrees)
            assert f * A + g * zp == h * d2
            assert f.lead() == ctx.one and g.degree <= p - 1
            c = max(f.degree, g.degree)
            # the Bezout partner from the previous Euclid row
            assert f * gamma + g * beta == d2
            assert divrem_modulus(zp * gamma - A * beta)[1].is_zero()
            assert beta.degree <= 2 * p - c and gamma.degree <= 2 * p - c
            n = splitting_from_T(co).n
            assert c == p - n
            tm = build_T(co)
            if n <= p - 1:
                assert mat_rank(t_submatrix(tm, n)) == p - n      # full rank
            if n >= 1:
                assert mat_rank(t_submatrix(tm, n - 1)) < p - n + 1
            for poly in (f, g, h):
                digest.update(len(poly.v).to_bytes(4, "little"))
                digest.update(poly.v.tobytes())
            digest.update(order_at_one(f, g).to_bytes(4, "little"))
            cases += 1
        # no lift's remainder reaches zero; a residue divisible by (z-1)^p does
        B = z_minus_one_pow(ctx, p) * (Poly.monomial(ctx, p - 1) + Poly.one(ctx))
        rows = euclid_rows(d2, B, p)
        assert rows == _reference_euclid(d2, B, p, set())
        assert rows[2].is_zero() and rows[0] == z_minus_one_pow(ctx, p).scale(rows[0].lead())
    assert cases == 790
    assert digest.hexdigest() == STEP1_EXHAUSTIVE_SHA256
    # the in-place quotient step is met beyond degree 1
    assert max(quotient_degrees) >= 2


def _lifts(ctx):
    """Every lifted parameter of the context whose residue avoids {0, 1}."""
    return [w for w in ctx.witt_elements()
            if not (w.residue().is_zero() or w.residue() == ctx.one)]


def _counting(monkeypatch, calls, *names):
    """Count the calls of factorization's functions of these names."""
    for name in names:
        fn = getattr(factorization, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(factorization, name, counted)


def _euclid_shape(G, B, stop):
    """(steps, largest quotient degree) of the Euclid on (G, B) by poly_divrem."""
    degrees = []
    r0, r1 = G, B
    while r1.degree >= stop:
        degrees.append(r0.degree - r1.degree)
        r0, r1 = r1, poly_divrem(r0, r1)[1]
    return len(degrees), max(degrees, default=0)


def test_lockstep_step1_matches_single_rows(monkeypatch):
    # every lift at d = 1 for p <= 13 and at d = 2 for p <= 5, one stack per
    # field: each row's (f, g, h, beta', gamma') and Euclid rows and sign
    # equal those of a stack of one, so both quotient routines are met
    calls = Counter()
    _counting(monkeypatch, calls, "_quotient_one", "_quotient_stack")
    for p, d in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)):
        ctx = make_context(p, d)
        zp, d2 = Poly.monomial(ctx, p), z_minus_one_pow(ctx, 2 * p)
        As = [build_A_primitive(ctx, w).A for w in _lifts(ctx)]
        assert birkhoff_step1(ctx, As) == [birkhoff_step1(ctx, A) for A in As]
        Bs = [divrem_modulus(A * (Poly.from_ints(ctx, [2]) - zp))[1] for A in As]
        assert euclid_rows(d2, Bs, p) == [euclid_rows(d2, B, p) for B in Bs]
    assert calls["_quotient_one"] and calls["_quotient_stack"]


def test_lockstep_mixed_stack():
    # one stack holding the zero-remainder input, B = 0, and lifts whose
    # Euclids take different numbers of steps and quotients of degree >= 2
    p = 7
    ctx = make_context(p, 1)
    zp, d2 = Poly.monomial(ctx, p), z_minus_one_pow(ctx, 2 * p)
    two_minus_zp = Poly.from_ints(ctx, [2]) - zp
    by_shape = {}           # one lift per (steps, largest quotient degree)
    for w in _lifts(ctx):
        B = divrem_modulus(build_A_primitive(ctx, w).A * two_minus_zp)[1]
        by_shape.setdefault(_euclid_shape(d2, B, p), B)
    lifts = list(by_shape.values())
    assert len({s for s, _ in by_shape}) >= 3 and max(q for _, q in by_shape) >= 2
    zero_rem = z_minus_one_pow(ctx, p) * (Poly.monomial(ctx, p - 1) + Poly.one(ctx))
    stack = [zero_rem, Poly.zero(ctx)] + lifts
    rows = euclid_rows(d2, stack, p)
    for B, row in zip(stack, rows):
        assert row == euclid_rows(d2, B, p) == _reference_euclid(d2, B, p, set())
    assert rows[0][2].is_zero()
    assert rows[1] == (d2, Poly.zero(ctx), Poly.zero(ctx), Poly.one(ctx), 1)
    # A = 0 in a stack leaves f = 1 and g = 0, as it does alone
    A = build_A_primitive(ctx, ctx.w_from_int(-1)).A
    out = birkhoff_step1(ctx, [Poly.zero(ctx), A])
    assert out == [birkhoff_step1(ctx, Poly.zero(ctx)), birkhoff_step1(ctx, A)]
    assert out[0][0] == Poly.one(ctx) and out[0][1].is_zero()


def test_lockstep_iterates_as_often_as_the_longest_row(monkeypatch):
    # the 35 rows of enumerate 7: the lockstep loop steps once per step of
    # the row that needs the most, not once per step of every row
    p = 7
    ctx = make_context(p, 1)
    As = [build_A_primitive(ctx, witt_compose(ctx.f_from_int(a), ctx.f_from_int(b))).A
          for a in range(2, p) for b in range(p)]
    calls = Counter()
    _counting(monkeypatch, calls, "_quotient_one", "_quotient_stack")
    steps = []
    for A in As:
        calls.clear()
        birkhoff_step1(ctx, A)
        steps.append(calls["_quotient_one"])
    calls.clear()
    birkhoff_step1(ctx, As)
    assert calls == {"_quotient_stack": max(steps)}
    assert (max(steps), sum(steps)) == (6, 168)


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
        # t reads the closed form, so the two constructions of A meet here
        wp = witt_decompose(w)
        assert splitting_from_birkhoff(build_A_primitive(ctx, w)).n == \
            splitting_from_T(build_A_closed(ctx, wp.lam0, wp.lam1)).n


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
        assert nb == splitting_from_T(build_A_closed(ctx, wp.lam0, wp.lam1)).n


def _tampered(m, cert):
    """(M, certificate) pairs that each break one identity the verifier checks."""
    ctx = cert.f.ctx
    p = ctx.p
    one = Poly.one(ctx)
    (p00, p01), (p10, p11) = cert.P
    q0, (q10, q11) = cert.Q
    two, half = ctx.f_from_int(2), ctx.f_from_int((p + 1) // 2)
    bad = {name: dataclasses.replace(cert, **{name: getattr(cert, name) + one})
           for name in ("f", "g", "h", "beta_prime", "gamma_prime", "alpha")}
    # moving the Bezout partner by k*(f, -g) keeps every identity but the
    # degree bounds: Q is then not regular at infinity
    k = Poly.monomial(ctx, 3 * p)
    bad |= {
        "c": dataclasses.replace(cert, c=cert.c - 1, n=cert.n + 1),
        "P entry": dataclasses.replace(cert, P=((p00 + one, p01), (p10, p11))),
        "Q entry": dataclasses.replace(cert, Q=(q0, (q10, q11 + one))),
        # adding one row of P to the other keeps det P = 1, so only P*M*Q
        # can catch it; each row of P*M*Q is checked on its own
        "P row 1 into row 0": dataclasses.replace(cert, P=((p00 + p10, p01 + p11), (p10, p11))),
        "P row 0 into row 1": dataclasses.replace(cert, P=((p00, p01), (p10 + p00, p11 + p01))),
        # P row 0 times 2, Q column 0 times 1/2: P*M*Q is unchanged, det P is not
        "P, Q rescaled": dataclasses.replace(
            cert, P=((p00.scale(two), p01.scale(two)), (p10, p11)),
            Q=((q0[0].scale(half), q0[1]), (q10.scale(half), q11))),
        "Bezout partner shifted": assemble_certificate(
            m.cocycle, cert.f, cert.g, cert.h, cert.beta_prime + k * cert.f,
            cert.gamma_prime - k * cert.g, cert.alpha - k * cert.h),
    }
    pairs = {name: (m, c) for name, c in bad.items()}
    pairs["M lower-left"] = (dataclasses.replace(m, lower_left=m.lower_left + one), cert)
    return pairs


# (p, d, coefficients of lambda); at p = 3, lambda = -1 is periodic
# (gcd(f, g) = z - 1) and lambda = 2 is not (gcd(f, g) = 1)
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
    for name, (bad_m, bad) in _tampered(m, cert).items():
        assert not verify_certificate(bad_m, bad), name


@pytest.mark.parametrize("p, d, coeffs", SHAPES)
def test_check_certificate_names_the_broken_identity(p, d, coeffs):
    m, cert = _shape_case(p, d, coeffs)
    # beta' enters the Bezout relation through g, the alpha relation through A.
    # c sets only Q's fixed denominators: with c - 1, P*M*Q still holds with
    # diag((z-1)^(p-c+1), (z-1)^(c-1-p)), but Q has a pole at infinity.  The
    # pole-fraction reference names the same identity as the check
    broken = {"f": "step-1", "g": "step-1", "h": "step-1",
              "beta_prime": "Bezout" if not cert.g.is_zero() else "alpha",
              "gamma_prime": "Bezout", "alpha": "alpha", "c": "degree bounds",
              "P entry": "det P", "Q entry": "det Q", "P row 1 into row 0": "P*M*Q",
              "P row 0 into row 1": "P*M*Q",
              "P, Q rescaled": "det P", "Bezout partner shifted": "degree bounds",
              "M lower-left": "P*M*Q"}
    for name, (bad_m, bad) in _tampered(m, cert).items():
        for check in (check_certificate, reference_check):
            with pytest.raises(CertificateCheckFailed) as err:
                check(bad_m, bad)
            assert f"identity {broken[name]} does not hold" in str(err.value), name


def _verdict(check, m, cert):
    try:
        check(m, cert)
    except CertificateCheckFailed:
        return False
    return True


def test_check_agrees_with_the_rational_function_reference():
    # every lift at d = 1 for p <= 13 and at d = 2 for p <= 5: the polynomial
    # identities and the pole-fraction reference accept the same certificates,
    # and reject the same tampered ones (every tamper for q <= 9, at every
    # eighth lift above)
    cases = 0
    for p, d in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)):
        ctx = make_context(p, d)
        for i, w in enumerate(ctx.witt_elements()):
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            co = build_A_primitive(ctx, w)
            m, cert = build_transition(co), factorization_certificate(co)
            assert _verdict(check_certificate, m, cert) and _verdict(reference_check, m, cert)
            cases += 1
            if ctx.q <= 9 or i % 8 == 0:
                for name, (bad_m, bad) in _tampered(m, cert).items():
                    assert not _verdict(check_certificate, bad_m, bad), (p, d, name)
                    assert not _verdict(reference_check, bad_m, bad), (p, d, name)
    assert cases == 295 + 63 + 575


@pytest.mark.parametrize("p, d", [(7, 1), (101, 1), (7, 2)])
def test_check_builds_no_polynomial_and_makes_ten_products(monkeypatch, p, d):
    ctx = make_context(p, d)
    co = build_A_primitive(ctx, ctx.w_from_coeffs((-1,) + (1,) * (d - 1)))
    m, cert = build_transition(co), factorization_certificate(co)
    built, products = [], []
    init, convolve = Poly.__init__, factorization.convolve_into

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_convolve(*args):
        products.append(1)
        convolve(*args)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(factorization, "convolve_into", counted_convolve)
    check_certificate(m, cert)
    assert len(built) == 0 and len(products) == 10


def test_step2_names_the_identity_its_certificate_breaks(monkeypatch):
    # every construction invariant holds against a wrong M; only the final check sees it
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    m = build_transition(co)
    wrong = dataclasses.replace(m, lower_left=m.lower_left + Poly.one(ctx))
    monkeypatch.setattr(factorization, "build_transition", lambda cocycle: wrong)
    with pytest.raises(CertificateCheckFailed, match=r"identity P\*M\*Q does not hold"):
        birkhoff_step2(ctx, co, *birkhoff_step1(ctx, co.A))


def test_step2_rejects_inconsistent_input():
    ctx = make_context(3, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, beta, gamma = birkhoff_step1(ctx, co.A)
    with pytest.raises(CertificateCheckFailed, match="identity step-1"):
        birkhoff_step2(ctx, co, f + Poly.one(ctx), g, h, beta, gamma)


def test_step2_rejects_degrees_out_of_bounds():
    ctx = make_context(5, 1)
    co = build_A_primitive(ctx, ctx.w_from_int(-1))
    f, g, h, beta, gamma = birkhoff_step1(ctx, co.A)
    c = max(f.degree, g.degree)
    with pytest.raises(CertificateCheckFailed, match="combined degree"):
        birkhoff_step2(ctx, co, Poly.monomial(ctx, 6), g, h, beta, gamma)
    with pytest.raises(CertificateCheckFailed, match="combined degree"):
        birkhoff_step2(ctx, co, Poly.zero(ctx), Poly.zero(ctx), h, beta, gamma)
    over = Poly.monomial(ctx, 10 - c + 1)  # degree 2p - c + 1
    with pytest.raises(CertificateCheckFailed, match="degree bounds"):
        birkhoff_step2(ctx, co, f, g, h, beta + over, gamma)
    with pytest.raises(CertificateCheckFailed, match="degree bounds"):
        birkhoff_step2(ctx, co, f, g, h, beta, gamma + over)


def test_step2_gcd_check_rejects_factor_coprime_to_z_minus_one():
    # the Bezout identity is the one check that gcd(f, g) has no factor
    # prime to z - 1
    for p, d in ((5, 1), (7, 1), (3, 2)):
        ctx = make_context(p, d)
        cases = 0
        for w in ctx.witt_elements():
            r = w.residue()
            if r.is_zero() or r == ctx.one:
                continue
            co = build_A_primitive(ctx, w)
            f, g, h, beta, gamma = birkhoff_step1(ctx, co.A)
            if max(f.degree, g.degree) >= p:
                continue  # the extra factor would push c past p first
            cases += 1
            extra = P(ctx, -2, 1)
            # (beta', gamma') fit the old c, or their Bezout sum is extra*(z-1)^(2p)
            with pytest.raises(CertificateCheckFailed,
                               match=r"identity Bezout|degree bounds"):
                birkhoff_step2(ctx, co, f * extra, g * extra, h * extra, beta, gamma)
        assert cases > 0


def test_certificate_determinism():
    ctx = make_context(5, 1)
    a = factorization_certificate(build_A_primitive(ctx, ctx.w_from_int(7)))
    b = factorization_certificate(build_A_primitive(ctx, ctx.w_from_int(7)))
    # no state carries over between calls: the certificate is a function of lambda
    assert a.f == b.f and a.g == b.g and a.h == b.h
    assert (a.c, a.n) == (b.c, b.n)
    assert a.beta_prime == b.beta_prime and a.gamma_prime == b.gamma_prime

