"""Algebraic numbers to scan, their reductions, and the built-in catalog.

A scan target is a primitive integer minimal polynomial of degree 1 or 2.
Reduction at an odd prime finds the roots mod p in F_p, or in F_{p^2} when
the quadratic is inert, and lifts each to the Galois ring of characteristic
p² by one Newton step.  Degenerate reductions (prime divides leading
coefficient or discriminant, residue 0 or 1) are reported as bad-prime
data rather than failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import gcd, isqrt

from .errors import (DegreeUnsupported, ForbiddenValue, InternalInvariantFailure,
                     NonInvertible, NotPrime, ReducibleMinpoly)
from .fields import (FieldElement, WittParameter, WittRingElement, check_residue,
                     is_prime, make_context, witt_decompose)

BAD_DIVIDES_LEADING = "DividesLeadingCoeff"
BAD_DIVIDES_DISC = "DividesDiscriminant"
BAD_RESIDUE_ZERO = "ResidueZero"
BAD_RESIDUE_ONE = "ResidueOne"
BAD_PRIME_TOO_SMALL = "PrimeTooSmall"


@dataclass(frozen=True)
class LambdaSpec:
    """Primitive integer minimal polynomial, constant term first."""

    minpoly: tuple[int, ...]
    label: str

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1


@dataclass(frozen=True)
class ReductionDatum:
    """One place of the reduction at p, or a bad-prime marker."""

    p: int
    place: int
    d: int
    witt: WittParameter | None = None
    bad_reason: str | None = None

    @property
    def is_bad(self) -> bool:
        return self.bad_reason is not None


@dataclass(frozen=True)
class BeauvilleEntry:
    spec: LambdaSpec
    note: str
    rational: tuple[int, int] | None = None
    radical: dict | None = None


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _normalize_minpoly(coeffs: list[int]) -> tuple[int, ...]:
    if not coeffs or coeffs[-1] == 0:
        raise ReducibleMinpoly("leading coefficient must be nonzero")
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    coeffs = [c // g for c in coeffs]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


def _validate_spec(coeffs: tuple[int, ...]) -> None:
    deg = len(coeffs) - 1
    if deg not in (1, 2):
        raise DegreeUnsupported(f"degree {deg} not supported; use 1 or 2")
    if deg == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c0 * c2
        if _is_perfect_square(disc):
            raise ReducibleMinpoly("quadratic splits over the rationals")
    if coeffs[0] == 0:
        raise ForbiddenValue("0 is excluded: the marked points collide")
    if sum(coeffs) == 0:
        raise ForbiddenValue("1 is excluded: the marked points collide")


def parse_lambda_spec(text: str) -> LambdaSpec:
    """Parse either a rational 'a/b' (or integer) or a coefficient list."""
    raw = text.strip()
    if "," in raw:
        try:
            coeffs = [int(t.strip()) for t in raw.split(",")]
        except ValueError as exc:
            raise DegreeUnsupported(f"cannot parse coefficients {raw!r}") from exc
        if len(coeffs) > 3:
            raise DegreeUnsupported("at most three coefficients (degree 2)")
        if len(coeffs) < 2:
            raise DegreeUnsupported("need at least a degree-1 polynomial")
        mp = _normalize_minpoly(coeffs)
        _validate_spec(mp)
        # semicolons keep the label usable as a CSV cell
        label = raw.replace(" ", "").replace(",", ";")
        return LambdaSpec(minpoly=mp, label=label)
    try:
        if "/" in raw:
            a_s, b_s = raw.split("/")
            a, b = int(a_s), int(b_s)
        else:
            a, b = int(raw), 1
    except ValueError as exc:
        raise DegreeUnsupported(f"cannot parse rational {raw!r}") from exc
    if b == 0:
        raise ForbiddenValue("denominator is zero")
    if b < 0:
        a, b = -a, -b
    g = gcd(a, b)
    a, b = a // g, b // g
    mp = _normalize_minpoly([-a, b])
    _validate_spec(mp)
    label = f"{a}" if b == 1 else f"{a}/{b}"
    return LambdaSpec(minpoly=mp, label=label)


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a nonzero square a mod the odd prime p, by Tonelli-Shanks.

    With p - 1 = s 2^m, s odd, and z a non-square, c = z^s generates the
    2-Sylow subgroup.  r = a^((s+1)/2) has r^2 = a t with t = a^s in that
    subgroup; each round multiplies r by a power b of c that lowers the
    order 2^i of t, until t = 1.  A zero or a non-square never reaches it,
    and the search for i raises StopIteration.
    """
    s, m = p - 1, 0
    while s % 2 == 0:
        s, m = s // 2, m + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, s, p), pow(a, s, p), pow(a, (s + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _minpoly_eval_ring(coeffs, x: WittRingElement) -> WittRingElement:
    ctx = x.ctx
    acc = ctx.w_from_int(0)
    for c in reversed(coeffs):
        acc = acc * x + ctx.w_from_int(c)
    return acc


def _field(contexts: dict | None, p: int, d: int):
    """The context of F_{p^d} from contexts, built and kept there when absent."""
    if contexts is None:
        return make_context(p, d)
    if d not in contexts:
        contexts[d] = make_context(p, d)
    return contexts[d]


def reduce_at_prime(spec: LambdaSpec, p: int, both_embeddings: bool = False,
                    contexts: dict | None = None) -> list[ReductionDatum]:
    """All reduction data of the scan target at one prime.

    The roots of the minimal polynomial live in F_p (d = 1) when the target
    is rational or the quadratic splits mod p, and in F_{p^2} (d = 2) when
    it is inert.  Each root is lifted to the Galois ring by one Newton step
    and split into twisted Witt coordinates, the convention of the cocycle
    numerator A.  Split primes contribute one datum per root (each root is
    its own place), sorted by field index; inert primes contribute the
    canonical embedding, or both when both_embeddings is set.  Degenerate
    reductions come back as bad-prime markers, never as exceptions.
    A caller that reduces several targets at p passes one dict as
    contexts, keyed by d, so they share one context per field.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 3:
        return [ReductionDatum(p=p, place=0, d=1, bad_reason=BAD_PRIME_TOO_SMALL)]
    c = spec.minpoly
    if c[-1] % p == 0:
        return [ReductionDatum(p=p, place=0, d=1, bad_reason=BAD_DIVIDES_LEADING)]
    if spec.degree == 1:
        ctx = _field(contexts, p, 1)
        roots = [ctx.f_from_int(-c[0]) / ctx.f_from_int(c[1])]
    else:
        c0, c1, c2 = c
        disc = c1 * c1 - 4 * c0 * c2
        if disc % p == 0:
            return [ReductionDatum(p=p, place=0, d=1, bad_reason=BAD_DIVIDES_DISC)]
        ctx = _field(contexts, p, 1 if pow(disc, (p - 1) // 2, p) == 1 else 2)
        # x^(d-1) squares to (-c0)^(d-1), so sqrt(disc) = r x^(d-1) with r in F_p:
        # at an inert prime disc and -c0 are both non-squares, so disc/(-c0) is a square
        r = _sqrt_mod_p(disc * pow(-ctx.modulus[0], 1 - ctx.d, p), p)
        root_disc = ctx.f_from_coeffs([0] * (ctx.d - 1) + [r])
        half = ctx.f_from_int(2 * c2).inverse()
        minus_c1 = ctx.f_from_int(-c1)
        roots = sorted([(minus_c1 + root_disc) * half, (minus_c1 - root_disc) * half],
                       key=FieldElement.index)
        if ctx.d == 2 and not both_embeddings:
            roots = roots[:1]
    derivative = [k * c[k] for k in range(1, len(c))]
    out = []
    for place, r in enumerate(roots):
        if r.is_zero() or r == ctx.one:
            reason = BAD_RESIDUE_ZERO if r.is_zero() else BAD_RESIDUE_ONE
            out.append(ReductionDatum(p=p, place=place, d=ctx.d, bad_reason=reason))
            continue
        x = r.lift()
        lam = x - _minpoly_eval_ring(c, x) * _minpoly_eval_ring(derivative, x).inverse()
        if not _minpoly_eval_ring(c, lam).is_zero():
            raise InternalInvariantFailure(f"Hensel lift failed at p = {p}")
        out.append(ReductionDatum(p=p, place=place, d=ctx.d,
                                  witt=witt_decompose(lam)))
    return out


def w2_orbit(lam: WittRingElement) -> list[WittRingElement]:
    """The six-fold Moebius orbit of the lifted parameter, deduplicated.

    {lam, 1-lam, 1/lam, 1/(1-lam), (lam-1)/lam, lam/(lam-1)}; once the
    residue avoids {0, 1} every member is invertible where needed, so the
    NonInvertible guard is purely defensive.
    """
    ctx = lam.ctx
    check_residue(lam.residue())
    one = ctx.w_from_int(1)
    try:
        one_minus = one - lam
        members = [lam, one_minus, lam.inverse(), one_minus.inverse(),
                   (lam - one) * lam.inverse(), lam * (lam - one).inverse()]
    except ZeroDivisionError as exc:
        raise NonInvertible(str(exc)) from exc
    seen, out = set(), []
    for m in members:
        if m.vec not in seen:
            seen.add(m.vec)
            out.append(m)
    return out


def beauville_catalog() -> list[BeauvilleEntry]:
    """The 17 catalog numbers, read from the versioned data file."""
    raw = json.loads(resources.files("higgsflow")
                     .joinpath("data/beauville.json").read_text("utf-8"))
    entries = []
    for e in raw["entries"]:
        mp = _normalize_minpoly(list(e["minpoly"]))
        _validate_spec(mp)
        entries.append(BeauvilleEntry(
            spec=LambdaSpec(minpoly=mp, label=e["label"]),
            note=e["note"],
            rational=tuple(e["rational"]) if "rational" in e else None,
            radical=e.get("radical")))
    if len(entries) != 17:
        raise InternalInvariantFailure("catalog must hold exactly 17 entries")
    return entries
