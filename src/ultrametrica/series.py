"""Truncated exact arithmetic in K and K_{r_1..r_n}^perfd.

An element is a finite set of monomials c * t**a * x_1**q_1 ... x_n**q_n
with coefficients in F_p and exponents in Z[1/p], together with a norm
floor eta: the element is known modulo terms of norm < eta.  Floors
propagate pessimistically through arithmetic, and an exact element
carries the zero floor.  Truncation is by norm, not by term count, so
error propagation is ultrametric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DenominatorCapError,
    FloorTooCoarseError,
    InputValidationError,
    InvariantViolationError,
    LeadingTermTieError,
    ProfileMismatchError,
)
from .valuegroup import (
    Ordering,
    RadiusProfile,
    RationalRadius,
    Value,
    Weight,
    compare,
    denom_log,
    one_value,
    pi_value,
    s_value,
    value,
    value_lt,
    value_le,
    value_lift,
    value_max,
    value_mul,
    value_pow,
    weight_of,
    zero_value,
)

# A term key is (t exponent, tuple of x exponents), all Fractions.


@dataclass(frozen=True, eq=True)
class SeriesElement:
    profile: RadiusProfile
    terms: dict
    floor: Value

    def __repr__(self):
        items = sorted(self.terms.items())[:6]
        body = " + ".join(
            f"{c}*t^{t}" + "".join(f"*x{i+1}^{e}" for i, e in enumerate(xs) if e != 0)
            for (t, xs), c in items
        )
        more = "" if len(self.terms) <= 6 else f" (+{len(self.terms) - 6} terms)"
        return f"Series[{body or '0'}{more}; floor={self.floor}]"


def term_norm(profile: RadiusProfile, key) -> Value:
    t, xs = key
    return value(profile, t, xs)


def _term_weight(profile: RadiusProfile, key) -> Weight:
    t, xs = key
    rational = t
    irr = {}
    for spec, qi in zip(profile.radii, xs):
        if qi == 0:
            continue
        if isinstance(spec, RationalRadius):
            rational = rational + qi * spec.exponent
        else:
            irr[spec.d] = irr.get(spec.d, 0) + qi
    return Weight._raw(rational, irr)


def _drop_below_floor(profile: RadiusProfile, terms: dict, floor: Value) -> dict:
    if floor.zero or not terms:
        return terms
    wf = weight_of(floor)
    # term norm >= floor  <=>  term weight <= floor weight
    return {
        k: c for k, c in terms.items()
        if wf.sub(_term_weight(profile, k)).sign() >= 0
    }


def _build(profile: RadiusProfile, terms: dict, floor: Value) -> SeriesElement:
    """Internal constructor: terms already normalized and validated."""
    return SeriesElement(profile, _drop_below_floor(profile, terms, floor), floor)


def _cap_error(profile: RadiusProfile, e: Fraction) -> DenominatorCapError:
    return DenominatorCapError(
        f"exponent {e} exceeds denominator cap p**{profile.max_denom_log}"
    )


def _check_exponent(profile: RadiusProfile, e: Fraction):
    if denom_log(e, profile.p) > profile.max_denom_log:
        raise _cap_error(profile, e)


def make_series(profile: RadiusProfile, terms, floor: Value = None) -> SeriesElement:
    """Canonical constructor: normalizes coefficients, enforces the floor."""
    if floor is None:
        floor = zero_value(profile)
    if floor.profile != profile:
        raise ProfileMismatchError("floor profile differs from element profile")
    clean = {}
    for key, c in terms.items() if isinstance(terms, dict) else terms:
        t = Fraction(key[0])
        xs = tuple(Fraction(x) for x in key[1])
        if len(xs) != profile.n:
            raise InputValidationError(
                f"term has {len(xs)} x-exponents, profile has n={profile.n}"
            )
        _check_exponent(profile, t)
        for x in xs:
            _check_exponent(profile, x)
        c = c % profile.p
        if c == 0:
            continue
        k = (t, xs)
        c0 = clean.get(k, 0)
        c = (c0 + c) % profile.p
        if c == 0:
            clean.pop(k, None)
        else:
            clean[k] = c
    return _build(profile, clean, floor)


def series_zero(profile: RadiusProfile, floor: Value = None) -> SeriesElement:
    return make_series(profile, {}, floor)


def monomial(profile: RadiusProfile, coeff: int, t_exp, x_exps=None) -> SeriesElement:
    if x_exps is None:
        x_exps = (0,) * profile.n
    return make_series(profile, {(Fraction(t_exp), tuple(x_exps)): coeff})


def one(profile: RadiusProfile) -> SeriesElement:
    return monomial(profile, 1, 0)


def with_floor(f: SeriesElement, floor: Value) -> SeriesElement:
    """Coarsen f's floor to max(old, new), dropping buried terms."""
    return _build(f.profile, dict(f.terms), value_max(f.floor, floor))


def lift_base(f: SeriesElement, profile: RadiusProfile) -> SeriesElement:
    """Embed a base-field element (n = 0) into a larger profile."""
    if f.profile == profile:
        return f
    if f.profile.n != 0 or not profile.extends(f.profile):
        raise ProfileMismatchError("can only lift base-field elements into extensions")
    pad = (Fraction(0),) * profile.n
    return make_series(
        profile,
        {(t, pad): c for (t, _), c in f.terms.items()},
        value_lift(f.floor, profile),
    )


def _require_same_profile(f: SeriesElement, g: SeriesElement):
    if f.profile != g.profile:
        raise ProfileMismatchError("series elements live over different profiles")


def add(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    _require_same_profile(f, g)
    p = f.profile.p
    terms = dict(f.terms)
    for k, c in g.terms.items():
        s = (terms.get(k, 0) + c) % p
        if s == 0:
            terms.pop(k, None)
        else:
            terms[k] = s
    return _build(f.profile, terms, value_max(f.floor, g.floor))


def neg(f: SeriesElement) -> SeriesElement:
    p = f.profile.p
    return SeriesElement(
        f.profile, {k: (p - c) % p for k, c in f.terms.items()}, f.floor
    )


def sub(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    return add(f, neg(g))


def _mul_floor(f: SeriesElement, g: SeriesElement) -> Value:
    nf, ng = gauss_norm(f), gauss_norm(g)
    cands = [value_mul(f.floor, g.floor)]
    if ng is not None:
        cands.append(value_mul(f.floor, ng))
    if nf is not None:
        cands.append(value_mul(g.floor, nf))
    return value_max(*cands)


def mul(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    _require_same_profile(f, g)
    p = f.profile.p
    terms = {}
    for (t1, xs1), c1 in f.terms.items():
        for (t2, xs2), c2 in g.terms.items():
            k = (t1 + t2, tuple(a + b for a, b in zip(xs1, xs2)))
            s = (terms.get(k, 0) + c1 * c2) % p
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s
    return _build(f.profile, terms, _mul_floor(f, g))


def scale(f: SeriesElement, coeff: int) -> SeriesElement:
    coeff = coeff % f.profile.p
    if coeff == 0:
        return series_zero(f.profile, f.floor)
    return SeriesElement(
        f.profile, {k: (c * coeff) % f.profile.p for k, c in f.terms.items()}, f.floor
    )


def gauss_norm(f: SeriesElement):
    """Max term norm, or None when the element is below its floor."""
    if not f.terms:
        return None
    best_key = best_w = None
    for k in f.terms:
        w = _term_weight(f.profile, k)
        if best_w is None or best_w.sub(w).sign() > 0:
            best_key, best_w = k, w
    return term_norm(f.profile, best_key)


def _leading_keys(f: SeriesElement):
    if not f.terms:
        raise InputValidationError("element has no terms above its floor")
    best_w = None
    keys = []
    for k in f.terms:
        w = _term_weight(f.profile, k)
        if best_w is None:
            best_w, keys = w, [k]
            continue
        s = best_w.sub(w).sign()
        if s > 0:  # smaller weight: larger norm
            best_w, keys = w, [k]
        elif s == 0:
            keys.append(k)
    return keys


def leading_part(f: SeriesElement) -> SeriesElement:
    """Sub-sum of terms of maximal norm (exact)."""
    keys = _leading_keys(f)
    if len(keys) > 1 and f.profile.is_free:
        raise InvariantViolationError(
            "leading-term tie under a free profile (should be impossible)"
        )
    return make_series(f.profile, {k: f.terms[k] for k in keys})


def argnorm(f: SeriesElement):
    """Exponent key (t, xs) of the unique maximal-norm term."""
    keys = _leading_keys(f)
    if len(keys) > 1:
        if f.profile.is_free:
            raise InvariantViolationError(
                "leading-term tie under a free profile (should be impossible)"
            )
        raise LeadingTermTieError(f"{len(keys)} terms tie for the maximal norm")
    return keys[0]


def invert(f: SeriesElement, target_floor: Value) -> SeriesElement:
    """g with |f*g - 1| < target_floor, via the geometric series.

    Factors the leading monomial M (exactly invertible), writes
    f = M*(1 - h) with |h| < 1 and returns M**-1 * sum(h**k, k <= N)
    with N minimal so that both |h|**(N+1) / |f| and |h|**(N+1) fall
    below the target.
    """
    profile = f.profile
    p = profile.p
    nf = gauss_norm(f)
    if nf is None:
        raise FloorTooCoarseError("cannot invert an element below its floor")
    (t0, xs0) = argnorm(f)
    c0 = f.terms[(t0, xs0)]
    cinv = pow(c0, p - 2, p) if p > 2 else 1
    m_inv = monomial(profile, cinv, -t0, tuple(-x for x in xs0))
    h = sub(one(profile), mul(m_inv, f))
    nh = gauss_norm(h)
    inv_nf = value_pow(nf, -1)
    g_floor = value_max(value_mul(target_floor, inv_nf),
                        value_mul(f.floor, value_pow(inv_nf, 2)))
    if nh is None:
        return with_floor(m_inv, g_floor)
    if not value_lt(nh, one_value(profile)):
        raise LeadingTermTieError("no strict leading term: |1 - M^-1 f| >= 1")
    # Truncate powers of h at the floor matching the result floor.
    h = with_floor(h, value_mul(g_floor, nf))
    n_steps = 0
    tail = nh
    while not (value_lt(value_mul(tail, inv_nf), target_floor)
               and value_lt(tail, target_floor)):
        n_steps += 1
        tail = value_mul(tail, nh)
    # sum(h**k, k <= N) via the telescoping product prod(1 + h**(2**i)),
    # which covers all k < 2**j once 2**j > N.
    acc = one(profile)
    h_pow = h
    covered = 1
    while covered < n_steps + 1 and h_pow.terms:
        acc = add(acc, mul(acc, h_pow))
        h_pow = mul(h_pow, h_pow)
        covered *= 2
    return with_floor(mul(m_inv, acc), g_floor)


def frobenius(f: SeriesElement) -> SeriesElement:
    """x -> x**p on exponents; F_p coefficients are fixed."""
    p = f.profile.p
    terms = {(t * p, tuple(x * p for x in xs)): c for (t, xs), c in f.terms.items()}
    floor = f.floor if f.floor.zero else value_pow(f.floor, p)
    return _build(f.profile, terms, floor)


def root_pk(f: SeriesElement, k: int) -> SeriesElement:
    """Exact p**k-th root in one pass: exponents and floor divide by p**k.

    Raises DenominatorCapError exactly when k successive pth_root calls
    would.  Exponent denominators are p-powers and their p-log never
    decreases under a further root, so the final exponents decide every
    intermediate step.
    """
    if k < 0:
        raise InputValidationError(f"root order p**{k} needs k >= 0")
    profile = f.profile
    pk = profile.p ** k
    cap = profile.p ** profile.max_denom_log
    terms = {}
    for (t, xs), c in f.terms.items():
        key = (t / pk, tuple(x / pk for x in xs))
        for e in (key[0], *key[1]):
            if e.denominator > cap:
                raise _cap_error(profile, e)
        terms[key] = c
    floor = f.floor if f.floor.zero else value_pow(f.floor, Fraction(1, pk))
    return _build(profile, terms, floor)


def pth_root(f: SeriesElement) -> SeriesElement:
    """Exact p-th root (exponents divide by p); inverse of frobenius."""
    return root_pk(f, 1)


def res_ge(f: SeriesElement, cut: Value) -> SeriesElement:
    """The finite sub-sum of terms with norm >= cut (exact)."""
    if value_lt(cut, f.floor):
        raise FloorTooCoarseError("res_ge cut lies below the element's floor")
    kept = {
        k: c for k, c in f.terms.items()
        if not value_lt(term_norm(f.profile, k), cut)
    }
    return make_series(f.profile, kept)


def x_part(key) -> tuple:
    return key[1]


def coefficient_at(f: SeriesElement, q) -> SeriesElement:
    """The base-field coefficient of x**q (terms with x-part q)."""
    q = tuple(Fraction(x) for x in q)
    base = f.profile.base()
    terms = {
        (t, ()): c for (t, xs), c in f.terms.items() if xs == q
    }
    return make_series(base, terms)


def group_by_x(f: SeriesElement):
    """Map x-exponent vector -> base-field coefficient series (exact)."""
    base = f.profile.base()
    groups = {}
    for (t, xs), c in f.terms.items():
        groups.setdefault(xs, {})[(t, ())] = c
    return {q: make_series(base, terms) for q, terms in groups.items()}


def series_int_pow(g: SeriesElement, u: int) -> SeriesElement:
    """g**u for u >= 0 by repeated squaring."""
    result = one(g.profile)
    base = g
    while u > 0:
        if u & 1:
            result = mul(result, base)
        u >>= 1
        if u:
            base = mul(base, base)
    return result


def series_frac_pow(g: SeriesElement, e) -> SeriesElement:
    """g**e for e in Z[1/p]_{>=0}; exact via integer powers and p-th roots."""
    e = Fraction(e)
    if e < 0:
        raise InputValidationError("fractional powers only for e >= 0 here")
    if e == 0:
        return one(g.profile)
    p = g.profile.p
    k = denom_log(e, p)
    u = int(e * p**k)
    if len(g.terms) == 1 and g.floor.zero:
        # Monomial fast path: c**(u/p**k) = c**u since c**p = c in F_p.
        ((t, xs), c), = g.terms.items()
        return monomial(g.profile, pow(c, u, p), t * e, tuple(x * e for x in xs))
    return root_pk(series_int_pow(g, u), k)


# ---------------------------------------------------------------------------
# Adaptedness: the (q, s) conditions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedCertificate:
    """Outcome of the three (q, s)-adaptedness checks.

    b_q is the full base-field coefficient of x**q (a monomial in all
    scheduled constructions); tail_norm is the norm of beta - b_q*x**q,
    or None when the tail is empty.
    """

    q: tuple
    s: Value
    b_q: SeriesElement
    tail_norm: object
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(self.checks)


def is_adapted(beta: SeriesElement, q) -> AdaptedCertificate:
    """Check that beta is (q, s)-adapted, s = |t|**sigma_s of the profile.

    Conditions: (1) s < |beta| <= 1; (2) the coefficient of x**q
    achieves the norm; (3) |beta - b_q x**q| <= s*|varpi|.
    """
    profile = beta.profile
    q = tuple(Fraction(x) for x in q)
    if len(q) != profile.n:
        raise InputValidationError("adaptedness exponent has wrong arity")
    s = s_value(profile)
    s_pi = value_mul(s, pi_value(profile))
    if not beta.floor.zero and not value_lt(beta.floor, s_pi):
        raise FloorTooCoarseError(
            "floor is too coarse to decide the tail condition (need eta < s*|varpi|)"
        )
    nb = gauss_norm(beta)
    b_q = coefficient_at(beta, q)
    check1 = nb is not None and value_lt(s, nb) and value_le(nb, one_value(profile))
    nbq = gauss_norm(b_q)
    if nb is None or nbq is None:
        check2 = False
    else:
        nbq_lifted = value_mul(value_lift(nbq, profile), value(profile, 0, q))
        check2 = compare(nbq_lifted, nb) is Ordering.EQUAL
    tail_terms = {
        k: c for k, c in beta.terms.items() if x_part(k) != q
    }
    tail = make_series(profile, tail_terms)
    tail_norm = gauss_norm(tail)
    check3 = tail_norm is None or value_le(tail_norm, s_pi)
    return AdaptedCertificate(q, s, b_q, tail_norm, (check1, check2, check3))


# ---------------------------------------------------------------------------
# Base-field division helpers (used by the division algorithm).
# ---------------------------------------------------------------------------


def div_exact_monomial(b: SeriesElement, c: SeriesElement) -> SeriesElement:
    """b / c for a single-term divisor c, exactly."""
    if len(c.terms) != 1:
        raise InputValidationError("divisor is not a monomial")
    p = b.profile.p
    ((t0, xs0), c0), = c.terms.items()
    cinv = pow(c0, p - 2, p) if p > 2 else 1
    return mul(b, monomial(b.profile, cinv, -t0, tuple(-x for x in xs0)))


def divide(b: SeriesElement, c: SeriesElement, target_floor: Value = None) -> SeriesElement:
    """b / c; exact when c is a monomial, else via invert at target_floor."""
    if len(c.terms) == 1 and c.floor.zero:
        return div_exact_monomial(b, c)
    if target_floor is None:
        raise InputValidationError("non-monomial division requires a target floor")
    nb = gauss_norm(b)
    if nb is None:
        return series_zero(b.profile, target_floor)
    inv_floor = value_mul(target_floor, value_pow(nb, -1))
    return mul(b, invert(c, inv_floor))
