"""Truncated exact arithmetic in K and K_{r_1..r_n}^perfd.

An element is a finite set of monomials c * t**a * x_1**q_1 ... x_n**q_n
with coefficients in F_p and exponents in Z[1/p], together with a norm
floor eta: the element is known modulo terms of norm < eta.  Floors
propagate pessimistically through arithmetic, and an exact element
carries the zero floor.  Truncation is by norm, not by term count, so
error propagation is ultrametric.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    FloorTooCoarseError,
    InputValidationError,
    InvariantViolationError,
    LeadingTermTieError,
    ProfileMismatchError,
)
from .valuegroup import (
    RadiusProfile,
    TermKeys,
    Value,
    _key_norm,
    cap_error,
    denom_log,
    exponent_numerators,
    numerator,
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
    zero_value,
)

# A term key is (t, xs): the t exponent and the tuple of x exponents, each
# an integer numerator over the profile denominator D = profile.den.

_UNSET = object()
_setattr = object.__setattr__


@dataclass(frozen=True, eq=True)
class SeriesElement:
    """Terms above a norm floor; compared by value, never hashed.

    _terms maps each key (integer numerators over D) to its coefficient;
    the terms property reads it with Fraction exponents.  _terms belongs
    to the element and is never mutated after construction, so
    gauss_norm may store its result in the derived _norm field, which
    takes no part in ==, repr or the JSON form.
    """

    profile: RadiusProfile
    _terms: dict
    floor: Value
    _norm: object = field(default=_UNSET, init=False, compare=False, repr=False)

    __hash__ = None

    @classmethod
    def _raw(cls, profile, terms, floor) -> "SeriesElement":
        """Internal constructor: terms are normalized and lie above floor.
        It sets the fields one by one, as __init__ does, so the instance
        keeps its compact attribute layout (reading __dict__ would build a
        dict per instance)."""
        f = cls.__new__(cls)
        _setattr(f, "profile", profile)
        _setattr(f, "_terms", terms)
        _setattr(f, "floor", floor)
        _setattr(f, "_norm", _UNSET)
        return f

    @property
    def terms(self) -> TermKeys:
        return TermKeys(self._terms, self.profile.den)

    def __repr__(self):
        items = self.terms.items()
        body = " + ".join(
            f"{c}*t^{t}" + "".join(f"*x{i+1}^{e}" for i, e in enumerate(xs) if e != 0)
            for (t, xs), c in sorted(items)[:6]
        )
        more = "" if len(items) <= 6 else f" (+{len(items) - 6} terms)"
        return f"Series[{body or '0'}{more}; floor={self.floor}]"


def _drop_below_floor(profile: RadiusProfile, terms: dict, floor: Value) -> dict:
    """The terms of norm >= floor: the one drop-below-cut rule for series."""
    if floor.zero or not terms:
        return terms
    fa, fq, sign = floor.an, floor.qn, profile._sign
    # term norm >= floor  <=>  term weight <= floor weight
    s = floor.den // profile.den
    if s == 1:
        return {
            k: c for k, c in terms.items()
            if sign(fa - k[0], tuple(map(operator.sub, fq, k[1]))) >= 0
        }
    return {
        k: c for k, c in terms.items()
        if sign(fa - k[0] * s, tuple(y - x * s for y, x in zip(fq, k[1]))) >= 0
    }


def _build(profile: RadiusProfile, terms: dict, floor: Value) -> SeriesElement:
    """Internal constructor: terms already normalized and validated."""
    return SeriesElement._raw(profile, _drop_below_floor(profile, terms, floor), floor)


def make_series(profile: RadiusProfile, terms, floor: Value = None) -> SeriesElement:
    """Canonical constructor from rational exponents: normalizes
    coefficients, enforces the cap and the floor."""
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
        k = (numerator(profile, t), tuple(numerator(profile, x) for x in xs))
        c = c % profile.p
        if c == 0:
            continue
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


def _monomial(profile: RadiusProfile, coeff: int, t: int, xs: tuple) -> SeriesElement:
    """Exact coeff * t**(t/D) * x**(xs/D) from numerators over D."""
    c = coeff % profile.p
    return SeriesElement._raw(profile, {(t, xs): c} if c else {}, profile._zero)


def one(profile: RadiusProfile) -> SeriesElement:
    return _monomial(profile, 1, 0, profile._one.qn)


def with_floor(f: SeriesElement, floor: Value) -> SeriesElement:
    """Coarsen f's floor to max(old, new), dropping buried terms."""
    return _build(f.profile, dict(f._terms), value_max(f.floor, floor))


def _require_profile(f: SeriesElement, profile: RadiusProfile):
    if f.profile != profile:
        raise ProfileMismatchError("series elements live over different profiles")


def series_sum(profile: RadiusProfile, fs) -> SeriesElement:
    """The sum of the elements fs over profile, in one pass: their terms
    merge into one dict and the drop rule runs once, at the max of the
    floors (the empty sum is exact zero).

    This equals the left fold of add, term for term, in dict order and
    floor.  A fold drops a term whose norm is below the floor so far;
    floors only grow, so that term is below the final floor too and is
    dropped here.  A kept term was never dropped by the fold, so both
    merge, cancel and re-insert it in the same steps and keep the same
    order."""
    p = profile.p
    terms, floor = None, profile._zero
    for f in fs:
        _require_profile(f, profile)
        if terms is None:
            terms, floor = dict(f._terms), f.floor
            continue
        for k, c in f._terms.items():
            s = (terms.get(k, 0) + c) % p
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s
        floor = value_max(floor, f.floor)
    return _build(profile, terms or {}, floor)


def add(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    return series_sum(f.profile, (f, g))


def neg(f: SeriesElement) -> SeriesElement:
    p = f.profile.p
    return SeriesElement._raw(f.profile, {k: (p - c) % p for k, c in f._terms.items()}, f.floor)


def sub(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    """f - g in one pass: g's terms, negated, merge into a copy of f's, and
    the drop rule runs once at max(f.floor, g.floor).  The terms, their
    dict order and the floor are those of add(f, neg(g))."""
    profile = f.profile
    _require_profile(g, profile)
    p = profile.p
    terms = dict(f._terms)
    for k, c in g._terms.items():
        s = (terms.get(k, 0) - c) % p
        if s == 0:
            terms.pop(k, None)
        else:
            terms[k] = s
    return _build(profile, terms, value_max(f.floor, g.floor))


def product_floor(f: SeriesElement, g: SeriesElement) -> Value:
    """Floor of the product of two floored elements f and g:
    max(f.floor * g.floor, f.floor * |g|, g.floor * |f|).

    A zero floor makes its candidates zero, so a Gauss norm is taken only
    when the other factor's floor is non-zero.
    """
    ff, fg = f.floor, g.floor
    if ff.zero and fg.zero:
        return zero_value(ff.profile)
    cands = [value_mul(ff, fg)]
    if not ff.zero:
        ng = gauss_norm(g)
        if ng is not None:
            cands.append(value_mul(ff, ng))
    if not fg.zero:
        nf = gauss_norm(f)
        if nf is not None:
            cands.append(value_mul(fg, nf))
    return value_max(*cands)


def mul(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    """f * g: every product of a term of f and a term of g, accumulated by
    _mul_into (f's terms outer, in order), then cut once at the product
    floor.  No norm is stored on the result; gauss_norm takes it when
    asked."""
    _require_profile(g, f.profile)
    terms = {}
    _mul_into(terms, f._terms.items(), g._terms, f.profile.p)
    return _build(f.profile, terms, product_floor(f, g))


def _mul_into(terms: dict, f_items, g_terms: dict, p: int):
    """Add f * g into terms, product by product (f's terms outer, in
    order), for f_items the (key, coefficient) pairs of f and g_terms the
    term dict of g: the one multiply-accumulate loop.  A key whose sum
    vanishes mod p leaves terms; nothing is cut at a floor, so a caller
    that accumulates several products cuts once, at the max of their
    floors (a key fixes its norm, as in series_sum)."""
    g_items = g_terms.items()
    for (t1, xs1), c1 in f_items:
        for (t2, xs2), c2 in g_items:
            k = (t1 + t2, tuple(map(operator.add, xs1, xs2)))
            s = (terms.get(k, 0) + c1 * c2) % p
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s


def _mul_lifted_into(terms: dict, c_items, g_terms: dict, p: int, sign: int = 1):
    """Add sign * c * g into terms, for c_items the (key, coefficient)
    pairs of c over g's base profile (with g's cap), read as an element of
    g's profile, and g_terms the term dict of g: _mul_into's loop, where a
    term of c has zero x exponents, so each product keeps the x tuple of
    its g key and only the t numerators add."""
    g_items = g_terms.items()
    for (t1, _), c1 in c_items:
        c1 *= sign
        for (t2, xs2), c2 in g_items:
            k = (t1 + t2, xs2)
            s = (terms.get(k, 0) + c1 * c2) % p
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s


def gauss_norm(f: SeriesElement):
    """Max term norm, or None when the element is below its floor.

    Taken once per element and stored on it (see SeriesElement)."""
    n = f._norm
    if n is not _UNSET:
        return n
    n = _key_norm(f.profile, *_leading_keys(f)[0], f.profile.den) if f._terms else None
    object.__setattr__(f, "_norm", n)
    return n


def _leading_keys(f: SeriesElement):
    """The keys of maximal norm, in dict order."""
    if not f._terms:
        raise InputValidationError("element has no terms above its floor")
    sign = f.profile._sign
    best = None
    keys = []
    for k in f._terms:
        if best is None:
            best, keys = k, [k]
            continue
        s = sign(best[0] - k[0], tuple(map(operator.sub, best[1], k[1])))
        if s > 0:  # smaller weight: larger norm
            best, keys = k, [k]
        elif s == 0:
            keys.append(k)
    return keys


def _argnorm(f: SeriesElement):
    """Key (numerators over D) of the unique maximal-norm term."""
    keys = _leading_keys(f)
    if len(keys) > 1:
        if f.profile.is_free:
            raise InvariantViolationError(
                "leading-term tie under a free profile (should be impossible)"
            )
        raise LeadingTermTieError(f"{len(keys)} terms tie for the maximal norm")
    return keys[0]


# Most terms N that invert's geometric series may need; a target that needs
# more (a far floor, or |h| within |t|**(1/p**k) of 1) is rejected before
# any term is built.  The largest N in use is 609, in the acceptance
# inversion load; through the CLI, x + t to a floor that needs N = 9657
# takes 0.5 s (2-core machine, Python 3.11).
MAX_INVERT_LENGTH = 10_000

# Most term pairs one product of invert's telescoping loop may form.  The
# length cap alone does not bound the work: when h has two or more terms
# its powers keep growing, and 1 + x + t (p = 3, sqrt(2)) needs products
# of 126 080 pairs at the floor |t|**400 and 1 935 495 (3.5 s) at |t|**800.
# Under this cap `invert --floor 9000` on it exits 2 in 0.8 s (2-core
# machine, Python 3.11).  The largest product in use is 3 163 pairs, in
# the invert benchmark workload (seeds 1, 2 and 303; criterion 3 draws
# seed 303's first units).
MAX_INVERT_PRODUCTS = 1_000_000


def invert(f: SeriesElement, target_floor: Value) -> SeriesElement:
    """g with |f*g - 1| < target_floor, via the geometric series.

    Factors the leading monomial M (exactly invertible), writes
    f = M*(1 - h) with |h| < 1 and returns M**-1 * sum(h**k, k <= N)
    with N minimal so that both |h|**(N+1) / |f| and |h|**(N+1) fall
    below the target.  Raises InputValidationError when N would exceed
    MAX_INVERT_LENGTH, or a product of the sum would form more than
    MAX_INVERT_PRODUCTS term pairs.
    """
    profile = f.profile
    p = profile.p
    nf = gauss_norm(f)
    if nf is None:
        raise FloorTooCoarseError("cannot invert an element below its floor")
    (t0, xs0) = _argnorm(f)
    c0 = f._terms[(t0, xs0)]
    m_inv = _monomial(profile, pow(c0, -1, p), -t0, tuple(-x for x in xs0))
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
        if n_steps > MAX_INVERT_LENGTH:
            raise InputValidationError(
                f"invert needs more than {MAX_INVERT_LENGTH} terms of the geometric"
                " series to reach the target floor")
        tail = value_mul(tail, nh)
    # sum(h**k, k <= N) via the telescoping product prod(1 + h**(2**i)),
    # which covers all k < 2**j once 2**j > N.
    acc = one(profile)
    h_pow = h
    covered = 1
    while covered < n_steps + 1 and h_pow._terms:
        # the larger of the pass's two products, acc * h_pow and h_pow**2
        n_h = len(h_pow._terms)
        if max(len(acc._terms), n_h) * n_h > MAX_INVERT_PRODUCTS:
            raise InputValidationError(
                f"invert needs a product of more than {MAX_INVERT_PRODUCTS} term pairs"
                " to reach the target floor")
        acc = add(acc, mul(acc, h_pow))
        h_pow = mul(h_pow, h_pow)
        covered *= 2
    return with_floor(mul(m_inv, acc), g_floor)


def frobenius(f: SeriesElement) -> SeriesElement:
    """x -> x**p on exponents; F_p coefficients are fixed."""
    p = f.profile.p
    terms = {(t * p, tuple(x * p for x in xs)): c for (t, xs), c in f._terms.items()}
    floor = f.floor if f.floor.zero else value_pow(f.floor, p)
    return _build(f.profile, terms, floor)


def root_pk(f: SeriesElement, k: int) -> SeriesElement:
    """Exact p**k-th root in one pass: exponents and floor divide by p**k.

    An exponent stays within the cap exactly when p**k divides its
    numerator over D, so this raises DenominatorCapError exactly when k
    successive pth_root calls would: exponent denominators are p-powers
    and their p-log never decreases under a further root, so the final
    exponents decide every intermediate step.
    """
    if k < 0:
        raise InputValidationError(f"root order p**{k} needs k >= 0")
    profile = f.profile
    pk = profile.p ** k
    terms = {}
    for (t, xs), c in f._terms.items():
        for e in (t, *xs):
            if e % pk:
                raise cap_error(profile, Fraction(e, profile.den * pk))
        terms[(t // pk, tuple(x // pk for x in xs))] = c
    floor = f.floor if f.floor.zero else value_pow(f.floor, Fraction(1, pk))
    return _build(profile, terms, floor)


def pth_root(f: SeriesElement) -> SeriesElement:
    """Exact p-th root (exponents divide by p); inverse of frobenius."""
    return root_pk(f, 1)


def res_ge(f: SeriesElement, cut: Value) -> SeriesElement:
    """The finite sub-sum of terms with norm >= cut (exact)."""
    if value_lt(cut, f.floor):
        raise FloorTooCoarseError("res_ge cut lies below the element's floor")
    kept = _drop_below_floor(f.profile, f._terms, cut)
    return _build(f.profile, kept, zero_value(f.profile))


def coefficient_at(f: SeriesElement, q) -> SeriesElement:
    """The base-field coefficient of x**q (terms with rational x-part q)."""
    qn = exponent_numerators(f.profile.den, tuple(Fraction(x) for x in q))
    base = f.profile.base()
    terms = {
        (t, ()): c for (t, xs), c in f._terms.items() if xs == qn
    }
    return _build(base, terms, zero_value(base))


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
    return _root_pow(g, e.numerator, denom_log(e, g.profile.p))


def _root_pow(g: SeriesElement, u: int, k: int) -> SeriesElement:
    """g**(u / p**k) for u > 0 and u / p**k in lowest terms."""
    profile = g.profile
    p = profile.p
    if len(g._terms) == 1 and g.floor.zero:
        # Monomial fast path: c**(u/p**k) = c**u since c**p = c in F_p.
        ((t, xs), c), = g._terms.items()
        pk = p**k
        for e in (t, *xs):
            if e * u % pk:
                raise cap_error(profile, Fraction(e * u, profile.den * pk))
        return _monomial(profile, pow(c, u, p), t * u // pk, tuple(x * u // pk for x in xs))
    return root_pk(series_int_pow(g, u), k)


def _pow_num(g: SeriesElement, en: int) -> SeriesElement:
    """g**(en / D) for a numerator en > 0 over the profile denominator D."""
    p, k = g.profile.p, g.profile.max_denom_log
    while k and en % p == 0:
        en //= p
        k -= 1
    return _root_pow(g, en, k)


# ---------------------------------------------------------------------------
# Adaptedness: the (q, s) conditions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedCertificate:
    """Outcome of the three (q, s)-adaptedness checks.

    b_q is the full base-field coefficient of x**q; divide_step relies on
    it being a monomial, which a monomial oracle answer is and condition
    (5) of build_schedule makes every scheduled one (no two steps share
    an x exponent).  tail_norm is the norm of beta - b_q*x**q, or None
    when the tail is empty.
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
        check2 = nbq_lifted == nb
    qn = exponent_numerators(profile.den, q)
    tail_terms = {
        k: c for k, c in beta._terms.items() if k[1] != qn
    }
    tail = _build(profile, tail_terms, zero_value(profile))
    tail_norm = gauss_norm(tail)
    check3 = tail_norm is None or value_le(tail_norm, s_pi)
    return AdaptedCertificate(q, s, b_q, tail_norm, (check1, check2, check3))
