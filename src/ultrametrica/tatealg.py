"""Truncated elements of the perfectoid Tate algebra and evaluation maps.

A TateElement is a finite sum of monomials T_1**e_1 ... T_m**e_m with
exponents in Z[1/p]_{>=0} and base-field coefficients (n = 0 series).
The Gauss norm is the sup of coefficient norms.  Evaluation substitutes
power-bounded images for the variables; fractional powers exist exactly
because p-th roots are unique in characteristic p.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputValidationError, ProfileMismatchError
from .series import (
    SeriesElement,
    _build,
    _cap_error,
    _pow_num,
    add,
    frobenius,
    gauss_norm,
    lift_base,
    mul,
    one,
    product_floor,
    pth_root,
    series_sum,
)
from .valuegroup import (
    ExponentKeys,
    RadiusProfile,
    Value,
    _value,
    _value_pow,
    exponent_numerator,
    one_value,
    value_le,
    value_lift,
    value_lt,
    value_max,
    value_pow,
    zero_value,
)


@dataclass(frozen=True, eq=True)
class TateElement:
    """Coefficients above a norm floor; compared by value, never hashed.

    _terms maps each exponent tuple (integer numerators over the base
    denominator D) to its coefficient; the terms property reads it with
    Fraction exponents.  _terms belongs to the element and is never
    mutated after construction, and neither are its coefficients (whose
    Gauss norms are stored on them).
    """

    m: int
    base: RadiusProfile  # n = 0 profile of the coefficients
    _terms: dict         # exponent numerators -> SeriesElement over base
    floor: Value         # base-profile Value

    __hash__ = None

    @property
    def terms(self) -> ExponentKeys:
        return ExponentKeys(self._terms, self.base.den)

    def __repr__(self):
        n = len(self._terms)
        return f"Tate[{self.m} vars, {n} terms; floor={self.floor}]"


def make_tate(m: int, base: RadiusProfile, terms, floor: Value = None) -> TateElement:
    if base.n != 0:
        raise InputValidationError("Tate coefficients must live over the base field")
    if floor is None:
        floor = zero_value(base)
    if floor.profile != base:
        raise ProfileMismatchError("floor profile differs from coefficient profile")
    summed = {}
    for e, c in terms.items() if isinstance(terms, dict) else terms:
        e = tuple(Fraction(x) for x in e)
        if len(e) != m:
            raise InputValidationError(f"exponent tuple has arity {len(e)}, want {m}")
        nums = []
        for x in e:
            if x < 0:
                raise InputValidationError("Tate exponents must be >= 0")
            n = exponent_numerator(base.den, x)
            if n is None:
                raise _cap_error(base, x, "Tate exponent")
            nums.append(n)
        e = tuple(nums)
        if c.profile != base:
            raise ProfileMismatchError("coefficient profile differs from base")
        summed[e] = add(summed[e], c) if e in summed else c
    return _build_tate(m, base, summed, floor)


def _kept(c: SeriesElement, floor: Value) -> bool:
    """Whether a coefficient survives the floor: the one drop-below-cut
    rule for Tate elements."""
    nc = gauss_norm(c)
    return nc is not None and (floor.zero or not value_lt(nc, floor))


def _build_tate(m: int, base: RadiusProfile, terms: dict, floor: Value) -> TateElement:
    """Internal constructor: exponents already validated, one coefficient
    over base per exponent; drops coefficients below the floor."""
    return TateElement(m, base, {e: c for e, c in terms.items() if _kept(c, floor)}, floor)


def tate_monomial(m: int, coeff: SeriesElement, exps) -> TateElement:
    return make_tate(m, coeff.profile, {tuple(Fraction(x) for x in exps): coeff})


def tate_variable(m: int, base: RadiusProfile, i: int, power=1) -> TateElement:
    exps = [Fraction(0)] * m
    exps[i] = Fraction(power)
    return tate_monomial(m, one(base), exps)


def _require_compatible(f: TateElement, m: int, base: RadiusProfile):
    if f.m != m or f.base != base:
        raise ProfileMismatchError("Tate elements are not compatible")


def t_sum(m: int, base: RadiusProfile, fs) -> TateElement:
    """The sum of the Tate elements fs (m variables over base) in one pass:
    their coefficients merge into one dict and the drop rule runs once, at
    the max of the floors (the empty sum is exact zero).

    This equals the left fold of t_add, coefficient for coefficient, in
    dict order and floor.  Floors only grow, so a coefficient the fold
    drops stays below the final floor unless a later element adds to its
    exponent; but the drop rule judges a whole coefficient, and a sum of
    coefficients can climb back above the floor.  So where an exponent
    repeats, its coefficient so far is checked against the floor so far,
    as the fold would have checked it, and a dropped one is replaced (and
    moves to the end) instead of added to.  The first element's own
    coefficients are not checked before the second merges, as in t_add."""
    terms, floor, checked = None, zero_value(base), False
    for f in fs:
        _require_compatible(f, m, base)
        if terms is None:
            terms, floor = dict(f._terms), f.floor
            continue
        for e, c in f._terms.items():
            prev = terms.get(e)
            if prev is None:
                terms[e] = c
            elif checked and not _kept(prev, floor):
                del terms[e]
                terms[e] = c
            else:
                terms[e] = add(prev, c)
        floor = value_max(floor, f.floor)
        checked = True
    return _build_tate(m, base, terms or {}, floor)


def t_add(f: TateElement, g: TateElement) -> TateElement:
    return t_sum(f.m, f.base, (f, g))


def t_gauss_norm(f: TateElement):
    """Sup of coefficient norms (all radii are 1), or None below floor."""
    norms = [nc for nc in map(gauss_norm, f._terms.values()) if nc is not None]
    return value_max(*norms) if norms else None


def t_mul(f: TateElement, g: TateElement) -> TateElement:
    _require_compatible(g, f.m, f.base)
    terms = {}
    for e1, c1 in f._terms.items():
        for e2, c2 in g._terms.items():
            e = tuple(map(operator.add, e1, e2))
            c = mul(c1, c2)
            terms[e] = add(terms[e], c) if e in terms else c
    floor = product_floor(f, g, t_gauss_norm, t_gauss_norm)
    return _build_tate(f.m, f.base, terms, floor)


def t_scale(f: TateElement, d: SeriesElement) -> TateElement:
    """Multiply by a base-field element, coefficient-wise."""
    if d.profile != f.base:
        raise ProfileMismatchError("scalar lives over a different base")
    floor = product_floor(f, d, t_gauss_norm, gauss_norm)
    return _build_tate(f.m, f.base, {e: mul(c, d) for e, c in f._terms.items()}, floor)


def t_frobenius(f: TateElement) -> TateElement:
    p = f.base.p
    terms = {tuple(x * p for x in e): frobenius(c) for e, c in f._terms.items()}
    floor = f.floor if f.floor.zero else value_pow(f.floor, p)
    return _build_tate(f.m, f.base, terms, floor)


def t_pth_root(f: TateElement) -> TateElement:
    """Exponents and floor divide by p.  Every coefficient's root is taken
    before the Tate exponents are checked, so a coefficient exponent
    leaving the cap is reported first."""
    p = f.base.p
    roots = [(e, pth_root(c)) for e, c in f._terms.items()]
    terms = {}
    for e, c in roots:
        for x in e:
            if x % p:
                raise _cap_error(f.base, Fraction(x, f.base.den * p), "Tate exponent")
        terms[tuple(x // p for x in e)] = c
    floor = f.floor if f.floor.zero else _value_pow(f.floor, 1, p)
    return _build_tate(f.m, f.base, terms, floor)


# ---------------------------------------------------------------------------
# Bounded evaluation homomorphisms.
# ---------------------------------------------------------------------------


# Most fractional powers of hom images that one HomSpec keeps.
_POWER_MEMO_CAP = 512


@dataclass(frozen=True)
class HomSpec:
    """Images of T_1..T_m inside one target series field, all of norm <= 1.

    _powers memoizes images[i]**(en / D) per pair (i, en), en the
    exponent's numerator over the profile denominator D, for up to
    _POWER_MEMO_CAP pairs; the images are immutable, so it behaves as if
    absent.
    """

    images: tuple
    _powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.images:
            raise InputValidationError("HomSpec needs at least one image")
        profile = self.images[0].profile
        for g in self.images:
            if g.profile != profile:
                raise ProfileMismatchError("hom images live over different profiles")
            ng = gauss_norm(g)
            bound = one_value(profile)
            if ng is not None and not value_le(ng, bound):
                raise InputValidationError("hom image is not power-bounded (norm > 1)")
            if ng is None and not g.floor.zero and not value_le(g.floor, bound):
                raise InputValidationError("hom image floor exceeds 1")

    @property
    def profile(self) -> RadiusProfile:
        return self.images[0].profile

    @property
    def m(self) -> int:
        return len(self.images)

    @property
    def image_norms(self) -> tuple:
        """Gauss norm of each image (None when it is below its floor)."""
        return tuple(map(gauss_norm, self.images))

    def power(self, i: int, e) -> SeriesElement:
        """images[i]**e, exact, for e in Z[1/p]_{>=0} within the cap."""
        e = Fraction(e)
        if e < 0:
            raise InputValidationError("fractional powers only for e >= 0 here")
        en = exponent_numerator(self.profile.den, e)
        if en is None:
            raise _cap_error(self.profile, e)
        return self._power(i, en) if en else one(self.profile)

    def _power(self, i: int, en: int) -> SeriesElement:
        """images[i]**(en / D) for a numerator en > 0 over D."""
        key = (i, en)
        g = self._powers.get(key)
        if g is None:
            g = _pow_num(self.images[i], en)
            if len(self._powers) < _POWER_MEMO_CAP:
                self._powers[key] = g
        return g


def evaluate(f: TateElement, hom: HomSpec, target_floor: Value) -> SeriesElement:
    """Substitute hom images into f, sound to target_floor.

    Terms whose contribution bound |c| * prod |g_i|**e_i falls below
    target_floor are skipped, and the skip is recorded in the result
    floor; with exact inputs and nothing skipped the result is exact.
    """
    if f.m != hom.m:
        raise InputValidationError("variable count mismatch between element and hom")
    profile = hom.profile
    if f.base != profile.base():
        raise ProfileMismatchError("element base differs from hom target base")
    if target_floor.profile != profile:
        raise ProfileMismatchError("target floor lives over the wrong profile")
    contribs = []
    skipped = False
    D = profile.den
    image_norms = hom.image_norms
    for e, c in f._terms.items():
        nc = gauss_norm(c)
        if nc is None:
            skipped = True
            continue
        # The bound as one Value: |c| * prod |g_i|**(e_i / D), its exponents
        # summed over D * D (a Gauss norm is a term's norm, over D); an
        # image below its floor leaves the term unbounded, so it is kept.
        a, q = nc.an * D, profile._one.qn
        for ei, ni in zip(e, image_norms):
            if ei == 0:
                continue
            if ni is None:
                break
            a += ei * ni.an
            q = tuple(x + ei * y for x, y in zip(q, ni.qn))
        else:
            if value_lt(_value(profile, a, q, D * D), target_floor):
                skipped = True
                continue
        contrib = lift_base(c, profile)
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            contrib = mul(contrib, hom._power(i, ei))
        contribs.append(contrib)
    acc = series_sum(profile, contribs)
    floor = value_lift(f.floor, profile)
    if skipped:
        floor = value_max(floor, target_floor)
    return _build(profile, acc._terms, value_max(acc.floor, floor))
