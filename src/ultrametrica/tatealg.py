"""Truncated elements of the perfectoid Tate algebra and evaluation maps.

A TateElement is a finite sum of monomials T_1**e_1 ... T_m**e_m with
exponents in Z[1/p]_{>=0} and base-field coefficients (n = 0 series).
The Gauss norm is the sup of coefficient norms.  Evaluation substitutes
power-bounded images for the variables; fractional powers exist exactly
because p-th roots are unique in characteristic p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DenominatorCapError, InputValidationError, ProfileMismatchError
from .series import (
    SeriesElement,
    add,
    frobenius,
    gauss_norm,
    lift_base,
    make_series,
    mul,
    one,
    pth_root,
    series_frac_pow,
    series_zero,
)
from .valuegroup import (
    RadiusProfile,
    Value,
    denom_log,
    one_value,
    value_le,
    value_lift,
    value_lt,
    value_max,
    value_mul,
    value_pow,
    zero_value,
)


@dataclass(frozen=True, eq=True)
class TateElement:
    m: int
    base: RadiusProfile  # n = 0 profile of the coefficients
    terms: dict          # exponent tuple -> SeriesElement over base
    floor: Value         # base-profile Value

    def __repr__(self):
        n = len(self.terms)
        return f"Tate[{self.m} vars, {n} terms; floor={self.floor}]"


def make_tate(m: int, base: RadiusProfile, terms, floor: Value = None) -> TateElement:
    if base.n != 0:
        raise InputValidationError("Tate coefficients must live over the base field")
    if floor is None:
        floor = zero_value(base)
    if floor.profile != base:
        raise ProfileMismatchError("floor profile differs from coefficient profile")
    clean = {}
    for e, c in terms.items() if isinstance(terms, dict) else terms:
        e = tuple(Fraction(x) for x in e)
        if len(e) != m:
            raise InputValidationError(f"exponent tuple has arity {len(e)}, want {m}")
        for x in e:
            if x < 0:
                raise InputValidationError("Tate exponents must be >= 0")
            if denom_log(x, base.p) > base.max_denom_log:
                raise DenominatorCapError(f"Tate exponent {x} exceeds the cap")
        if c.profile != base:
            raise ProfileMismatchError("coefficient profile differs from base")
        if e in clean:
            c = add(clean[e], c)
        nc = gauss_norm(c)
        if nc is None:
            clean.pop(e, None)
            continue
        if not floor.zero and value_lt(nc, floor):
            clean.pop(e, None)
            continue
        clean[e] = c
    return TateElement(m, base, clean, floor)


def tate_zero(m: int, base: RadiusProfile, floor: Value = None) -> TateElement:
    return make_tate(m, base, {}, floor)


def tate_monomial(m: int, coeff: SeriesElement, exps) -> TateElement:
    return make_tate(m, coeff.profile, {tuple(Fraction(x) for x in exps): coeff})


def tate_variable(m: int, base: RadiusProfile, i: int, power=1) -> TateElement:
    exps = [Fraction(0)] * m
    exps[i] = Fraction(power)
    return tate_monomial(m, one(base), exps)


def _require_compatible(f: TateElement, g: TateElement):
    if f.m != g.m or f.base != g.base:
        raise ProfileMismatchError("Tate elements are not compatible")


def t_add(f: TateElement, g: TateElement) -> TateElement:
    _require_compatible(f, g)
    terms = dict(f.terms)
    for e, c in g.terms.items():
        terms[e] = add(terms[e], c) if e in terms else c
    return make_tate(f.m, f.base, terms, value_max(f.floor, g.floor))


def t_gauss_norm(f: TateElement):
    """Sup of coefficient norms (all radii are 1), or None below floor."""
    best = None
    for c in f.terms.values():
        nc = gauss_norm(c)
        if nc is not None and (best is None or value_lt(best, nc)):
            best = nc
    return best


def _t_mul_floor(f: TateElement, g: TateElement) -> Value:
    nf, ng = t_gauss_norm(f), t_gauss_norm(g)
    cands = [value_mul(f.floor, g.floor)]
    if ng is not None:
        cands.append(value_mul(f.floor, ng))
    if nf is not None:
        cands.append(value_mul(g.floor, nf))
    return value_max(*cands)


def t_mul(f: TateElement, g: TateElement) -> TateElement:
    _require_compatible(f, g)
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = mul(c1, c2)
            terms[e] = add(terms[e], c) if e in terms else c
    return make_tate(f.m, f.base, terms, _t_mul_floor(f, g))


def t_scale(f: TateElement, d: SeriesElement) -> TateElement:
    """Multiply by a base-field element, coefficient-wise."""
    if d.profile != f.base:
        raise ProfileMismatchError("scalar lives over a different base")
    nd = gauss_norm(d)
    nf = t_gauss_norm(f)
    cands = [value_mul(f.floor, d.floor)]
    if nd is not None:
        cands.append(value_mul(f.floor, nd))
    if nf is not None:
        cands.append(value_mul(d.floor, nf))
    floor = value_max(*cands)
    return make_tate(f.m, f.base, {e: mul(c, d) for e, c in f.terms.items()}, floor)


def t_frobenius(f: TateElement) -> TateElement:
    p = f.base.p
    terms = {tuple(x * p for x in e): frobenius(c) for e, c in f.terms.items()}
    floor = f.floor if f.floor.zero else value_pow(f.floor, p)
    return make_tate(f.m, f.base, terms, floor)


def t_pth_root(f: TateElement) -> TateElement:
    p = f.base.p
    terms = {tuple(x / p for x in e): pth_root(c) for e, c in f.terms.items()}
    floor = f.floor if f.floor.zero else value_pow(f.floor, Fraction(1, p))
    return make_tate(f.m, f.base, terms, floor)


# ---------------------------------------------------------------------------
# Bounded evaluation homomorphisms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomSpec:
    """Images of T_1..T_m inside one target series field, all of norm <= 1.

    image_norms is derived: the Gauss norm of each image (None when the
    image is below its floor).
    """

    images: tuple
    image_norms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.images:
            raise InputValidationError("HomSpec needs at least one image")
        profile = self.images[0].profile
        norms = []
        for g in self.images:
            if g.profile != profile:
                raise ProfileMismatchError("hom images live over different profiles")
            ng = gauss_norm(g)
            bound = one_value(profile)
            if ng is not None and not value_le(ng, bound):
                raise InputValidationError("hom image is not power-bounded (norm > 1)")
            if ng is None and not g.floor.zero and not value_le(g.floor, bound):
                raise InputValidationError("hom image floor exceeds 1")
            norms.append(ng)
        object.__setattr__(self, "image_norms", tuple(norms))

    @property
    def profile(self) -> RadiusProfile:
        return self.images[0].profile

    @property
    def m(self) -> int:
        return len(self.images)


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
    acc = series_zero(profile)
    floor_acc = zero_value(profile)
    skipped = False
    for e, c in f.terms.items():
        nc = gauss_norm(c)
        if nc is None:
            skipped = True
            continue
        bound = value_lift(nc, profile)
        computable = True
        for ei, ni in zip(e, hom.image_norms):
            if ei == 0:
                continue
            if ni is None:
                computable = False
                break
            bound = value_mul(bound, value_pow(ni, ei))
        if computable and value_lt(bound, target_floor):
            skipped = True
            continue
        contrib = lift_base(c, profile)
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            contrib = mul(contrib, series_frac_pow(hom.images[i], ei))
        acc = add(acc, contrib)
        floor_acc = value_max(floor_acc, contrib.floor)
    floor_acc = value_max(floor_acc, value_lift(f.floor, profile))
    if skipped:
        floor_acc = value_max(floor_acc, target_floor)
    return make_series(profile, acc.terms, value_max(acc.floor, floor_acc))
