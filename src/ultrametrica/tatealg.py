"""Exact elements of the perfectoid Tate algebra and evaluation maps.

A TateElement is a finite sum of monomials T_1**e_1 ... T_m**e_m with
exponents in Z[1/p]_{>=0} and exact base-field coefficients (n = 0
series with the zero floor).  Evaluation substitutes exact power-bounded
images for the variables; fractional powers exist exactly because p-th
roots are unique in characteristic p.  Nothing in the layer truncates:
evaluate is exact whatever target floor it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputValidationError, ProfileMismatchError
from .series import (
    SeriesElement,
    _build,
    _mul_lifted_into,
    _pow_num,
    gauss_norm,
    mul,
    one,
)
from .valuegroup import (
    ExponentKeys,
    RadiusProfile,
    Value,
    numerator,
    one_value,
    value_le,
)


@dataclass(frozen=True, eq=True)
class TateElement:
    """Exact coefficients; compared by value, never hashed.

    _terms maps each exponent tuple (integer numerators over the base
    denominator D) to its coefficient, an exact series with terms; the
    terms property reads it with Fraction exponents.  _terms belongs to
    the element and is never mutated after construction, and neither are
    its coefficients (whose Gauss norms are stored on them).
    """

    m: int
    base: RadiusProfile  # n = 0 profile of the coefficients
    _terms: dict         # exponent numerators -> SeriesElement over base

    __hash__ = None

    @property
    def terms(self) -> ExponentKeys:
        return ExponentKeys(self._terms, self.base.den)

    def __repr__(self):
        n = len(self._terms)
        return f"Tate[{self.m} vars, {n} terms]"


# The term dict of the base field's one: scaling by it adds a Tate element
# into an accumulator as it is.
_ONE = {(0, ()): 1}


def make_tate(m: int, base: RadiusProfile, terms) -> TateElement:
    if base.n != 0:
        raise InputValidationError("Tate coefficients must live over the base field")
    pairs = []
    for e, c in terms.items() if isinstance(terms, dict) else terms:
        e = tuple(Fraction(x) for x in e)
        if len(e) != m:
            raise InputValidationError(f"exponent tuple has arity {len(e)}, want {m}")
        nums = []
        for x in e:
            if x < 0:
                raise InputValidationError("Tate exponents must be >= 0")
            nums.append(numerator(base, x, "Tate exponent"))
        if c.profile != base:
            raise ProfileMismatchError("coefficient profile differs from base")
        if not c.floor.zero:
            raise InputValidationError("Tate coefficients must be exact (zero floor)")
        pairs.append((tuple(nums), c))
    acc = {}
    _scale_into(acc, pairs, _ONE, base.p)
    return _tate_from(m, base, acc)


def _scale_into(acc: dict, pairs, d_terms: dict, p: int):
    """Add d * sum c T**e, over the (exponent, exact coefficient) pairs, into
    the accumulator acc, {Tate exponent: {t key: coefficient}}, for d_terms
    the term dict of an exact base-field d: each c times d by the lifted
    multiply-accumulate loop, c's terms outer and in order, as mul(c, d)
    forms them.  A key whose sum vanishes mod p leaves its dict."""
    for e, c in pairs:
        coeff = acc.get(e)
        if coeff is None:
            acc[e] = coeff = {}
        _mul_lifted_into(coeff, c._terms.items(), d_terms, p)


def _tate_from(m: int, base: RadiusProfile, acc: dict) -> TateElement:
    """The Tate element of an accumulator, whose dicts it takes over: each
    non-empty one becomes an exact coefficient, and an emptied one drops."""
    zero = base._zero
    return TateElement(m, base, {e: SeriesElement._raw(base, c, zero)
                                 for e, c in acc.items() if c})


def tate_monomial(m: int, coeff: SeriesElement, exps) -> TateElement:
    return make_tate(m, coeff.profile, {tuple(Fraction(x) for x in exps): coeff})


def _require_compatible(f: TateElement, m: int, base: RadiusProfile):
    if f.m != m or f.base != base:
        raise ProfileMismatchError("Tate elements are not compatible")


def t_sum(m: int, base: RadiusProfile, fs) -> TateElement:
    """The sum of the Tate elements fs (m variables over base) in one
    accumulator: their coefficients merge and cancelled ones drop once (the
    empty sum is zero)."""
    acc = {}
    for f in fs:
        _require_compatible(f, m, base)
        _scale_into(acc, f._terms.items(), _ONE, base.p)
    return _tate_from(m, base, acc)


def t_add(f: TateElement, g: TateElement) -> TateElement:
    return t_sum(f.m, f.base, (f, g))


def t_scale(f: TateElement, d: SeriesElement) -> TateElement:
    """Multiply by an exact base-field element, coefficient-wise: the
    one-part case of _scale_into."""
    if d.profile != f.base:
        raise ProfileMismatchError("scalar lives over a different base")
    if not d.floor.zero:
        raise InputValidationError("Tate scalars must be exact (zero floor)")
    acc = {}
    _scale_into(acc, f._terms.items(), d._terms, f.base.p)
    return _tate_from(f.m, f.base, acc)


# ---------------------------------------------------------------------------
# Bounded evaluation homomorphisms.
# ---------------------------------------------------------------------------


# Most entries in the power memo of one HomSpec, the Tate monomials whose
# images it keeps.  One pass of the surject-n2 benchmark ops (oracle
# answers and evaluate) reads 450 distinct exponent tuples for seeds 1 and
# 23 and 521 or 522 for seeds 2 and 7; surject-n1 reads 40.
_POWER_MEMO_CAP = 1024


@dataclass(frozen=True)
class HomSpec:
    """Exact images of T_1..T_m inside one target series field, all of
    norm <= 1 (the zero image among them).

    _powers memoizes, per Tate exponent tuple en (numerators over the
    profile denominator D), the image of the monomial T**(en / D) alone
    (see _monomial), for up to _POWER_MEMO_CAP tuples; an image is
    immutable and fixed by its key, so the memo behaves as if absent.
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
            if not g.floor.zero:
                raise InputValidationError("hom images must be exact (zero floor)")
            ng = gauss_norm(g)
            if ng is not None and not value_le(ng, one_value(profile)):
                raise InputValidationError("hom image is not power-bounded (norm > 1)")

    @property
    def profile(self) -> RadiusProfile:
        return self.images[0].profile

    @property
    def m(self) -> int:
        return len(self.images)

    def _monomial(self, en: tuple) -> SeriesElement:
        """The image prod images[i]**(en_i / D) of the Tate monomial
        T**(en / D), en a tuple of numerators over D, multiplied for i
        ascending, or one when every en_i is 0."""
        image = self._powers.get(en)
        if image is None:
            for g, ei in zip(self.images, en):
                if ei:
                    gp = _pow_num(g, ei)
                    image = gp if image is None else mul(image, gp)
            if image is None:
                image = one(self.profile)
            if len(self._powers) < _POWER_MEMO_CAP:
                self._powers[en] = image
        return image


def evaluate(f: TateElement, hom: HomSpec, target_floor: Value) -> SeriesElement:
    """Substitute hom images into f, exactly.

    Each term c * T**(e / D) contributes c times the image of its monomial
    (see HomSpec._monomial), and the contributions accumulate in one dict.
    The result has the zero floor, so it is sound to every target floor:
    target_floor is only checked to live over the hom's profile.
    """
    if f.m != hom.m:
        raise InputValidationError("variable count mismatch between element and hom")
    profile = hom.profile
    if f.base != profile.base():
        raise ProfileMismatchError("element base differs from hom target base")
    if target_floor.profile != profile:
        raise ProfileMismatchError("target floor lives over the wrong profile")
    terms, p = {}, profile.p
    for e, c in f._terms.items():
        _mul_lifted_into(terms, c._terms.items(), hom._monomial(e)._terms, p)
    return _build(profile, terms, profile._zero)
