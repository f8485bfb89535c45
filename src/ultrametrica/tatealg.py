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
    series_sum,
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
    return _build_tate(m, base, pairs)


def _build_tate(m: int, base: RadiusProfile, pairs) -> TateElement:
    """Internal constructor from (exponent, exact coefficient) pairs,
    exponents already validated as numerators over base.den: the
    coefficients of a repeated exponent are summed by one series_sum, and
    a coefficient with no terms is dropped."""
    groups = {}
    for e, c in pairs:
        groups.setdefault(e, []).append(c)
    terms = {}
    for e, cs in groups.items():
        c = cs[0] if len(cs) == 1 else series_sum(base, cs)
        if c._terms:
            terms[e] = c
    return TateElement(m, base, terms)


def tate_monomial(m: int, coeff: SeriesElement, exps) -> TateElement:
    return make_tate(m, coeff.profile, {tuple(Fraction(x) for x in exps): coeff})


def _require_compatible(f: TateElement, m: int, base: RadiusProfile):
    if f.m != m or f.base != base:
        raise ProfileMismatchError("Tate elements are not compatible")


def t_sum(m: int, base: RadiusProfile, fs) -> TateElement:
    """The sum of the Tate elements fs (m variables over base) in one pass:
    their coefficients merge and cancelled ones drop once (the empty sum
    is zero), as in series_sum."""
    pairs = []
    for f in fs:
        _require_compatible(f, m, base)
        pairs.extend(f._terms.items())
    return _build_tate(m, base, pairs)


def t_add(f: TateElement, g: TateElement) -> TateElement:
    return t_sum(f.m, f.base, (f, g))


def t_scale(f: TateElement, d: SeriesElement) -> TateElement:
    """Multiply by an exact base-field element, coefficient-wise.

    By one term d = c t**a, each coefficient's keys shift by a and its
    coefficients scale by c, in the coefficient's own order, as mul's
    one-term branch gives them; no two Tate exponents collide and each
    coefficient keeps its terms, so nothing is merged or dropped.  Every
    other d multiplies each coefficient by mul and rebuilds through
    _build_tate."""
    if d.profile != f.base:
        raise ProfileMismatchError("scalar lives over a different base")
    if not d.floor.zero:
        raise InputValidationError("Tate scalars must be exact (zero floor)")
    if len(d._terms) == 1:
        ((a, _), cd), = d._terms.items()
        p, zero = f.base.p, f.base._zero
        return TateElement(f.m, f.base, {
            e: SeriesElement._raw(f.base, {(t + a, xs): x * cd % p
                                           for (t, xs), x in c._terms.items()}, zero)
            for e, c in f._terms.items()})
    return _build_tate(f.m, f.base, [(e, mul(c, d)) for e, c in f._terms.items()])


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
    terms = {}
    for e, c in f._terms.items():
        _mul_lifted_into(terms, c, hom._monomial(e), 1)
    return _build(profile, terms, profile._zero)
