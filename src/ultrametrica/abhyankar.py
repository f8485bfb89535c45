"""Abhyankar invariants and the coordinate-tower factorization.

Points on an m-variable polydisk are represented as towers of
coordinate choices: each coordinate is either a Gauss norm of some
radius (contributing 1 to d_K) or a type-IV candidate (contributing 0,
a semi-immediate step).  The factorization splits the Gauss indices
from the semi-immediate remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .berkovich import NestedPrefix
from .errors import InputValidationError
from .valuegroup import (
    RadiusProfile,
    Value,
    one_value,
    row_reduce,
    value_le,
)


@dataclass(frozen=True)
class GaussCoordinate:
    """Adjoin a Gauss-norm variable of the given radius (0 < radius <= 1)."""

    radius: Value

    def __post_init__(self):
        if self.radius.zero:
            raise InputValidationError("Gauss coordinate radius must be nonzero")
        if not value_le(self.radius, one_value(self.radius.profile)):
            raise InputValidationError("Gauss coordinate radius must be <= 1")


@dataclass(frozen=True)
class TypeIVCoordinate:
    """Adjoin a variable pinned to a type-IV candidate prefix."""

    prefix: NestedPrefix

    def __post_init__(self):
        if not isinstance(self.prefix, NestedPrefix):
            raise InputValidationError("a type-IV coordinate needs a nested prefix")


@dataclass(frozen=True)
class TowerPoint:
    coords: tuple

    def __post_init__(self):
        for c in self.coords:
            if not isinstance(c, (GaussCoordinate, TypeIVCoordinate)):
                raise InputValidationError(f"bad coordinate spec: {c!r}")

    @property
    def m(self) -> int:
        return len(self.coords)


def d_K(pt: TowerPoint) -> int:
    """Gauss coordinates contribute 1 each; type-IV coordinates 0."""
    return sum(1 for c in pt.coords if isinstance(c, GaussCoordinate))


def is_abhyankar(pt: TowerPoint) -> bool:
    return d_K(pt) == pt.m


@dataclass(frozen=True)
class TemkinFactorization:
    B: tuple                 # 1-based indices of the Gauss coordinates
    polyradius: tuple        # their radii

    @property
    def l(self) -> int:
        return len(self.B)


def factor_temkin(pt: TowerPoint) -> TemkinFactorization:
    """Maximal Gauss subset B with semi-immediate remainder.

    |B| = d_K(pt), and |B| = m iff the point is Abhyankar.  Every
    type-IV coordinate is a semi-immediate step, so the remainder carries
    no data.
    """
    B = []
    radii = []
    for i, c in enumerate(pt.coords, start=1):
        if isinstance(c, GaussCoordinate):
            B.append(i)
            radii.append(c.radius)
    return TemkinFactorization(tuple(B), tuple(radii))


# ---------------------------------------------------------------------------
# Semi-immediate detection on field descriptors.
# ---------------------------------------------------------------------------


def _free_class(v: Value):
    """Class of |v| in R_{>0} / sqrt(|K^x|): v's free-radius numerators {d: q_i}
    (v folds rational radii into its t exponent; its den scales no rank)."""
    if v.zero:
        raise InputValidationError("zero value has no finite weight")
    return {d: x for d, x in zip(v.profile._ds, v.qn) if x}


def _rank(vectors) -> int:
    """Rank over Q of a list of {d: coeff} vectors (exact elimination)."""
    keys = sorted({d for vec in vectors for d in vec})
    return len(row_reduce([[Fraction(vec.get(d, 0)) for d in keys] for vec in vectors],
                          len(keys)))


@dataclass(frozen=True)
class FieldDescriptor:
    """Value-group and residue data of a field in the coordinate tower.

    free_value_generators are Values whose classes generate the value
    group modulo sqrt(|K^x|); they must be multiplicatively independent.
    """

    profile: RadiusProfile
    free_value_generators: tuple
    residue_trdeg: int

    def __post_init__(self):
        classes = [_free_class(v) for v in self.free_value_generators]
        for c in classes:
            if not c:
                raise InputValidationError(
                    "generator lies in sqrt(|K^x|); it is not free"
                )
        if _rank(classes) != len(classes):
            raise InputValidationError("generators are multiplicatively dependent")


def is_semi_immediate(L: FieldDescriptor, L0: FieldDescriptor) -> bool:
    """Whether L/L0 is semi-immediate: same value group modulo torsion
    and no residue transcendence jump.

    Requires L to extend L0 (the Q-span of L0's generator classes must
    sit inside L's); otherwise the descriptors are non-nested.
    """
    cl = [_free_class(v) for v in L.free_value_generators]
    cl0 = [_free_class(v) for v in L0.free_value_generators]
    rank_L = _rank(cl)
    if _rank(cl + cl0) != rank_L:
        raise InputValidationError("descriptors are not nested: L0 is not inside L")
    if L.residue_trdeg < L0.residue_trdeg:
        raise InputValidationError("descriptors are not nested: residue trdeg drops")
    same_values = rank_L == _rank(cl0)
    return same_values and L.residue_trdeg == L0.residue_trdeg


def check_main_theorem_bound(n_vars: int, l: int) -> bool:
    """The radius-count bound l <= n_vars - 1 for surjection records."""
    if n_vars < 1 or l < 0:
        raise InputValidationError("need n_vars >= 1 and l >= 0")
    return l <= n_vars - 1
