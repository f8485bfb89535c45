"""Points on the closed disk: construction and classification.

Disk points (center, radius) realize types I-III; nested-disk prefixes
are type-IV candidates.  Emptiness of an infinite intersection is not
decidable from a finite prefix, so type IV is always reported as a
candidate status, never as a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputValidationError
from .series import SeriesElement, gauss_norm, sub
from .valuegroup import (
    Ordering,
    Value,
    compare,
    in_sqrt_K,
    one_value,
    value_le,
    value_lift,
    value_lt,
)


class PointType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV_CANDIDATE = "IV-candidate"

    @property
    def label(self) -> str:
        return self.value


class PointInvariants(NamedTuple):
    value_rank_increment: int
    residue_trdeg_increment: int
    semi_immediate: bool


@dataclass(frozen=True)
class DiskPoint:
    """Closed disk B(center, radius); radius zero is a type-I point.

    The radius Value may live over a larger profile than the center
    (irrational radii come from free-radius profiles); profiles must be
    prefix-compatible.
    """

    center: SeriesElement
    radius: Value

    def __post_init__(self):
        rprof = self.radius.profile
        if not rprof.extends(self.center.profile):
            raise InputValidationError(
                "radius profile must extend the center's profile"
            )
        if not self.radius.zero and not value_le(self.radius, one_value(rprof)):
            raise InputValidationError("disk radius must be <= 1 inside the ball")
        if not self.radius.zero and not self.center.floor.zero:
            cf = value_lift(self.center.floor, rprof)
            if not value_lt(cf, self.radius):
                raise InputValidationError(
                    "center floor must lie strictly below the radius"
                )


@dataclass(frozen=True)
class NestedPrefix:
    """Finite prefix of a nested sequence of closed disks."""

    disks: tuple

    def __post_init__(self):
        if not self.disks:
            raise InputValidationError("nested prefix needs at least one disk")
        if not all(isinstance(d, DiskPoint) for d in self.disks):
            raise InputValidationError("a nested prefix holds disks only")
        for k in range(len(self.disks) - 1):
            a, b = self.disks[k], self.disks[k + 1]
            if compare(b.radius, a.radius) is not Ordering.LESS:
                raise InputValidationError("prefix radii must strictly decrease")
            gap = gauss_norm(sub(b.center, a.center))
            if gap is not None:
                gap = value_lift(gap, a.radius.profile)
                if not value_le(gap, a.radius):
                    raise InputValidationError(
                        "prefix centers violate nesting: |a_{k+1} - a_k| > r_k"
                    )


def classify(pt) -> PointType:
    if isinstance(pt, NestedPrefix):
        return PointType.IV_CANDIDATE
    if pt.radius.zero:
        return PointType.I
    return PointType.II if in_sqrt_K(pt.radius) else PointType.III


def point_invariants(pt) -> PointInvariants:
    kind = classify(pt)
    if kind is PointType.I:
        return PointInvariants(0, 0, True)
    if kind is PointType.II:
        return PointInvariants(0, 1, False)
    if kind is PointType.III:
        return PointInvariants(1, 0, False)
    return PointInvariants(0, 0, True)

