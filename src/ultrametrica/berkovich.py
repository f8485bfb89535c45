"""Points on the closed disk: construction, evaluation, classification.

Disk points (center, radius) realize types I-III; nested-disk prefixes
are type-IV candidates.  Emptiness of an infinite intersection is not
decidable from a finite prefix, so type IV is always reported as a
candidate status, never as a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    FloorTooCoarseError,
    InputValidationError,
    InvariantViolationError,
)
from .series import (
    SeriesElement,
    add,
    gauss_norm,
    mul,
    one as series_one,
    scale,
    sub,
)
from .valuegroup import (
    Ordering,
    Value,
    compare,
    in_sqrt_K,
    one_value,
    value_le,
    value_lift,
    value_lt,
    value_mul,
    value_pow,
    zero_value,
)


class PointType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV_CANDIDATE = "IV-candidate"

    @property
    def label(self) -> str:
        return self.value


class TopSimpleStatus(enum.Enum):
    NO = "false"
    IV_CANDIDATE = "iv-candidate"


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


@dataclass(frozen=True)
class Polynomial:
    """Finite polynomial over K in one variable T: degree -> coefficient."""

    coeffs: dict

    def __post_init__(self):
        for d in self.coeffs:
            if not isinstance(d, int) or d < 0:
                raise InputValidationError("polynomial degrees must be integers >= 0")

    @property
    def degree(self) -> int:
        live = [d for d, c in self.coeffs.items() if c._terms or not c.floor.zero]
        return max(live, default=-1)


def _lucas_binom(n: int, k: int, p: int) -> int:
    """Binomial coefficient mod p via Lucas' theorem."""
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = den = 1
        for i in range(ki):
            num = num * (ni - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, -1, p) % p
        n //= p
        k //= p
    return result


def recenter(f: Polynomial, a: SeriesElement) -> Polynomial:
    """f(T + a), using exact char-p binomials."""
    if not f.coeffs:
        return f
    p = a.profile.p
    degree = max(f.coeffs)
    a_pows = [None] * (degree + 1)
    a_pows[0] = series_one(a.profile)
    for k in range(1, degree + 1):
        a_pows[k] = mul(a_pows[k - 1], a)
    out = {}
    for j, cj in f.coeffs.items():
        for i in range(j + 1):
            b = _lucas_binom(j, i, p)
            if b == 0:
                continue
            piece = scale(mul(cj, a_pows[j - i]), b)
            out[i] = add(out[i], piece) if i in out else piece
    return Polynomial(out)


def eval_disk(f: Polynomial, pt: DiskPoint) -> Value:
    """sup-norm of f on B(a, r): max over i of |c'_i| r**i after recentering."""
    rprof = pt.radius.profile
    g = recenter(f, pt.center)
    if not g.coeffs:
        return zero_value(rprof)
    best = None
    pending = []
    for i, ci in g.coeffs.items():
        if pt.radius.zero:
            if i > 0:
                continue
            r_pow = one_value(rprof)
        else:
            r_pow = one_value(rprof) if i == 0 else value_pow(pt.radius, i)
        nc = gauss_norm(ci)
        if nc is None:
            if not ci.floor.zero:
                pending.append(value_mul(value_lift(ci.floor, rprof), r_pow))
            continue
        contrib = value_mul(value_lift(nc, rprof), r_pow)
        if best is None or value_lt(best, contrib):
            best = contrib
    if best is None:
        if pending:
            raise FloorTooCoarseError(
                "every coefficient is below its floor; the sup norm is undetermined"
            )
        return zero_value(rprof)
    for bound in pending:
        if value_lt(best, bound):
            raise FloorTooCoarseError(
                "a coefficient's floor could dominate the sup norm"
            )
    return best


def classify(pt) -> PointType:
    if isinstance(pt, NestedPrefix):
        return PointType.IV_CANDIDATE
    if pt.radius.zero:
        return PointType.I
    return PointType.II if in_sqrt_K(pt.radius) else PointType.III


def eval_prefix(f: Polynomial, np: NestedPrefix) -> Value:
    """min over the prefix of disk sup-norms; an upper bound of the
    type-IV seminorm.  The sequence must be non-increasing."""
    values = [eval_disk(f, d) for d in np.disks]
    for k in range(len(values) - 1):
        if compare(values[k + 1], values[k]) is Ordering.GREATER:
            raise InvariantViolationError(
                "disk evaluations increased along the prefix (nesting violated)"
            )
    return values[-1]


def point_invariants(pt) -> PointInvariants:
    kind = classify(pt)
    if kind is PointType.I:
        return PointInvariants(0, 0, True)
    if kind is PointType.II:
        return PointInvariants(0, 1, False)
    if kind is PointType.III:
        return PointInvariants(1, 0, False)
    return PointInvariants(0, 0, True)


def is_topologically_simple(pt) -> TopSimpleStatus:
    """Disk points are never topologically simple; prefixes are
    candidates, true conditional on the (undecidable) empty intersection."""
    if isinstance(pt, NestedPrefix):
        return TopSimpleStatus.IV_CANDIDATE
    return TopSimpleStatus.NO
