"""Exact arithmetic and certified ordering for the value monoid.

Every norm handled by this package has the shape

    |t|**a * r_1**q_1 * ... * r_n**q_n,      0 < |t| < 1,

with each radius pinned to either |t|**e (e rational) or |t|**sqrt(d)
(d squarefree > 1).  A norm therefore equals |t|**w for the weight

    w = a + sum(q_i * alpha_i),   alpha_i in {e_i, sqrt(d_i)},

and comparing norms reduces to comparing weights (larger weight means
smaller norm).  Weights are linear combinations c0 + sum(c_d * sqrt(d))
over Q; square roots of distinct squarefree integers are linearly
independent over Q, which gives an exact zero test.  Nonzero signs are
decided by interval refinement, doubling precision until the enclosing
interval excludes zero; termination is guaranteed because the exact
zero test runs first.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm

from .errors import InputValidationError, ProfileMismatchError, WindowError


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


# Input caps that keep validation bounded: Miller-Rabin with the first
# twelve prime bases is exact below MAX_PRIME, the squarefree test
# trial-divides up to sqrt(d) <= 10**5, and exponent denominators stay
# below p**MAX_DENOM_LOG, the bound root_pk compares them against.
MAX_PRIME = 318_665_857_834_031_151_167_461
MAX_SQUAREFREE = 10**10
MAX_DENOM_LOG = 256
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= p < MAX_PRIME."""
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**r, d odd
    d = (p - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _is_squarefree(d: int) -> bool:
    if d <= 1:
        return False
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class RationalRadius:
    """Radius r = |t|**exponent with a rational exponent >= 0."""

    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.exponent < 0:
            raise InputValidationError("rational radius exponent must be >= 0")


@dataclass(frozen=True)
class FreeRadius:
    """Radius r = |t|**sqrt(d) for a squarefree integer d > 1."""

    d: int

    def __post_init__(self):
        if not self.d <= MAX_SQUAREFREE or not _is_squarefree(self.d):
            raise InputValidationError(
                f"free radius requires a squarefree integer in (1, {MAX_SQUAREFREE}],"
                f" got {self.d}"
            )


@dataclass(frozen=True)
class RadiusProfile:
    """Prime p, the radii r_1..r_n, and the benchmark exponent sigma_s.

    s = |t|**sigma_s is the threshold used by adaptedness checks;
    max_denom_log caps exponent denominators at p**max_denom_log.
    The zero and one values of the profile and its n = 0 base profile
    are derived once, here.
    """

    p: int
    radii: tuple
    sigma_s: Fraction
    max_denom_log: int = 16
    _zero: "Value" = field(init=False, compare=False, repr=False)
    _one: "Value" = field(init=False, compare=False, repr=False)
    _base: "RadiusProfile" = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.p < MAX_PRIME or not _is_prime(self.p):
            raise InputValidationError(f"p must be a prime below {MAX_PRIME}, got {self.p}")
        object.__setattr__(self, "radii", tuple(self.radii))
        object.__setattr__(self, "sigma_s", Fraction(self.sigma_s))
        if self.sigma_s <= 0:
            raise InputValidationError("sigma_s must be positive")
        if not 0 <= self.max_denom_log <= MAX_DENOM_LOG:
            raise InputValidationError(
                f"max_denom_log must lie in [0, {MAX_DENOM_LOG}], got {self.max_denom_log}"
            )
        seen = set()
        for r in self.radii:
            if isinstance(r, FreeRadius):
                if r.d in seen:
                    raise InputValidationError(f"duplicate free radius d={r.d}")
                seen.add(r.d)
            elif not isinstance(r, RationalRadius):
                raise InputValidationError(f"bad radius spec: {r!r}")
        q0 = (_F0,) * len(self.radii)
        object.__setattr__(self, "_zero", Value._raw(self, _F0, q0, True))
        object.__setattr__(self, "_one", Value._raw(self, _F0, q0))
        object.__setattr__(self, "_base", RadiusProfile(
            self.p, (), self.sigma_s, self.max_denom_log) if self.radii else self)

    def __eq__(self, other):
        """Field equality; the same object is settled without reading a field."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.radii, self.sigma_s, self.max_denom_log) == (
            other.p, other.radii, other.sigma_s, other.max_denom_log)

    @property
    def n(self) -> int:
        return len(self.radii)

    @property
    def is_free(self) -> bool:
        """True when every radius is a FreeRadius."""
        return all(isinstance(r, FreeRadius) for r in self.radii)

    def base(self) -> "RadiusProfile":
        """The n = 0 profile of the coefficient field K (one object per profile)."""
        return self._base

    def extends(self, other: "RadiusProfile") -> bool:
        """True when other's radii are a prefix of ours (same p)."""
        return (
            self.p == other.p
            and self.radii[: other.n] == other.radii
        )


def default_sigma_s(p: int, radii) -> Fraction:
    """Smallest integer >= 2 * (1 + sum of radius weights)."""
    w = Weight(Fraction(1))
    for r in radii:
        if isinstance(r, RationalRadius):
            w = w.add_rational(r.exponent)
        else:
            w = w.add_sqrt(r.d, Fraction(1))
    return Fraction(ceil_weight(w.scaled(Fraction(2))))


def make_profile(p, radii, sigma_s=None, max_denom_log=16) -> RadiusProfile:
    radii = tuple(radii)
    if sigma_s is None:
        sigma_s = default_sigma_s(p, radii)
    return RadiusProfile(p, radii, Fraction(sigma_s), max_denom_log)


# ---------------------------------------------------------------------------
# Weights: c0 + sum(c_d * sqrt(d)), exact over Q.
# ---------------------------------------------------------------------------


_F0 = Fraction(0)


def _combiner(op):
    """The one body of Weight.add and Weight.sub: op (operator.add or
    operator.sub) on the rational parts and on each sqrt(d) coefficient."""

    def combine(self, other: "Weight") -> "Weight":
        irr = dict(self.irrational)
        for d, c in other.irrational.items():
            nc = op(irr.get(d, _F0), c)
            if nc:
                irr[d] = nc
            else:
                irr.pop(d, None)
        return Weight._raw(op(self.rational, other.rational), irr)

    return combine


class Weight:
    """Exact linear combination c0 + sum over d of c_d * sqrt(d)."""

    __slots__ = ("rational", "irrational")

    def __init__(self, rational=_F0, irrational=None):
        self.rational = rational if type(rational) is Fraction else Fraction(rational)
        self.irrational = dict(irrational or {})
        for d in list(self.irrational):
            if self.irrational[d] == 0:
                del self.irrational[d]

    @classmethod
    def _raw(cls, rational, irrational) -> "Weight":
        w = cls.__new__(cls)
        w.rational = rational
        w.irrational = irrational
        return w

    def add_rational(self, c) -> "Weight":
        return Weight._raw(self.rational + c, self.irrational)

    add = _combiner(operator.add)
    sub = _combiner(operator.sub)

    def add_sqrt(self, d: int, c: Fraction) -> "Weight":
        return self.add(Weight._raw(_F0, {d: c}))

    def scaled(self, c) -> "Weight":
        if type(c) is not Fraction:
            c = Fraction(c)
        if c == 0:
            return Weight._raw(_F0, {})
        return Weight._raw(
            self.rational * c,
            {d: cd * c for d, cd in self.irrational.items()},
        )

    def is_rational(self) -> bool:
        return not self.irrational

    def bounds(self, k: int):
        """Integers (lo, hi, den) with lo/den <= self <= hi/den, width
        shrinking in k.  den = D << k for D the lcm of the coefficient
        denominators, and each sqrt(d) is enclosed by isqrt(d << 2k) and
        that plus one, over 2**k."""
        r, irr = self.rational, self.irrational
        D = r.denominator
        for c in irr.values():
            D = lcm(D, c.denominator)
        lo = hi = r.numerator * (D // r.denominator) << k
        for d, c in irr.items():
            c = c.numerator * (D // c.denominator)
            s = isqrt(d << (2 * k))
            lo += c * (s + (c < 0))
            hi += c * (s + (c > 0))
        return lo, hi, D << k

    def refine(self):
        """The enclosures bounds(k) for k = 16, 32, 64, ...: the one
        refinement loop behind sign, floor_weight and weight_decimal."""
        k = 16
        while True:
            yield self.bounds(k)
            k *= 2

    def sign(self) -> int:
        # Exact zero test first: independence of sqrt(d) over Q.
        if not self.irrational:
            r = self.rational
            return (r > 0) - (r < 0)
        if len(self.irrational) == 1:
            # r + c*sqrt(d) has the sign of a + b*sqrt(d), a = r * den(c) and
            # b = c * den(r) integers: compare a**2 with b**2 * d, never equal
            # for squarefree d > 1.
            ((d, c),) = self.irrational.items()
            r = self.rational
            a, b = r.numerator * c.denominator, c.numerator * r.denominator
            sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
            if sa == sb or sa == 0:
                return sb
            return sa if a * a > b * b * d else sb
        for lo, hi, _ in self.refine():
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def __repr__(self):
        parts = [str(self.rational)]
        for d, c in sorted(self.irrational.items()):
            parts.append(f"{c}*sqrt({d})")
        return " + ".join(parts)


def floor_weight(w: Weight) -> int:
    """Largest integer <= w."""
    if w.is_rational():
        return math.floor(w.rational)
    for lo, hi, den in w.refine():
        if lo // den == hi // den:
            return lo // den


def ceil_weight(w: Weight) -> int:
    """Smallest integer >= w."""
    if w.is_rational():
        return math.ceil(w.rational)
    return floor_weight(w) + 1  # irrational, never an integer


def largest_int_below(w: Weight) -> int:
    """Largest integer strictly less than w."""
    return ceil_weight(w) - 1


def weight_decimal(w: Weight, digits: int = 12) -> str:
    """Decimal rendering of a weight with the given digits after the point."""
    if w.is_rational():
        x = w.rational
    else:
        # the midpoint of the first enclosure narrower than 10**-(digits+2)
        scale = 10 ** (digits + 2)
        x = next(Fraction(lo + hi, 2 * den) for lo, hi, den in w.refine()
                 if (hi - lo) * scale < den)
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = (x.numerator * 10**digits + x.denominator // 2) // x.denominator
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(frac).rjust(digits, '0')}"


# ---------------------------------------------------------------------------
# Values: points of the norm monoid.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    """A formal norm |t|**a * r_1**q_1 * ... * r_n**q_n, or zero."""

    profile: RadiusProfile
    a: Fraction
    q: tuple
    zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "q", tuple(Fraction(x) for x in self.q))
        if len(self.q) != self.profile.n:
            raise InputValidationError(
                f"value has {len(self.q)} radius exponents, profile has {self.profile.n}"
            )

    @classmethod
    def _raw(cls, profile, a, q, zero=False) -> "Value":
        """Internal constructor: a is a Fraction, q a tuple of Fractions
        of the profile's arity."""
        v = cls.__new__(cls)
        v.__dict__.update(profile=profile, a=a, q=q, zero=zero)
        return v

    def __repr__(self):
        if self.zero:
            return "Value<0>"
        qs = ",".join(str(x) for x in self.q)
        return f"Value<{self.a};{qs}>"


def value(profile: RadiusProfile, a, q=()) -> Value:
    return Value(profile, Fraction(a), tuple(Fraction(x) for x in q))


def zero_value(profile: RadiusProfile) -> Value:
    return profile._zero


def one_value(profile: RadiusProfile) -> Value:
    return profile._one


def t_power(profile: RadiusProfile, a) -> Value:
    """|t|**a, i.e. |varpi|**a with varpi = t."""
    return Value._raw(profile, a if type(a) is Fraction else Fraction(a), profile._one.q)


def pi_value(profile: RadiusProfile) -> Value:
    return t_power(profile, 1)


def s_value(profile: RadiusProfile) -> Value:
    """s = |t|**sigma_s."""
    return t_power(profile, profile.sigma_s)


def exponent_weight(profile: RadiusProfile, a: Fraction, q: tuple) -> Weight:
    """Exact weight of |t|**a * r_1**q_1 * ... * r_n**q_n: rational radii
    fold into c0, each free radius sqrt(d) gives the coefficient q_i."""
    rational = a
    irr = {}
    for spec, qi in zip(profile.radii, q):
        if qi == 0:
            continue
        if isinstance(spec, RationalRadius):
            rational = rational + qi * spec.exponent
        else:
            irr[spec.d] = qi  # a profile's free radii have distinct d
    return Weight._raw(rational, irr)


def weight_of(v: Value) -> Weight:
    """Exact weight w with |v| = |t|**w."""
    if v.zero:
        raise InputValidationError("zero value has no finite weight")
    return exponent_weight(v.profile, v.a, v.q)


def _require_same_profile(u: Value, v: Value):
    if u.profile != v.profile:
        raise ProfileMismatchError(f"profiles differ: {u.profile} vs {v.profile}")


def compare(u: Value, v: Value) -> Ordering:
    """Certified order of two norms as real numbers."""
    _require_same_profile(u, v)
    if u.zero and v.zero:
        return Ordering.EQUAL
    if u.zero:
        return Ordering.LESS
    if v.zero:
        return Ordering.GREATER
    sign = exponent_weight(u.profile, u.a - v.a, tuple(map(operator.sub, u.q, v.q))).sign()
    # Larger weight means smaller norm.
    if sign > 0:
        return Ordering.LESS
    if sign < 0:
        return Ordering.GREATER
    return Ordering.EQUAL


def value_lt(u, v) -> bool:
    return compare(u, v) is Ordering.LESS


def value_le(u, v) -> bool:
    return compare(u, v) is not Ordering.GREATER


def value_max(*vs: Value) -> Value:
    best = vs[0]
    for v in vs[1:]:
        if value_lt(best, v):
            best = v
    return best


def value_mul(u: Value, v: Value) -> Value:
    _require_same_profile(u, v)
    if u.zero or v.zero:
        return u.profile._zero
    return Value._raw(u.profile, u.a + v.a, tuple(map(operator.add, u.q, v.q)))


def value_pow(u: Value, e) -> Value:
    e = Fraction(e)
    if u.zero:
        if e > 0:
            return u
        raise InputValidationError("cannot raise the zero value to a power <= 0")
    return Value._raw(u.profile, u.a * e, tuple(x * e for x in u.q))


def value_div(u: Value, v: Value) -> Value:
    return value_mul(u, value_pow(v, -1))


def in_sqrt_K(v: Value) -> bool:
    """Whether |v| lies in sqrt(|K^x|) = |t|**Q.

    Rational radii fold into the |t| exponent; the test is that the
    residual free components vanish.
    """
    if v.zero:
        raise InputValidationError("in_sqrt_K is undefined for the zero value")
    return weight_of(v).is_rational()


def value_lift(v: Value, profile: RadiusProfile) -> Value:
    """Embed a value over a prefix profile into a larger profile."""
    if v.profile == profile:
        return v
    if not profile.extends(v.profile):
        raise ProfileMismatchError("value profile is not a prefix of the target")
    if v.zero:
        return profile._zero
    pad = (_F0,) * (profile.n - v.profile.n)
    return Value._raw(profile, v.a, v.q + pad)


# ---------------------------------------------------------------------------
# Picking Z[1/p] exponents inside open real windows.
# ---------------------------------------------------------------------------


# Largest k for which zp_in_open_interval tries the denominator p**k.
ZP_SEARCH_MAX_K = 64


def zp_in_open_interval(lo: Weight, hi: Weight, p: int) -> Fraction:
    """A rational u / p**k inside the open interval (lo, hi).

    Scans denominators p**k from k = 0 upward and takes the largest
    admissible numerator, so the result is deterministic and sits close
    to the upper endpoint.  Raises WindowError when the interval is
    empty or no denominator up to p**ZP_SEARCH_MAX_K works.
    """
    if hi.sub(lo).sign() <= 0:
        raise WindowError(f"empty window ({lo}, {hi})")
    scale = 1
    for k in range(ZP_SEARCH_MAX_K + 1):
        u = largest_int_below(hi.scaled(Fraction(scale)))
        cand = Fraction(u, scale)
        if Weight(cand).sub(lo).sign() > 0:
            return cand
        scale *= p
    raise WindowError(f"no Z[1/p] point found in ({lo}, {hi}) up to p**{ZP_SEARCH_MAX_K}")


def denom_log(x: Fraction, p: int) -> int:
    """k such that x = u / p**k in lowest terms; raises if not a p-power."""
    den = Fraction(x).denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if den != 1:
        raise InputValidationError(f"{x} does not have a p-power denominator (p={p})")
    return k


def is_p_exponent(x: Fraction, p: int) -> bool:
    den = Fraction(x).denominator
    while den % p == 0:
        den //= p
    return den == 1


def row_reduce(rows, ncols):
    """Gauss-Jordan elimination over the first ncols columns, in place;
    returns the pivot positions (row, col)."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append((r, c))
    return pivots
