"""Exact arithmetic and certified ordering for the value monoid.

Every norm handled by this package has the shape

    |t|**a * r_1**q_1 * ... * r_n**q_n,      0 < |t| < 1,

with each radius pinned to either |t|**e (e rational) or |t|**sqrt(d)
(d squarefree > 1).  A norm therefore equals |t|**w for the weight

    w = a + sum(q_i * alpha_i),   alpha_i in {e_i, sqrt(d_i)},

and comparing norms reduces to comparing weights (larger weight means
smaller norm).  Norms are combined and ordered as Values only; a Weight
is the real number behind one, read for rounding and printing.  Weights
are linear combinations c0 + sum(c_d * sqrt(d)) over Q; square roots of
distinct squarefree integers are linearly independent over Q, so a
nonzero irrational part r is never an integer and a weight's sign,
floor and decimal string each follow from one integer floor of a
multiple of r (_floor_root_sum), found by enclosures that shrink until
both ends have one floor.

Every exponent is an integer over one denominator.  Term exponents lie
in D**-1 * Z for the profile denominator D = p**max_denom_log, so keys
and Values add, hash and compare as ints; a Value whose exponent needs
a finer denominator carries lcm(D, its own).  Rationals enter through
the public constructors and leave through read-only Fraction views.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    DenominatorCapError,
    InputValidationError,
    ProfileMismatchError,
    WindowError,
)


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

# The max_denom_log of a profile that names none (RadiusProfile,
# make_profile and a profile document without the key).
DEFAULT_DENOM_LOG = 16


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
    Derived once, here: the profile denominator den = p**max_denom_log,
    over which every term exponent is an integer numerator; per radius,
    its d (None for a rational radius) and, when some radius is rational,
    lcm * exponent (0 for a free radius) for lcm the lcm of the rational
    exponents' denominators; the sign kernel _sign(a, q), the sign of the
    weight of the integer exponent numerators (a, q) over any positive
    denominator, and _floors, its memo of floor(sum q_i sqrt(d_i)) by q
    (see _free_floor); the zero, one and s values; and the n = 0 base
    profile.
    """

    p: int
    radii: tuple
    sigma_s: Fraction
    max_denom_log: int = DEFAULT_DENOM_LOG
    den: int = field(init=False, compare=False, repr=False)
    _ds: tuple = field(init=False, compare=False, repr=False)
    _rat: tuple = field(init=False, compare=False, repr=False)
    _lcm: int = field(init=False, compare=False, repr=False)
    _sign: object = field(init=False, compare=False, repr=False)
    _floors: dict = field(init=False, compare=False, repr=False)
    _zero: "Value" = field(init=False, compare=False, repr=False)
    _one: "Value" = field(init=False, compare=False, repr=False)
    _s: "Value" = field(init=False, compare=False, repr=False)
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
        free = [isinstance(r, FreeRadius) for r in self.radii]
        L = lcm(*(r.exponent.denominator for r, f in zip(self.radii, free) if not f))
        D = self.p ** self.max_denom_log
        q0 = (0,) * len(self.radii)
        object.__setattr__(self, "den", D)
        object.__setattr__(self, "_ds", tuple(
            r.d if f else None for r, f in zip(self.radii, free)))
        object.__setattr__(self, "_rat", () if all(free) else tuple(
            0 if f else r.exponent.numerator * (L // r.exponent.denominator)
            for r, f in zip(self.radii, free)))
        object.__setattr__(self, "_lcm", L)
        object.__setattr__(self, "_floors", {})
        object.__setattr__(self, "_sign", _sign_kernel(self))
        object.__setattr__(self, "_zero", Value._raw(self, 0, q0, D, True))
        object.__setattr__(self, "_one", Value._raw(self, 0, q0, D))
        object.__setattr__(self, "_s", t_power(self, self.sigma_s))
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
    rational = 2 + 2 * sum(r.exponent for r in radii if isinstance(r, RationalRadius))
    return Fraction(ceil_weight(Weight(rational, {
        r.d: 2 for r in radii if isinstance(r, FreeRadius)})))


def make_profile(p, radii, sigma_s=None, max_denom_log=DEFAULT_DENOM_LOG) -> RadiusProfile:
    radii = tuple(radii)
    if sigma_s is None:
        sigma_s = default_sigma_s(p, radii)
    return RadiusProfile(p, radii, Fraction(sigma_s), max_denom_log)


# ---------------------------------------------------------------------------
# Exponents: integer numerators over the profile denominator D.
# ---------------------------------------------------------------------------


def exponent_numerator(den: int, e):
    """The rational e (an int or a Fraction) as its integer numerator over
    den, or None when e does not lie in den**-1 * Z."""
    q, r = divmod(den, e.denominator)
    return None if r else e.numerator * q


def exponent_numerators(den: int, xs):
    """The rationals xs as numerators over den, or None if one is outside den**-1 * Z."""
    nums = tuple(exponent_numerator(den, x) for x in xs)
    return None if None in nums else nums


def cap_error(profile: RadiusProfile, e: Fraction, what: str = "exponent"):
    """The DenominatorCapError for e, naming its denominator as a power of p
    (at the largest caps e has more digits than str() writes); a denominator
    that is no power of p raises InputValidationError."""
    return DenominatorCapError(f"{what} with denominator p**{denom_log(e, profile.p)}"
                               f" exceeds the cap p**{profile.max_denom_log}")


def numerator(profile: RadiusProfile, e: Fraction, what: str = "exponent") -> int:
    """The exponent e (an int or a Fraction) as its numerator over D =
    profile.den: ratio_numerator(profile, e.numerator, e.denominator, what)."""
    return ratio_numerator(profile, e.numerator, e.denominator, what)


def ratio_numerator(profile: RadiusProfile, num: int, den: int, what: str = "exponent") -> int:
    """The exponent num / den (den > 0, not necessarily in lowest terms) as
    its numerator over D = profile.den, the one admission gate for
    exponents; one outside D**-1 * Z raises cap_error(profile, num / den, what)."""
    n, r = divmod(num * profile.den, den)
    if r:
        raise cap_error(profile, Fraction(num, den), what)
    return n


class ExponentKeys(Mapping):
    """Read-only view of a dict keyed by tuples of integer exponent
    numerators over den (a Tate element's terms, the oracle's answers),
    with each exponent read as a Fraction.  A key looks up through its
    numerators; one outside den**-1 * Z is absent."""

    __slots__ = ("_dict", "_den")

    def __init__(self, d: dict, den: int):
        self._dict = d
        self._den = den

    def _out(self, key):
        return tuple(Fraction(x, self._den) for x in key)

    def _in(self, key):
        nums = exponent_numerators(self._den, map(Fraction, key))
        if nums is None:
            raise KeyError(key)
        return nums

    def __getitem__(self, key):
        try:
            nums = self._in(key)
        except (TypeError, ValueError, ZeroDivisionError):
            raise KeyError(key) from None
        return self._dict[nums]

    def __iter__(self):
        return map(self._out, self._dict)

    def __len__(self):
        return len(self._dict)

    def items(self):
        return [(self._out(k), v) for k, v in self._dict.items()]

    def values(self):
        return self._dict.values()

    def __repr__(self):
        return repr(dict(self.items()))


class TermKeys(ExponentKeys):
    """The same view for series terms, keyed by (t exponent, x exponents)."""

    __slots__ = ()

    def _out(self, key):
        return Fraction(key[0], self._den), super()._out(key[1])

    def _in(self, key):
        t, xs = key
        return super()._in((t,))[0], super()._in(xs)


# ---------------------------------------------------------------------------
# Weights: c0 + sum(c_d * sqrt(d)), exact over Q.
# ---------------------------------------------------------------------------


class Weight:
    """Exact linear combination (c0 + sum over d of c_d * sqrt(d)) / den:
    integers c0 and c_d (none of them zero) over one denominator den > 0.

    Weight(rational, irrational) takes rational coefficients; the
    rational and irrational properties read them back as Fractions.

    A Weight is the real number a Value's exponent denotes (weight_of),
    read for its sign, for integer rounding and for printing, each through
    one floor of a multiple of its irrational part (_floor_root_sum);
    norms are combined and ordered as Values."""

    __slots__ = ("c0", "irr", "den")

    def __init__(self, rational=0, irrational=None):
        rational = Fraction(rational)
        irrational = {d: Fraction(c) for d, c in (irrational or {}).items() if c}
        den = lcm(rational.denominator, *(c.denominator for c in irrational.values()))
        self.c0 = rational.numerator * (den // rational.denominator)
        self.irr = {d: c.numerator * (den // c.denominator) for d, c in irrational.items()}
        self.den = den

    @classmethod
    def _raw(cls, c0, irr, den) -> "Weight":
        w = cls.__new__(cls)
        w.c0 = c0
        w.irr = irr
        w.den = den
        return w

    @property
    def rational(self) -> Fraction:
        return Fraction(self.c0, self.den)

    @property
    def irrational(self) -> dict:
        return {d: Fraction(c, self.den) for d, c in self.irr.items()}

    def bounds(self, k: int):
        """Integers (lo, hi, den) with lo/den <= self <= hi/den, width
        shrinking in k.  den = D << k for D the lcm of the coefficient
        denominators in lowest terms, and each sqrt(d) is enclosed by
        isqrt(d << 2k) and that plus one, over 2**k.  No library code
        calls it; it stays while the benchmark traces it by name."""
        c0, irr, D = self.c0, self.irr, self.den
        g = gcd(D, c0, *irr.values())
        lo = hi = c0 // g << k
        for d, c in irr.items():
            c //= g
            s = isqrt(d << (2 * k))
            lo += c * (s + (c < 0))
            hi += c * (s + (c > 0))
        return lo, hi, D // g << k

    def sign(self) -> int:
        """The sign of c0 alone without a sqrt(d); otherwise the irrational
        part r is never an integer, so +1 exactly when c0 + floor(r) >= 0."""
        if not self.irr:
            return (self.c0 > 0) - (self.c0 < 0)
        return 1 if self.c0 + _floor_root_sum(self.irr.items()) >= 0 else -1

    def __repr__(self):
        parts = [str(self.rational)]
        for d, c in sorted(self.irrational.items()):
            parts.append(f"{c}*sqrt({d})")
        return " + ".join(parts)


def _floor_root_sum(terms) -> int:
    """The floor of sum(c * sqrt(d)) over the (d, c) pairs of terms, for
    distinct squarefree d > 1 (d is not read where c = 0).  Over 2**k, each
    c * sqrt(d) lies strictly between isqrt(c**2 * d << 2k) and that plus
    one, or minus those when c < 0, an enclosure 2**-k wide whatever the
    size of c; the sum of m such terms lies strictly inside (lo, lo + m)
    over 2**k, and k doubles from 32 until both ends have one floor.  A
    sum with a nonzero c is irrational, so k stops growing."""
    terms = [(d, c) for d, c in terms if c]
    k = 32
    while True:
        lo = 0
        for d, c in terms:
            s = isqrt(c * c * d << 2 * k)
            lo += s if c > 0 else -s - 1
        if lo >> k == (lo + len(terms)) >> k:
            return lo >> k
        k *= 2


def floor_weight(w: Weight) -> int:
    """Largest integer <= w: (c0 + floor(r)) // den for r the irrational
    part, since c0 + r lies in [c0 + floor(r), c0 + floor(r) + 1)."""
    return (w.c0 + _floor_root_sum(w.irr.items())) // w.den


def ceil_weight(w: Weight) -> int:
    """Smallest integer >= w (an irrational weight is never an integer)."""
    return floor_weight(w) + 1 if w.irr else -(-w.c0 // w.den)


# weight_decimal's strings of irrational weights, keyed by (c0,
# tuple(irr.items()), den, digits), for up to _DECIMAL_MEMO_CAP weights: a
# surject-verify run prints one string per trial and step, of few distinct
# norms (659 of 5 698 in a seed-1 surject-n1 benchmark pass).
_DECIMAL_MEMO = {}
_DECIMAL_MEMO_CAP = 4096


def weight_decimal(w: Weight, digits: int = 12) -> str:
    """Decimal rendering of a weight with the given digits after the point:
    |w| rounded half up, with w's sign.  An irrational weight w = (c0 + r)
    / den takes one floor, F = floor(2N r) for N = 10**digits: then 2N den w
    lies strictly between the integers m = 2N c0 + F and m + 1, so neither
    0 nor a rounding boundary of N |w| (an odd multiple of den on that
    scale) separates w from the midpoint (2m + 1) / (4N den), and w prints
    as that rational does.  An irrational weight's string is kept in
    _DECIMAL_MEMO."""
    if not w.irr:
        return _decimal(w.c0, w.den, digits)
    key = (w.c0, tuple(w.irr.items()), w.den, digits)
    text = _DECIMAL_MEMO.get(key)
    if text is None:
        # zip and map, not a generator over n2: a closure cell would be made
        # on every call, memo hits included.
        n2 = 2 * 10**digits
        m = n2 * w.c0 + _floor_root_sum(zip(w.irr, map(n2.__mul__, w.irr.values())))
        text = _decimal(2 * m + 1, 2 * n2 * w.den, digits)
        if len(_DECIMAL_MEMO) < _DECIMAL_MEMO_CAP:
            _DECIMAL_MEMO[key] = text
    return text


def _decimal(num: int, den: int, digits: int) -> str:
    """num / den (den > 0) with digits after the point, rounded half up."""
    sign = "-" if num < 0 else ""
    scaled = (abs(num) * 10**digits + den // 2) // den
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(frac).rjust(digits, '0')}"


# ---------------------------------------------------------------------------
# Values: points of the norm monoid.
# ---------------------------------------------------------------------------

_setattr = object.__setattr__


@dataclass(frozen=True)
class Value:
    """A formal norm |t|**a * r_1**q_1 * ... * r_n**q_n, or zero.

    The exponents are integers over one denominator: a = an / den and
    q_i = qn[i] / den, where den = lcm(D, the exponents' own denominators)
    for the profile denominator D.  That den is canonical; it is D itself
    unless an exponent lies outside D**-1 * Z (a floor after root_pk, or a
    folded rational radius, say).  Every rational radius is folded into a
    (see _fold), so its q_i is 0; each norm then has one Value, and ==
    means equal norms.  value(profile, a, q) builds a Value from
    rationals; the a and q properties read them back as Fractions.
    """

    profile: RadiusProfile
    an: int
    qn: tuple
    den: int
    zero: bool = False

    @classmethod
    def _raw(cls, profile, an, qn, den, zero=False) -> "Value":
        """Internal constructor: den is canonical for (an, qn), and qn has
        the profile's arity.  It sets the fields one by one, as __init__
        does, so the instance keeps its compact attribute layout (reading
        __dict__ would build a dict per instance)."""
        v = cls.__new__(cls)
        _setattr(v, "profile", profile)
        _setattr(v, "an", an)
        _setattr(v, "qn", qn)
        _setattr(v, "den", den)
        _setattr(v, "zero", zero)
        return v

    @property
    def a(self) -> Fraction:
        return Fraction(self.an, self.den)

    @property
    def q(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.qn)

    def __repr__(self):
        if self.zero:
            return "Value<0>"
        qs = ",".join(str(x) for x in self.q)
        return f"Value<{self.a};{qs}>"


def _value(profile: RadiusProfile, an: int, qn: tuple, den: int) -> Value:
    """The Value of exponents (an, qn) / den, over its canonical denominator."""
    D = profile.den
    if den != D:
        g = gcd(den, an, *qn)
        own = den // g
        c = lcm(D, own)
        s = c // own
        an, qn, den = an // g * s, tuple(x // g * s for x in qn), c
    return Value._raw(profile, an, qn, den)


def value(profile: RadiusProfile, a, q=()) -> Value:
    """|t|**a * r_1**q_1 * ... * r_n**q_n for rational exponents a and q."""
    a = Fraction(a)
    q = tuple(Fraction(x) for x in q)
    if len(q) != profile.n:
        raise InputValidationError(
            f"value has {len(q)} radius exponents, profile has {profile.n}"
        )
    den = lcm(profile.den, a.denominator, *(x.denominator for x in q))
    return _key_norm(profile, a.numerator * (den // a.denominator),
                     tuple(x.numerator * (den // x.denominator) for x in q), den)


def _key_norm(profile: RadiusProfile, an: int, qn: tuple, den: int) -> Value:
    """The norm of the exponent numerators (an, qn) over den, for den =
    lcm(D, their own denominator) (D itself for a series term key): one
    Value, with every rational radius folded in (see _fold)."""
    if profile._rat:
        an, qn = _fold(profile, an, qn)
        return _value(profile, an, qn, den * profile._lcm)
    return Value._raw(profile, an, qn, den)


def zero_value(profile: RadiusProfile) -> Value:
    return profile._zero


def one_value(profile: RadiusProfile) -> Value:
    return profile._one


def t_power(profile: RadiusProfile, a) -> Value:
    """|t|**a, i.e. |varpi|**a with varpi = t."""
    if type(a) is int:
        return Value._raw(profile, a * profile.den, profile._one.qn, profile.den)
    a = Fraction(a)
    den = lcm(profile.den, a.denominator)
    return _key_norm(profile, a.numerator * (den // a.denominator), profile._one.qn, den)


def value_t_shift(v: Value, k: int) -> Value:
    """v * |t|**k for an integer k: an integer t exponent keeps den canonical."""
    return v if v.zero else Value._raw(v.profile, v.an + k * v.den, v.qn, v.den)


def pi_value(profile: RadiusProfile) -> Value:
    return t_power(profile, 1)


def s_value(profile: RadiusProfile) -> Value:
    """s = |t|**sigma_s."""
    return profile._s


def _fold(profile: RadiusProfile, a: int, q) -> tuple:
    """The exponent numerators (a, q) over den, q any iterable, as
    numerators (a', q') over den * lcm with every rational radius folded
    into the |t| exponent: its q_i * exponent joins a' and its q_i becomes
    0.  Free radii keep their q_i, and 1 and the sqrt(d) are independent
    over Q, so two folded exponent vectors are equal exactly when their
    norms are."""
    L = profile._lcm
    c0, qf = a * L, []
    for d, e, x in zip(profile._ds, profile._rat, q):
        if d is None:
            c0 += e * x
            qf.append(0)
        else:
            qf.append(x * L)
    return c0, tuple(qf)


def _weight(profile: RadiusProfile, a: int, q, den: int) -> Weight:
    """Exact weight of the exponents (a, q) / den, q any iterable: a free
    radius sqrt(d) gives the coefficient q_i of sqrt(d), and a rational
    radius folds into c0 (see _fold)."""
    if profile._rat:
        a, q = _fold(profile, a, q)
        den *= profile._lcm
    return Weight._raw(a, {d: x for d, x in zip(profile._ds, q) if x}, den)


# Capacity of each profile's memo of irrational floors (_free_floor): a
# seed-1 surject-n2 benchmark pass asks 11 749 signs of 2 768 vectors q.
_FLOOR_MEMO_CAP = 4096


def _free_floor(profile: RadiusProfile, q: tuple) -> int:
    """floor(sum(q_i * sqrt(d_i))) for integer numerators q with every
    rational slot 0 (see _fold), kept in profile._floors by q for up to
    _FLOOR_MEMO_CAP vectors."""
    floors = profile._floors
    f = floors.get(q)
    if f is None:
        f = _floor_root_sum(zip(profile._ds, q))
        if len(floors) < _FLOOR_MEMO_CAP:
            floors[q] = f
    return f


def _sign_kernel(profile: RadiusProfile):
    """The function (a, q) -> sign of the weight of the integer exponent
    numerators (a, q), q a tuple; the positive denominator does not change
    a sign.  A rational radius folds into a (see _fold).  For q != 0 the
    free part r = sum(q_i * sqrt(d_i)) is irrational, so the sign is +1
    exactly when a + floor(r) >= 0, a memo hit in profile._floors for a
    repeated q; q = 0 leaves the sign of a."""
    floors = profile._floors

    def sign(a, q):
        f = floors.get(q)
        if f is None:
            if not any(q):
                return (a > 0) - (a < 0)
            f = _free_floor(profile, q)
        return 1 if a + f >= 0 else -1
    if profile._rat:
        return lambda a, q: sign(*_fold(profile, a, q))
    return sign


def _floor_ceil(profile: RadiusProfile, a: int, q: tuple, den: int) -> tuple:
    """(floor, ceiling) of the weight of the exponent numerators (a, q) over
    den: a rational radius folds into a (see _fold), and the floor of the
    free part is read through _free_floor."""
    if profile._rat:
        a, q = _fold(profile, a, q)
        den *= profile._lcm
    if not any(q):
        return a // den, -(-a // den)
    f = (a + _free_floor(profile, q)) // den
    return f, f + 1  # irrational, never an integer


def weight_of(v: Value) -> Weight:
    """Exact weight w with |v| = |t|**w."""
    if v.zero:
        raise InputValidationError("zero value has no finite weight")
    return _weight(v.profile, v.an, v.qn, v.den)


def _require_same_profile(u: Value, v: Value):
    if u.profile is not v.profile and u.profile != v.profile:
        raise ProfileMismatchError(f"profiles differ: {u.profile} vs {v.profile}")


def _over_one_den(u: Value, v: Value):
    """(u.an, u.qn, v.an, v.qn, den) rescaled to den = lcm(u.den, v.den)."""
    den = lcm(u.den, v.den)
    su, sv = den // u.den, den // v.den
    return (u.an * su, tuple(x * su for x in u.qn),
            v.an * sv, tuple(x * sv for x in v.qn), den)


# compare's answer by the sign of w(u) - w(v): larger weight, smaller norm.
_BY_SIGN = (Ordering.EQUAL, Ordering.LESS, Ordering.GREATER)


def compare(u: Value, v: Value) -> Ordering:
    """Certified order of two norms as real numbers (a Value equals itself)."""
    if u is v:
        return Ordering.EQUAL
    _require_same_profile(u, v)
    if u.zero and v.zero:
        return Ordering.EQUAL
    if u.zero:
        return Ordering.LESS
    if v.zero:
        return Ordering.GREATER
    if u.den == v.den:
        ua, uq, va, vq = u.an, u.qn, v.an, v.qn
    else:
        ua, uq, va, vq, _ = _over_one_den(u, v)
    return _BY_SIGN[u.profile._sign(ua - va, tuple(map(operator.sub, uq, vq)))]


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
    if u.den == v.den:
        ua, uq, va, vq, den = u.an, u.qn, v.an, v.qn, u.den
    else:
        ua, uq, va, vq, den = _over_one_den(u, v)
    return _value(u.profile, ua + va, tuple(map(operator.add, uq, vq)), den)


def value_pow(u: Value, e) -> Value:
    """|u|**e for a rational e."""
    if type(e) is not int:
        e = Fraction(e)
    num = e.numerator
    if u.zero:
        if num > 0:
            return u
        raise InputValidationError("cannot raise the zero value to a power <= 0")
    return _value(u.profile, u.an * num, tuple(x * num for x in u.qn), u.den * e.denominator)


def in_sqrt_K(v: Value) -> bool:
    """Whether |v| lies in sqrt(|K^x|) = |t|**Q: rational radii are
    folded into the |t| exponent, so the test is that no free radius has
    a nonzero exponent."""
    if v.zero:
        raise InputValidationError("in_sqrt_K is undefined for the zero value")
    return not any(v.qn)


def value_lift(v: Value, profile: RadiusProfile) -> Value:
    """Embed a value over a prefix profile into a larger profile."""
    if v.profile == profile:
        return v
    if not profile.extends(v.profile):
        raise ProfileMismatchError("value profile is not a prefix of the target")
    if v.zero:
        return profile._zero
    pad = (0,) * (profile.n - v.profile.n)
    return _value(profile, v.an, v.qn + pad, v.den)


# ---------------------------------------------------------------------------
# Picking Z[1/p] exponents inside open real windows.
# ---------------------------------------------------------------------------


# Largest k for which zp_in_weight_window tries the denominator p**k.
ZP_SEARCH_MAX_K = 64


def zp_in_weight_window(profile: RadiusProfile, lo, hi, den: int, p: int) -> Fraction:
    """A rational x = u / p**k with w_lo < x < w_hi, for w_lo and w_hi the
    weights of the exponent numerators lo = (a, q) and hi over den.

    Scans denominators p**k from k = 0 upward and takes the largest
    numerator u with u / p**k < w_hi (one less than the ceiling of w_hi *
    p**k), so the result is deterministic and sits close to w_hi; x > w_lo
    is one call of the sign kernel, and no Value is built.  Both read the
    floor of a free part through the profile's memo, so when lo and hi
    share q, as the alpha-mode picker's do, each scale computes one floor.
    Raises WindowError when no denominator up to p**ZP_SEARCH_MAX_K works
    (in particular when w_hi <= w_lo).
    """
    (al, ql), (ah, qh) = lo, hi
    sign = profile._sign
    scale = 1
    for _ in range(ZP_SEARCH_MAX_K + 1):
        u = _floor_ceil(profile, ah * scale, tuple(x * scale for x in qh), den)[1] - 1
        if sign(al * scale - u * den, tuple(x * scale for x in ql)) < 0:
            return Fraction(u, scale)
        scale *= p
    raise WindowError(f"no Z[1/p] point found in ({_value(profile, ah, qh, den)}, "
                      f"{_value(profile, al, ql, den)}) up to p**{ZP_SEARCH_MAX_K}")


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
