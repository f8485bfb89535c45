"""Laws that must hold whatever the exponent representation: the Gauss
norm is multiplicative, on products and fractional powers, under free
and rational radii (against a reference leading key under free radii
alone), invert meets its residual bound with a floor that certifies it,
evaluate above a nonzero floor does not depend on how each term's
product is grouped, and neither does a sum of Tate elements.  Each runs
over p in {2, 3} and n in {0, 1, 2} (radii, or Tate variables) against a
conftest reference, the last over m in {1, 2} Tate variables against
itself; the first two references call no library code.  Four more: a
profile's integer sign kernel agrees with mpmath, a division step's residual is beta minus
the evaluation of its Tate part, a reconstruction's preimage is the
t_sum of its t_scale parts (over p in {2, 3} and n in {1, 2}), and a
rescale is the product by a power of t.  evaluate keeps every term whatever the
target, even where the bound |c| * |image| lies below it, and a lifted
product accumulates as the product of the lift does, under free radii
with a rational one or without.  Last, under profiles that mix rational
and free radii, two norms built along different paths compare equal
exactly when they are == Values."""

import functools
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    lift,
    one_step,
    ref_evaluate_by_factors,
    ref_gauss_norm,
    ref_leading_key,
    ref_mul,
    ref_reconstruct,
    ref_weight_cmp,
)
from test_gleason import MonomialOracle
from ultrametrica.gleason import (
    reconstruct_preimage,
    rescale_into_window,
    standard_surjection,
)
from ultrametrica.sampling import random_series
from ultrametrica.series import (
    _mul_into,
    _mul_lifted_into,
    gauss_norm,
    invert,
    make_series,
    monomial,
    mul,
    neg,
    one,
    series_frac_pow,
    series_sum,
    series_zero,
    sub,
    with_floor,
)
from test_tatealg import tate_families
from ultrametrica.tatealg import (
    HomSpec,
    TateElement,
    evaluate,
    make_tate,
    t_add,
    t_sum,
)
from ultrametrica.valuegroup import (
    FreeRadius,
    Ordering,
    RationalRadius,
    TermKeys,
    Weight,
    _weight,
    ceil_weight,
    compare,
    floor_weight,
    make_profile,
    s_value,
    t_power,
    value,
    value_le,
    value_lift,
    value_mul,
    value_pow,
    zero_value,
)

FREE = (2, 3)


def free_profile(p, n, cap=12):
    return make_profile(p, [FreeRadius(d) for d in FREE[:n]], max_denom_log=cap)


def exps(p, lo=-8, hi=16):
    return st.builds(lambda u, i: Fraction(u, p**i), st.integers(lo, hi), st.integers(0, 2))


@st.composite
def series_pairs(draw):
    """(profile, f, g, e): two series over p in {2, 3} and n in {0, 1, 2}
    radii, each free or rational (of exponent 1, 1/2 or 1/3), each series
    with a zero or nonzero floor, and an exponent e in Z[1/p]_{>=0}."""
    p, n = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2))
    radii = [draw(st.sampled_from([FreeRadius(d), RationalRadius(1),
                                   RationalRadius(Fraction(1, 2)),
                                   RationalRadius(Fraction(1, 3))]))
             for d in FREE[:n]]
    prof = make_profile(p, radii, max_denom_log=12)
    key = st.tuples(exps(p), st.tuples(*[exps(p)] * n))

    def series():
        terms = draw(st.dictionaries(key, st.integers(1, p - 1), min_size=1, max_size=5))
        floor = None
        if draw(st.booleans()):
            floor = value(prof, draw(exps(p)) + 24, [draw(exps(p)) for _ in range(n)])
        return make_series(prof, terms, floor)

    e = Fraction(draw(st.integers(0, 4)), p ** draw(st.integers(0, 2)))
    return prof, series(), series(), e


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_gauss_norm_is_multiplicative(ops):
    """|f g| = |f| |g| and |g**e| = |g|**e under every profile, floors
    included; under free radii the product's leading key is also the sum
    of the factors' leading keys, by a reference that calls no library
    code."""
    prof, f, g, e = ops
    assume(f.terms and g.terms)
    nh = gauss_norm(mul(f, g))
    assert nh == value_mul(gauss_norm(f), gauss_norm(g))
    assert gauss_norm(series_frac_pow(g, e)) == value_pow(gauss_norm(g), e)
    if prof.is_free:
        ds = FREE[:prof.n]
        lead_f, lead_g = ref_leading_key(ds, f.terms), ref_leading_key(ds, g.terms)
        lead = (lead_f[0] + lead_g[0], tuple(map(operator.add, lead_f[1], lead_g[1])))
        assert ref_leading_key(ds, ref_mul(f.terms, g.terms, prof.p)) == lead
        assert (nh.a, nh.q) == lead


@st.composite
def units(draw):
    """(profile, f, k): an exact f = c M (1 + h) over a free profile with
    |h| <= |t|, and a target exponent k for the floor |t|**k."""
    p, n = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2))
    prof = free_profile(p, n)
    coeff = st.integers(1, p - 1)
    a0, x0 = draw(exps(p)), tuple(draw(exps(p)) for _ in range(n))
    terms = {(a0, x0): draw(coeff)}
    for _ in range(draw(st.integers(0, 3))):
        # sqrt(2), sqrt(3) < 2, so the weight of t**dt x**dx is at least 1
        dx = tuple(draw(exps(p, -8, 8)) for _ in range(n))
        dt = 1 + 2 * sum(map(abs, dx)) + draw(exps(p, 0, 8))
        terms[(a0 + dt, tuple(map(operator.add, x0, dx)))] = draw(coeff)
    return prof, make_series(prof, terms), Fraction(draw(st.integers(1, 16)), 2)


@settings(max_examples=150, deadline=None)
@given(units())
def test_invert_meets_its_residual_bound(ops):
    """|f invert(f, eta) - 1| < eta, term by term on the exact product, and
    the library's own residual carries a floor no coarser than eta."""
    prof, f, k = ops
    ds, p = FREE[:prof.n], prof.p
    eta = t_power(prof, k)
    g = invert(f, eta)
    unit_key = (Fraction(0), (Fraction(0),) * prof.n)
    residual = ref_mul(f.terms, g.terms, p)
    residual[unit_key] = (residual.get(unit_key, 0) - 1) % p
    eta_key = (k, unit_key[1])
    assert all(ref_weight_cmp(ds, key, eta_key) > 0 for key, c in residual.items() if c)
    r = sub(mul(f, g), one(prof))
    assert r.floor.zero or ref_weight_cmp(ds, (r.floor.a, r.floor.q), eta_key) >= 0
    assert all(ref_weight_cmp(ds, key, eta_key) > 0 for key in r.terms)


@st.composite
def exact_evaluations(draw):
    """(f, images, target): a Tate element in m in {1, 2, 3} variables with
    exact coefficients; exact images of up to three terms, one of them
    zero, over p in {2, 3} and n in {0, 1, 2} radii, each free or
    rational; and a zero or nonzero target floor."""
    p, n, m = draw(st.sampled_from([2, 3])), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    radii = [draw(st.sampled_from([FreeRadius(d), RationalRadius(1),
                                   RationalRadius(Fraction(1, 2)),
                                   RationalRadius(Fraction(1, 3))]))
             for d in FREE[:n]]
    prof = make_profile(p, radii, max_denom_log=12)
    base = prof.base()
    exp = exps(p, 0, 8)

    def image():
        # every radius has weight at most 2, so t**a x**xs has norm <= 1
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            xs = tuple(draw(exps(p, -4, 4)) for _ in range(n))
            terms[(draw(exp) + 2 * sum(map(abs, xs)), xs)] = draw(st.integers(1, p - 1))
        return make_series(prof, terms)

    zero = draw(st.integers(0, m - 1))
    images = [series_zero(prof) if i == zero else image() for i in range(m)]

    def coeff():
        terms = draw(st.dictionaries(st.tuples(exp, st.just(())), st.integers(1, p - 1),
                                     max_size=3))
        return make_series(base, terms)

    # zero exponents are frequent, so that many terms miss the zero image
    tate_exp = st.one_of(st.just(Fraction(0)), exps(p, 0, 4))
    keys = draw(st.lists(st.tuples(*[tate_exp] * m), max_size=4, unique=True))
    f = make_tate(m, base, {e: coeff() for e in keys})
    target = t_power(prof, Fraction(draw(st.integers(0, 24)), 2)) if draw(st.booleans()) \
        else zero_value(prof)
    return f, images, target


def radius_image_evaluation(p, e):
    """(f, images, target) for f = T_1, images (x, 0) under the one radius
    |t|**e and the target |t|**(1/2): x has norm |t|**e, over a denominator
    finer than the profile's when e's is not a power of p."""
    prof = make_profile(p, [RationalRadius(e)], max_denom_log=12)
    base = prof.base()
    images = [make_series(prof, {(0, (1,)): 1}), series_zero(prof)]
    f = make_tate(2, base, {(1, 0): one(base)})
    return f, images, t_power(prof, Fraction(1, 2))


def fine_target_evaluation(p, e):
    """(f, images, target) for f = T_1 + T_2 under T_1 -> x, T_2 -> 1 with
    the one radius sqrt(2), and the target |t|**e for an e of weight in
    (0, sqrt(2)) whose denominator is no power of p within the cap, so the
    target's Value is not over D: the bound |x| lies below the target,
    while 1 lies above it."""
    prof = make_profile(p, [FreeRadius(2)], max_denom_log=12)
    base = prof.base()
    images = [make_series(prof, {(0, (1,)): 1}), one(prof)]
    f = make_tate(2, base, {(1, 0): one(base), (0, 1): one(base)})
    return f, images, value_pow(t_power(prof, 1), e)


@settings(max_examples=200, deadline=None)
@given(exact_evaluations())
@example(radius_image_evaluation(2, Fraction(1, 3)))
@example(radius_image_evaluation(3, Fraction(1, 2)))
@example(fine_target_evaluation(2, Fraction(4, 3)))
@example(fine_target_evaluation(3, Fraction(1, 3**13)))
def test_evaluate_above_a_nonzero_floor_multiplies_factor_by_factor(ops):
    """evaluate equals the term-by-term product taken one image power at a
    time, terms and floor alike, under rational radii too, whatever the
    target."""
    f, images, target = ops
    got = evaluate(f, HomSpec(tuple(images)), target)
    assert got == ref_evaluate_by_factors(f, images)


@st.composite
def keep_decisions(draw):
    """(f, images, target) for the every-target law: p in {2, 3}, 0-3
    free radii, with a rational radius |t|**(1/3) or without, and the cap
    p**4; m in {1, 2} images, each zero or up to two terms of norm <= 1;
    f with up to three terms, whose coefficient may be zero (and is then
    absent, as make_tate drops it); and a target that is zero, any norm,
    possibly raised to 1/p**k past the cap so that its Value is not over
    D, or the bound |c| * |image| of a term of f itself, alone or times
    |t|**(+-1/p**j) for j up to 6, past the cap."""
    p, cap = draw(st.sampled_from([2, 3])), 4
    radii = [FreeRadius(d) for d in (2, 3, 5)[:draw(st.integers(0, 3))]]
    if draw(st.booleans()):
        radii.insert(draw(st.integers(0, len(radii))), RationalRadius(Fraction(1, 3)))
    prof = make_profile(p, radii, max_denom_log=cap)
    base, m = prof.base(), draw(st.integers(1, 2))
    small = st.builds(lambda u, i: Fraction(u, p**i), st.integers(0, 6), st.integers(0, 2))

    def image():
        # every radius has a positive weight, so t**a x**xs has norm <= 1
        terms = {(draw(small), tuple(draw(small) for _ in radii)): draw(st.integers(1, p - 1))
                 for _ in range(draw(st.integers(0, 2)))}
        return make_series(prof, terms)

    images = [image() for _ in range(m)]
    coeff = st.dictionaries(st.tuples(exps(p, -8, 16), st.just(())), st.integers(1, p - 1),
                            max_size=3)
    keys = draw(st.lists(st.tuples(*[small] * m), max_size=3, unique=True))
    f = make_tate(m, base, {e: make_series(base, draw(coeff)) for e in keys})
    kind = draw(st.sampled_from(["zero", "any", "bound"]))
    if kind == "zero":
        return f, images, zero_value(prof)
    bounds = [b for b in (term_bound(prof, images, e, c) for e, c in f._terms.items())
              if b is not None]
    if kind == "any" or not bounds:
        target = value(prof, Fraction(draw(st.integers(-24, 48)), p ** draw(st.integers(0, 2))),
                       [Fraction(draw(st.integers(-4, 4)), p ** draw(st.integers(0, 1)))
                        for _ in radii])
        past = draw(st.integers(0, 3))
        return f, images, value_pow(target, Fraction(1, p ** (cap + past))) if past else target
    target = draw(st.sampled_from(bounds))
    j = draw(st.integers(-1, 6))
    if j >= 0:
        target = value_mul(target, t_power(prof, Fraction(draw(st.sampled_from([-1, 1])), p**j)))
    return f, images, target


def term_image(prof, images, e):
    """The image of T**e, e numerators over D, one factor at a time."""
    image = one(prof)
    for ei, g in zip(e, images):
        if ei:
            image = mul(image, series_frac_pow(g, Fraction(ei, prof.den)))
    return image


def term_bound(prof, images, e, c):
    """|c| * |image of T**e| over prof, or None for the zero image."""
    ni = gauss_norm(term_image(prof, images, e))
    return None if ni is None else value_mul(value_lift(gauss_norm(c), prof), ni)


def near_bound_evaluation(p, j):
    """(f, images, target) for f = T_1 under T_1 -> x with the one radius
    sqrt(2) and the cap p**4, and the target |x| itself (j None) or
    |x| * |t|**(-1/p**j): for j past the cap, D * w(target / |x|) lies
    strictly between -1 and 0, so the bound of T_1 (a = 0) lies just below
    the target."""
    prof = make_profile(p, [FreeRadius(2)], max_denom_log=4)
    base = prof.base()
    x = make_series(prof, {(0, (1,)): 1})
    target = gauss_norm(x)
    if j is not None:
        target = value_mul(target, t_power(prof, Fraction(-1, p**j)))
    return make_tate(1, base, {(1,): one(base)}), [x], target


@settings(max_examples=400, deadline=None)
@given(keep_decisions())
@example(near_bound_evaluation(2, None))
@example(near_bound_evaluation(3, 5))
@example(fine_target_evaluation(2, Fraction(4, 3)))
@example(fine_target_evaluation(3, Fraction(1, 3**13)))
@example(radius_image_evaluation(2, Fraction(1, 3)))
def test_evaluate_keeps_every_term_whatever_the_target(ops):
    """evaluate at the target equals evaluate at the zero target, and term
    by term it gives lift(c) * image exactly, also where the bound
    |c| * |image| lies below the target."""
    f, images, target = ops
    prof = images[0].profile
    hom = HomSpec(tuple(images))
    assert evaluate(f, hom, target) == evaluate(f, hom, zero_value(prof))
    for e, c in f._terms.items():
        got = evaluate(TateElement(f.m, f.base, {e: c}), hom, target)
        assert got == mul(lift(c, prof), term_image(prof, images, e))


@st.composite
def lifted_products(draw):
    """(terms, products) for the lifted-product law: a start dict of terms
    over a profile of p in {2, 3} with 0-3 radii, one of them rational or
    none, and up to three (c, g, sign) with c over the base profile, g over
    the profile and sign +-1.  Exponents come from a few values each, so
    products collide and cancel mod p, with each other and with the
    start."""
    p = draw(st.sampled_from([2, 3]))
    radii = [FreeRadius(d) for d in (2, 3)[:draw(st.integers(0, 2))]]
    if draw(st.booleans()):
        radii.insert(draw(st.integers(0, len(radii))), RationalRadius(Fraction(1, 3)))
    prof = make_profile(p, radii, max_denom_log=4)
    base = prof.base()
    t = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, p), Fraction(2)])
    x = st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, p)])
    unit = st.integers(1, p - 1)

    def series(profile, n):
        return make_series(profile, draw(st.dictionaries(
            st.tuples(t, st.tuples(*[x] * n)), unit, max_size=4)))

    start = dict(series(prof, len(radii))._terms)
    products = [(series(base, 0), series(prof, len(radii)), draw(st.sampled_from([1, -1])))
                for _ in range(draw(st.integers(1, 3)))]
    return start, products


@settings(max_examples=300, deadline=None)
@given(lifted_products())
def test_lifted_products_accumulate_as_the_products_of_the_lift(ops):
    """_mul_lifted_into(terms, c's term pairs, g's term dict, p, sign) adds
    sign * lift(c) * g into terms as the multiply-accumulate loop does with
    the lift's terms, each coefficient times sign, term for term and in
    dict order; the sum is that of the start and the
    products sign * mul(lift(c), g), and one product into an empty
    dict is that product's terms, in its order."""
    start, products = ops
    prof = products[0][1].profile
    got, want = dict(start), dict(start)
    for c, g, sign in products:
        _mul_lifted_into(got, c._terms.items(), g._terms, prof.p, sign)
        _mul_into(want, [(k, sign * v) for k, v in lift(c, prof)._terms.items()],
                  g._terms, prof.p)
    assert list(got.items()) == list(want.items())
    summands = [make_series(prof, TermKeys(start, prof.den).items())]
    for c, g, sign in products:
        h = mul(lift(c, prof), g)
        summands.append(h if sign == 1 else neg(h))
    assert got == series_sum(prof, summands)._terms
    c, g, sign = products[0]
    alone = {}
    _mul_lifted_into(alone, c._terms.items(), g._terms, prof.p, sign)
    h = mul(lift(c, prof), g)
    assert list(alone.items()) == list((h if sign == 1 else neg(h))._terms.items())


@settings(max_examples=300, deadline=None)
@given(tate_families())
def test_tate_sums_do_not_depend_on_grouping(family):
    """t_sum, the left and the right fold of t_add, and both groupings of
    three elements are ==: each coefficient is cut term by term and keeps
    its floor when no term is left, so no grouping loses what another
    keeps."""
    m, base, fs = family
    total = t_sum(m, base, fs)
    if fs:
        assert functools.reduce(t_add, fs) == total
        assert functools.reduce(lambda acc, f: t_add(f, acc), reversed(fs)) == total
    if len(fs) >= 3:
        a, b, c = fs[:3]
        assert t_add(t_add(a, b), c) == t_add(a, t_add(b, c))


# ---------------------------------------------------------------------------
# The integer sign kernel against mpmath.
# ---------------------------------------------------------------------------

# Profiles with 0, 1, 2 and 3 free radii, and a mix with a rational radius.
SIGN_PROFILES = [
    make_profile(2, []),
    make_profile(2, [FreeRadius(2)]),
    make_profile(2, [FreeRadius(2), FreeRadius(3)]),
    make_profile(3, [FreeRadius(2), FreeRadius(3), FreeRadius(5)]),
    make_profile(2, [FreeRadius(2), RationalRadius(Fraction(1, 3)), FreeRadius(3)]),
]

# The drawn coefficients reach 2**200, as surject-n2's set-up numerators
# over D = 2**110 do; the Pell pairs stop at 2**64.
COEFF_LIMIT = 2**200
PELL_LIMIT = 2**64
MP_DIGITS = 600


@functools.cache
def mp_root(d):
    with mpmath.workdps(MP_DIGITS):
        return mpmath.sqrt(d)


def mp_sum(a, irr):
    """a + sum c * sqrt(d) over the (d, c) items of irr, to MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        return mpmath.mpf(a) + sum((c * mp_root(d) for d, c in irr), mpmath.mpf(0))


def mp_exact_sign(total) -> int:
    """The sign of an mp_sum of integer coefficients below 2**205 in
    absolute value over k <= 3 distinct squarefree d <= 5.  The exact sum A
    is an integer combination of 1 and the square roots; when A != 0, the
    product of its 2**k conjugates (every choice of signs on the square
    roots) is a nonzero integer, so |A| >= 1 / M**(2**k - 1) for M >= each
    conjugate's size: M < 2**205 * (1 + sqrt2 + sqrt3 + sqrt5) < 2**208, so
    |A| > 2**-1456 > 10**-439.  mpmath's error at 600 digits is below
    M * 10**-598 < 10**-535, so a magnitude below 10**-500 is an exact zero
    and the sign of any larger one is right."""
    with mpmath.workdps(MP_DIGITS):
        if abs(total) < mpmath.mpf(10) ** -500:
            return 0
        return 1 if total > 0 else -1


def mp_sign(profile, a, q):
    """Sign of a + sum q_i alpha_i (alpha_i = sqrt(d_i), or e_i for a
    rational radius) times the lcm L of the e_i's denominators: an
    integer combination with coefficients below 2**203 (inputs below
    2**201, L <= 3), signed by mp_exact_sign."""
    L = math.lcm(*(r.exponent.denominator for r in profile.radii
                   if isinstance(r, RationalRadius)))
    c0, irr = a * L, []
    for r, x in zip(profile.radii, q):
        if isinstance(r, RationalRadius):
            c0 += x * r.exponent.numerator * (L // r.exponent.denominator)
        else:
            irr.append((r.d, x * L))
    return mp_exact_sign(mp_sum(c0, irr))


def pell(d, x1, y1):
    """The solutions (x, y) of x**2 - d*y**2 = 1 with x below PELL_LIMIT,
    powers of the fundamental one: x - y*sqrt(d) = 1 / (x + y*sqrt(d))."""
    out, x, y = [], x1, y1
    while x < PELL_LIMIT:
        out.append((x, y))
        x, y = x * x1 + d * y * y1, x * y1 + y * x1
    return out


PELL2 = pell(2, 3, 2)  # 3 - 2*sqrt(2), 17 - 12*sqrt(2), 99 - 70*sqrt(2), ...
PELL3 = pell(3, 2, 1)  # 2 - sqrt(3), 7 - 4*sqrt(3), ..., 1351 - 780*sqrt(3), ...


def near_cancelling(profile):
    """(a, q) pairs whose weights lie within about 2**-64 of zero: each
    Pell pair x - y*sqrt(d) in a slot with radius sqrt(d), and the sum and
    difference of a sqrt(2) and a sqrt(3) pair, both signs; a rational
    slot adds (k, -3k), which cancels under e = 1/3."""
    slots = {r.d: i for i, r in enumerate(profile.radii) if isinstance(r, FreeRadius)}
    rational = [i for i, r in enumerate(profile.radii) if isinstance(r, RationalRadius)]
    zero = [0] * profile.n

    def pair(a, parts):
        q = list(zero)
        for d, y in parts:
            q[slots[d]] += y
        return a, tuple(q)

    cases = []
    for d, sols in ((2, PELL2), (3, PELL3)):
        if d in slots:
            cases += [pair(s * x, [(d, -s * y)]) for x, y in sols for s in (1, -1)]
    if 2 in slots and 3 in slots:
        for (x1, y1) in PELL2:
            for (x2, y2) in PELL3:
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        cases.append(pair(s1 * x1 + s2 * x2, [(2, -s1 * y1), (3, -s2 * y2)]))
    for i in rational:
        shifted = []
        for a, q in cases[::7]:
            q = list(q)
            q[i] -= 3 * 5
            shifted.append((a + 5, tuple(q)))
        cases += shifted
    return cases + [(0, tuple(zero))]


def kernel_signs(profile, a, q):
    """The kernel's sign and Weight.sign's on the same weight."""
    return profile._sign(a, q), _weight(profile, a, q, 1).sign()


@pytest.mark.parametrize("profile", SIGN_PROFILES,
                         ids=["free0", "free1", "free2", "free3", "mixed"])
def test_sign_kernel_on_near_cancelling_pell_pairs(profile):
    """Pell pairs such as 99 - 70*sqrt(2) and 1351 - 780*sqrt(3), up to
    coefficients of 2**64, and their two-radius sums and differences:
    every branch of the two-radius rule meets opposite-sign parts here,
    and the all-zero input needs its zero coefficients to fall through."""
    for a, q in near_cancelling(profile):
        want = mp_sign(profile, a, q)
        assert kernel_signs(profile, a, q) == (want, want), (a, q)


coefficients = st.one_of(st.just(0), st.integers(-COEFF_LIMIT + 1, COEFF_LIMIT - 1),
                         st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SIGN_PROFILES), st.data())
def test_sign_kernel_matches_mpmath(profile, data):
    """Integer coefficients below 2**200, zero often: the kernel and
    Weight.sign give mpmath's sign."""
    a = data.draw(coefficients)
    q = tuple(data.draw(coefficients) for _ in range(profile.n))
    want = mp_sign(profile, a, q)
    assert kernel_signs(profile, a, q) == (want, want)


def mp_free_floor(profile, q):
    """floor(sum q_i alpha_i) over the radii, the q of a kernel call at a =
    0: a rational slot adds q_i e_i.  Exact, as its sum over the lcm L of
    the e_i's denominators is signed by mp_sign after the floor is taken."""
    L = math.lcm(*(r.exponent.denominator for r in profile.radii
                   if isinstance(r, RationalRadius)))
    rational = sum(x * r.exponent for r, x in zip(profile.radii, q)
                   if isinstance(r, RationalRadius))
    with mpmath.workdps(MP_DIGITS):
        f = int(mpmath.floor(mp_sum(0, [(r.d, x) for r, x in zip(profile.radii, q)
                                        if isinstance(r, FreeRadius)])
                             + mpmath.mpf(rational.numerator) / rational.denominator))
    assert mp_sign(profile, -f, q) >= 0 and mp_sign(profile, -f - 1, q) < 0
    return f


@pytest.mark.parametrize("index", range(len(SIGN_PROFILES)),
                         ids=["free0", "free1", "free2", "free3", "mixed"])
def test_the_floor_memo_answers_on_both_sides_of_each_floor(index):
    """For each near-cancelling q, a - 1, a and a + 1 around a = -floor(r)
    for r the weight of q alone, on a fresh profile: the first call of a
    new free part stores its floor (a q without one leaves the sign of a)
    and the next two read it; all three give mpmath's sign, and each stored
    floor is mpmath's."""
    base = SIGN_PROFILES[index]
    profile = make_profile(base.p, base.radii, base.sigma_s, base.max_denom_log)
    assert profile._floors == {} and profile._sign is not base._sign
    free = [isinstance(r, FreeRadius) for r in profile.radii]
    seen = set()
    for _, q in near_cancelling(profile):
        a = -mp_free_floor(profile, q)
        part = tuple(x if f else 0 for f, x in zip(free, q))
        size, stores = len(profile._floors), any(part) and part not in seen
        for b in (a - 1, a, a + 1):
            assert profile._sign(b, q) == mp_sign(profile, b, q), (b, q)
            assert len(profile._floors) == size + stores, (b, q)
        seen.add(part)
    assert len(profile._floors) == len(seen - {(0,) * profile.n})
    for key, f in profile._floors.items():
        items = [(r.d, x) for r, x in zip(profile.radii, key) if isinstance(r, FreeRadius)]
        assert mp_exact_sign(mp_sum(-f, items)) > 0 > mp_exact_sign(mp_sum(-f - 1, items))


weight_coefficients = st.integers(-COEFF_LIMIT + 1, COEFF_LIMIT - 1)


@settings(max_examples=200, deadline=None)
@given(weight_coefficients, st.dictionaries(st.sampled_from((2, 3, 5)), weight_coefficients,
                                            max_size=3),
       st.one_of(st.just(1), st.integers(1, 2**120)))
def test_floor_and_ceil_weight_match_mpmath(c0, irr, den):
    """(c0 + sum c_d sqrt(d)) / den with integers below 2**200 and den below
    2**121: floor_weight is the largest integer n with c0 - n den + sum
    c_d sqrt(d) >= 0, as mp_exact_sign signs it, and ceil_weight is the
    smallest with that sum <= 0."""
    w = Weight(Fraction(c0, den), {d: Fraction(c, den) for d, c in irr.items()})
    items = list(irr.items())
    with mpmath.workdps(MP_DIGITS):
        n = int(mpmath.floor(mp_sum(c0, items) / den))
    signs = [mp_exact_sign(mp_sum(c0 - m * den, items)) for m in (n, n + 1)]
    assert signs[0] >= 0 and signs[1] < 0
    assert floor_weight(w) == n
    assert ceil_weight(w) == (n if signs[0] == 0 else n + 1)


# ---------------------------------------------------------------------------
# A division step's residual is beta minus the image of its Tate part.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radii, depth, steps, p, cap", [
    ((2,), 8, 8, 2, 32), ((2, 3), 12, 4, 2, 32), ((2,), 8, 8, 3, 20),
], ids=["radii0-8-8", "radii1-12-4", "p3-radii0-8-8"])
def test_divide_step_residual_is_beta_minus_the_evaluated_part(radii, depth, steps, p,
                                                                cap):
    """For betas drawn as surject-verify draws them, exact and floored at
    |t|**12, every step's residual has the terms of sub(beta, evaluate(f))
    at the zero target floor, and the same floor; over p = 3 the cleared
    coefficients run through 1 and 2 mod p."""
    profile = make_profile(p, [FreeRadius(d) for d in radii], max_denom_log=cap)
    spec = standard_surjection(profile, depth)
    exact = zero_value(profile)
    pool = list(spec.schedule.omegas)
    rng = random.Random(5)
    cleared = 0
    for trial in range(30):
        beta = random_series(profile, rng, x_pool=pool, max_t_weight=12)
        if trial % 2:
            beta = with_floor(beta, t_power(profile, 12))
        beta, _ = rescale_into_window(beta)
        for m in range(steps):
            f, residual = one_step(spec, beta, m)
            assert residual == sub(beta, evaluate(f, spec.hom, exact))
            cleared += bool(f.terms)
            beta = residual
    assert cleared >= 40  # steps that cleared terms, not only empty windows


# ---------------------------------------------------------------------------
# A reconstruction is the sum of its scaled parts; a rescale is a product.
# ---------------------------------------------------------------------------

# (p, radii, cap, depth, steps): surject-verify configurations over p in
# {2, 3} and n in {1, 2}.
RECONSTRUCTIONS = [(2, (2,), 32, 8, 8), (3, (2,), 20, 8, 8),
                   (2, (2, 3), 32, 12, 4), (3, (2, 3), 20, 12, 4)]


@functools.lru_cache(maxsize=None)
def surjection(p, radii, cap, depth):
    return standard_surjection(
        make_profile(p, [FreeRadius(d) for d in radii], max_denom_log=cap), depth)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RECONSTRUCTIONS), st.integers(0, 2**32), st.booleans())
def test_reconstruction_is_the_sum_of_the_scaled_parts(config, seed, floored):
    """reconstruct_preimage's preimage and residual norms are those of
    conftest.ref_reconstruct, the t_sum over steps of the t_sum over groups
    of t_scale(answer preimage, d), for a target drawn as surject-verify
    draws it, exact or floored at |t|**12."""
    p, radii, cap, depth, steps = config
    spec = surjection(p, radii, cap, depth)
    profile = spec.profile
    beta = random_series(profile, random.Random(seed), x_pool=list(spec.schedule.omegas),
                         max_t_weight=12)
    if floored:
        beta = with_floor(beta, t_power(profile, 12))
    beta, _ = rescale_into_window(beta)
    got = reconstruct_preimage(spec, beta, steps)
    preimage, norms = ref_reconstruct(spec, beta, steps)
    assert got.preimage == preimage
    assert got.residuals == norms


def test_two_parts_that_cancel_a_coefficient_leave_none():
    """Over p = 2 with |x| = |t|**(1/2) and s = |t|**3, a stub oracle that
    answers every x**q with the constant preimage 1 and b_q = 1: beta =
    t**3 + t**3 x clears at step 0 as two parts, t**3 times 1 each, whose
    coefficients at the Tate exponent 0 cancel.  The emptied coefficient
    drops, so the preimage is zero, as the reference's is."""
    half = make_profile(2, [RationalRadius(Fraction(1, 2))], 3, max_denom_log=4)
    beta = make_series(half, {(3, (0,)): 1, (3, (1,)): 1})
    oracle = MonomialOracle(half)
    got = reconstruct_preimage(oracle, beta, 2)
    preimage, norms = ref_reconstruct(oracle, beta, 2)
    assert got.preimage == preimage
    assert preimage.terms == {}
    assert got.residuals == norms == (None, None)


@st.composite
def rescale_targets(draw):
    """A series over p in {2, 3} and 0-2 radii, free or rational, with a
    sigma_s inside or outside D**-1 Z, t exponents between -12 and 12 over
    p**0..2, exact or floored (at a norm whose denominator may be 3)."""
    p = draw(st.sampled_from([2, 3]))
    radii = draw(st.lists(st.sampled_from([FreeRadius(2), FreeRadius(3),
                                           RationalRadius(Fraction(1, 3)),
                                           RationalRadius(Fraction(5, 2))]),
                          max_size=2, unique=True))
    sigma_s = draw(st.sampled_from([None, Fraction(7, 2), Fraction(16, 3)]))
    profile = make_profile(p, radii, sigma_s, max_denom_log=4)
    scale = st.sampled_from([1, p, p * p])
    terms = draw(st.dictionaries(
        st.tuples(st.builds(Fraction, st.integers(-12 * p * p, 12 * p * p), scale),
                  st.tuples(*[st.builds(Fraction, st.integers(-3, 3), scale)] * len(radii))),
        st.integers(1, p - 1), max_size=4))
    floor = None
    if draw(st.booleans()):
        floor = t_power(profile, Fraction(draw(st.integers(-4, 16)),
                                          draw(st.sampled_from([1, p, 3]))))
    return make_series(profile, terms, floor)


@settings(max_examples=300, deadline=None)
@given(rescale_targets())
def test_rescale_is_the_product_by_a_power_of_t(beta):
    """rescale_into_window(beta) = (t**k * beta, k) for the least k >= 0 with
    |t**k beta| <= s: its terms (in order), floor and stored norm are those
    of mul(t**k, beta), and that norm is the Gauss norm of that product and
    the reference Gauss norm."""
    profile = beta.profile
    nb = gauss_norm(beta)
    rescaled, k = rescale_into_window(beta)
    if nb is None:
        assert (rescaled, k) == (beta, 0)
        return
    want = mul(monomial(profile, 1, k), beta)
    assert list(rescaled._terms.items()) == list(want._terms.items())
    assert rescaled.floor == want.floor
    assert rescaled._norm == gauss_norm(want) == ref_gauss_norm(rescaled)
    s = s_value(profile)
    assert value_le(rescaled._norm, s)
    assert k == 0 or not value_le(value_mul(t_power(profile, k - 1), nb), s)


# ---------------------------------------------------------------------------
# One Value per norm.
# ---------------------------------------------------------------------------

RATIONAL = (RationalRadius(1), RationalRadius(Fraction(1, 3)), RationalRadius(Fraction(1, 2)))


@st.composite
def mixed_profiles(draw):
    """A profile over p in {2, 3} with one or two rational radii (e in
    {1, 1/3, 1/2}) and up to two free ones, in any order."""
    rational = draw(st.lists(st.sampled_from(RATIONAL), min_size=1, max_size=2, unique=True))
    free = [FreeRadius(d) for d in draw(st.lists(st.sampled_from(FREE), max_size=2,
                                                 unique=True))]
    radii = draw(st.permutations(rational + free))
    return make_profile(draw(st.sampled_from([2, 3])), radii, max_denom_log=12)


@st.composite
def exponent_draws(draw, profile):
    """(a, q): rational exponents over Z[1/p] for the profile."""
    p = profile.p
    return draw(exps(p)), tuple(draw(exps(p, -4, 4)) for _ in range(profile.n))


@st.composite
def other_exponents(draw, profile, a, q):
    """Exponents of the same norm as (a, q): each rational radius
    r = |t|**(n/d) trades d*j factors r for n*j factors |t|."""
    q = list(q)
    for i, r in enumerate(profile.radii):
        if isinstance(r, RationalRadius):
            j = draw(st.integers(-3, 3))
            q[i] += r.exponent.denominator * j
            a -= r.exponent.numerator * j
    return a, tuple(q)


@st.composite
def built_norms(draw, profile, a, q):
    """A Value of the norm |t|**a * r**q, from exponents of that norm
    (those given, or others), along one of the library's paths."""
    p, n = profile.p, profile.n
    if draw(st.booleans()):
        a, q = draw(other_exponents(profile, a, q))
    path = draw(st.sampled_from(["value", "gauss_norm", "mul", "pow", "lift", "floor"]))

    def split():
        a1, q1 = draw(exponent_draws(profile))
        return (a1, q1), (a - a1, tuple(map(operator.sub, q, q1)))

    if path == "value":
        return value(profile, a, q)
    if path == "gauss_norm":
        return gauss_norm(make_series(profile, {(a, q): 1, (a + 1, q): 1}))
    if path == "mul":
        (a1, q1), (a2, q2) = split()
        return value_mul(value(profile, a1, q1), value(profile, a2, q2))
    if path == "pow":
        if draw(st.booleans()):
            return value_pow(value(profile, 2 * a, tuple(2 * x for x in q)), Fraction(1, 2))
        return value_pow(value(profile, a / 2, tuple(x / 2 for x in q)), 2)
    if path == "lift":
        k = draw(st.integers(0, n))
        prefix = make_profile(p, profile.radii[:k], max_denom_log=12)
        return value_mul(value_lift(value(prefix, a, q[:k]), profile),
                         value(profile, 0, (0,) * k + q[k:]))
    # x and y with floors |t| |x| and |t| |y|, x's from other exponents:
    # the product floor |t| |x| |y| ties two candidates.
    (ax, qx), (ay, qy) = split()
    x = make_series(profile, {(ax, qx): 1},
                    value(profile, *draw(other_exponents(profile, ax + 1, qx))))
    y = make_series(profile, {(ay - 1, qy): 1}, value(profile, ay, qy))
    return (mul(x, y) if draw(st.booleans()) else mul(y, x)).floor


@st.composite
def norm_pairs(draw):
    """(u, v): two Values over one mixed profile, of one norm along two
    paths, or of two independently drawn norms."""
    profile = draw(mixed_profiles())
    a, q = draw(exponent_draws(profile))
    u = draw(built_norms(profile, a, q))
    if draw(st.booleans()):
        a, q = draw(exponent_draws(profile))
    return u, draw(built_norms(profile, a, q))


def pinned_product_floors():
    """mul(x, t).floor and mul(t, x).floor under r = |t|, floors |t|**5."""
    profile = make_profile(2, [RationalRadius(1)], max_denom_log=8)
    floor = t_power(profile, 5)
    x = make_series(profile, {(0, (1,)): 1}, floor)
    t = make_series(profile, {(1, (0,)): 1}, floor)
    return mul(x, t).floor, mul(t, x).floor


@settings(max_examples=400, deadline=None)
@given(norm_pairs())
@example(pinned_product_floors())
def test_equal_norms_are_equal_values(pair):
    """compare says EQUAL exactly when the Values are ==, and == Values
    hash alike: each norm has one Value, whatever path built it."""
    u, v = pair
    assert (compare(u, v) is Ordering.EQUAL) == (u == v)
    if u == v:
        assert hash(u) == hash(v)
